"""Tests for the op-graph memory analyzer and model zoo."""

import pytest

from repro.memory import (
    Activation,
    Add,
    Conv,
    Dense,
    DepthwiseConv,
    GlobalPool,
    GraphError,
    MCUNETV2_PATCH_OPS,
    ModelGraph,
    STM32H743,
    TensorShape,
    analyze,
    analyze_patched,
    mcunetv2_classifier,
    mcunetv2_detector,
    mobilenetv2,
)


class TestTensorShape:
    def test_elems_and_bytes(self):
        t = TensorShape(4, 5, 3)
        assert t.elems == 60
        assert t.bytes(1) == 60
        assert t.bytes(4) == 240

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            TensorShape(0, 5, 3)


class TestOps:
    def test_conv_same_stride2(self):
        out = Conv(16, kernel=3, stride=2).output_shape([TensorShape(33, 33, 3)])
        assert (out.h, out.w, out.c) == (17, 17, 16)

    def test_conv_params(self):
        conv = Conv(8, kernel=3)
        assert conv.weight_params([TensorShape(10, 10, 4)]) == 3 * 3 * 4 * 8 + 8

    def test_depthwise_preserves_channels(self):
        out = DepthwiseConv(kernel=3, stride=2).output_shape([TensorShape(10, 10, 7)])
        assert out.c == 7

    def test_global_pool(self):
        out = GlobalPool().output_shape([TensorShape(7, 7, 64)])
        assert (out.h, out.w, out.c) == (1, 1, 64)

    def test_dense_params(self):
        dense = Dense(10)
        assert dense.weight_params([TensorShape(1, 1, 64)]) == 64 * 10 + 10

    def test_add_shape_check(self):
        with pytest.raises(ValueError):
            Add().output_shape([TensorShape(2, 2, 3), TensorShape(2, 2, 4)])


class TestModelGraph:
    def test_default_chaining(self):
        g = ModelGraph("t", TensorShape(8, 8, 3))
        g.add("c1", Conv(4, 3, 2))
        g.add("c2", Conv(8, 3, 2))
        assert g.output == "c2"
        assert g.output_shape.c == 8

    def test_duplicate_node_rejected(self):
        g = ModelGraph("t", TensorShape(8, 8, 3))
        g.add("c1", Conv(4))
        with pytest.raises(GraphError):
            g.add("c1", Conv(4))

    def test_unknown_tensor_rejected(self):
        g = ModelGraph("t", TensorShape(8, 8, 3))
        with pytest.raises(GraphError):
            g.add("c1", Conv(4), ["missing"])

    def test_residual_wiring(self):
        g = ModelGraph("t", TensorShape(8, 8, 4))
        t1 = g.add("c1", Conv(4))
        t2 = g.add("c2", Conv(4), [t1])
        g.add("add", Add(), [t1, t2])
        assert g.output_shape.c == 4

    def test_summary_mentions_nodes(self):
        g = ModelGraph("demo", TensorShape(8, 8, 3))
        g.add("c1", Conv(4))
        assert "c1" in g.summary()
        assert "total params" in g.summary()


class TestAnalyzer:
    def test_linear_chain_peak(self):
        """Peak = input + largest single output for a simple chain."""
        g = ModelGraph("chain", TensorShape(10, 10, 3))  # input 300 B
        g.add("c1", Conv(8, 3, 1))  # 800 B
        g.add("c2", Conv(2, 3, 1))  # 200 B
        report = analyze(g)
        # c1 executes with input (300) + output (800) live = 1100.
        assert report.peak_sram_bytes == 1100
        assert report.peak_node == "c1"

    def test_residual_extends_lifetime(self):
        """A skip connection keeps its tensor alive across the block."""
        g = ModelGraph("res", TensorShape(10, 10, 4))  # 400 B
        t_in = g.add("c1", Conv(4))  # 400
        g.add("c2", Conv(4), [t_in])  # 400
        g.add("add", Add(), [t_in, "c2"])  # 400
        report = analyze(g)
        # During c2: c1 (400, still needed by add) + c2 out (400) + input gone.
        assert report.peak_sram_bytes >= 1200

    def test_activation_fused_in_place(self):
        g1 = ModelGraph("with-act", TensorShape(10, 10, 4))
        g1.add("c1", Conv(8))
        g1.add("relu", Activation(), ["c1"])
        g2 = ModelGraph("no-act", TensorShape(10, 10, 4))
        g2.add("c1", Conv(8))
        assert analyze(g1).peak_sram_bytes == analyze(g2).peak_sram_bytes

    def test_exclude_input_option(self):
        g = ModelGraph("t", TensorShape(10, 10, 3))
        g.add("c1", Conv(4))
        with_input = analyze(g, include_input=True)
        without = analyze(g, include_input=False)
        assert with_input.peak_sram_bytes - without.peak_sram_bytes == 300

    def test_dtype_scaling(self):
        g = ModelGraph("t", TensorShape(10, 10, 3))
        g.add("c1", Conv(4))
        assert analyze(g, dtype_bytes=4).peak_sram_bytes == 4 * analyze(g).peak_sram_bytes

    def test_flash_is_param_bytes(self):
        g = ModelGraph("t", TensorShape(10, 10, 3))
        g.add("c1", Conv(4, kernel=3))
        assert analyze(g).flash_bytes == 3 * 3 * 3 * 4 + 4


class TestPatchedAnalysis:
    def test_patching_reduces_detector_peak(self):
        graph = mcunetv2_detector((240, 320))
        full = analyze(graph)
        patched = analyze_patched(mcunetv2_detector((240, 320)), MCUNETV2_PATCH_OPS)
        assert patched.peak_sram_bytes < full.peak_sram_bytes / 2

    def test_patch_bounds_validation(self):
        graph = mcunetv2_detector((240, 320))
        with pytest.raises(ValueError):
            analyze_patched(graph, 0)
        with pytest.raises(ValueError):
            analyze_patched(graph, 10_000)


class TestZoo:
    def test_mobilenetv2_params_near_reference(self):
        """~2.2M backbone params at width 1.0 with a 7-class head."""
        g = mobilenetv2((112, 112), n_classes=7)
        assert 1.8e6 < g.total_params() < 3.0e6

    def test_peak_grows_with_resolution(self):
        peaks = [
            analyze(mobilenetv2((s, s))).peak_sram_bytes for s in (14, 28, 56, 112)
        ]
        assert peaks == sorted(peaks)
        # Roughly quadratic growth: x64 pixels -> >x16 memory.
        assert peaks[-1] > peaks[0] * 16

    def test_mcunet_smaller_than_mobilenet(self):
        for size in (28, 112):
            mcu = analyze(mcunetv2_classifier((size, size))).peak_sram_bytes
            mob = analyze(mobilenetv2((size, size))).peak_sram_bytes
            assert mcu < mob

    def test_detector_patched_fits_stm32_with_image(self):
        """Paper Sec 4.2: stage-1 (337 kB) + pooled image fit in 512 kB."""
        patched = analyze_patched(mcunetv2_detector((240, 320)), MCUNETV2_PATCH_OPS)
        assert patched.peak_sram_bytes <= STM32H743.sram_bytes
        assert patched.flash_bytes <= STM32H743.flash_bytes

    def test_width_multiplier_scales_params(self):
        narrow = mobilenetv2((56, 56), width_mult=0.5).total_params()
        wide = mobilenetv2((56, 56), width_mult=1.0).total_params()
        assert narrow < wide


class TestMCUProfiles:
    def test_fits_respects_sram(self):
        """The peak counts the live input: a 512x512 RGB frame alone
        overflows the case-study device's SRAM."""
        g = ModelGraph("big", TensorShape(512, 512, 3))
        g.add("c1", Conv(16))
        report = analyze(g)
        assert report.peak_sram_bytes > STM32H743.sram_bytes

    def test_headroom(self):
        g = ModelGraph("small", TensorShape(8, 8, 3))
        g.add("c1", Conv(4))
        report = analyze(g)
        assert STM32H743.sram_kb == 512.0
        assert STM32H743.sram_bytes - report.peak_sram_bytes > 500 * 1024
