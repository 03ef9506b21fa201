"""Extra coverage: graph structure and summaries for the model zoo."""

from repro.memory import analyze, mcunetv2_classifier, mcunetv2_detector, mobilenetv2


class TestZooStructure:
    def test_mobilenet_block_count(self):
        """MobileNetV2 has 17 inverted-residual blocks + stem + head."""
        g = mobilenetv2((112, 112))
        projects = [n for n in g.nodes if n.name.endswith("_project")]
        assert len(projects) == 17

    def test_residual_adds_only_on_matching_shapes(self):
        g = mobilenetv2((112, 112))
        adds = [n for n in g.nodes if n.name.endswith("_add")]
        for node in adds:
            a, b = (g.shape(t) for t in node.inputs)
            assert (a.h, a.w, a.c) == (b.h, b.w, b.c)

    def test_detector_head_channels(self):
        g = mcunetv2_detector((240, 320), n_classes=1)
        assert g.output_shape.c == 6  # 5 + 1 class

    def test_classifier_logits(self):
        g = mcunetv2_classifier((112, 112), n_classes=7)
        assert g.output_shape.c == 7
        assert (g.output_shape.h, g.output_shape.w) == (1, 1)

    def test_reports_have_peak_node(self):
        report = analyze(mcunetv2_classifier((56, 56)))
        assert report.peak_node
        assert report.per_node_bytes
        peak_from_trace = max(v for _, v in report.per_node_bytes)
        assert peak_from_trace == report.peak_sram_bytes
