"""Property-based tests for the Table 1 cost model and energy model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ROI,
    ConventionalPipeline,
    EnergyModel,
    HiRISEConfig,
    HiRISEPipeline,
    conventional_costs,
    hirise_costs,
    hirise_stage1_costs,
)

frames = st.tuples(st.integers(64, 4096), st.integers(64, 4096))
poolings = st.sampled_from([2, 4, 8, 16])
roi_sets = st.lists(
    st.tuples(st.integers(1, 256), st.integers(1, 256)), min_size=0, max_size=24
)


class TestCostModelProperties:
    @given(frames)
    @settings(max_examples=50, deadline=None)
    def test_conventional_identities(self, frame):
        n, m = frame
        c = conventional_costs(n, m)
        assert c.data_transfer_bits == c.memory_bits
        assert c.data_transfer_bits == c.adc_conversions * 8
        assert c.adc_conversions == 3 * n * m

    @given(frames, poolings)
    @settings(max_examples=50, deadline=None)
    def test_stage1_scales_inverse_k2(self, frame, k):
        n, m = frame
        s = hirise_stage1_costs(n, m, k, grayscale=True)
        assert s.adc_conversions == (n // k) * (m // k)

    @given(frames, poolings)
    @settings(max_examples=50, deadline=None)
    def test_grayscale_exactly_one_third(self, frame, k):
        n, m = frame
        gray = hirise_stage1_costs(n, m, k, grayscale=True)
        rgb = hirise_stage1_costs(n, m, k, grayscale=False)
        assert rgb.adc_conversions == 3 * gray.adc_conversions

    @given(frames, poolings, roi_sets)
    @settings(max_examples=60, deadline=None)
    def test_hirise_conversions_never_exceed_baseline_plus_rois(self, frame, k, rois):
        n, m = frame
        cb = hirise_costs(n, m, k, rois)
        # Stage-1 conversions are strictly fewer; stage 2 adds ROI pixels.
        assert cb.stage1.adc_conversions < cb.conventional.adc_conversions
        expected_stage2 = 3 * sum(w * h for w, h in rois)
        assert cb.stage2.adc_conversions == expected_stage2

    @given(frames, poolings, roi_sets)
    @settings(max_examples=60, deadline=None)
    def test_memory_is_max_rule(self, frame, k, rois):
        n, m = frame
        cb = hirise_costs(n, m, k, rois)
        assert cb.hirise_peak_memory_bits == max(
            cb.stage1.memory_bits, cb.stage2.memory_bits
        )

    @given(frames, roi_sets)
    @settings(max_examples=40, deadline=None)
    def test_reduction_monotone_in_k(self, frame, rois):
        n, m = frame
        reductions = [
            hirise_costs(n, m, k, rois).transfer_reduction for k in (2, 4, 8)
        ]
        assert reductions[0] <= reductions[1] <= reductions[2]


class TestEnergyProperties:
    @given(frames, poolings, roi_sets)
    @settings(max_examples=50, deadline=None)
    def test_energy_consistent_with_conversions(self, frame, k, rois):
        n, m = frame
        model = EnergyModel()
        e = model.hirise_frame(n, m, k, rois)
        conversions = (
            hirise_costs(n, m, k, rois, grayscale=False).stage1.adc_conversions
            + 3 * sum(w * h for w, h in rois)
        )
        assert e.stage1_adc + e.stage2_adc == pytest.approx(
            conversions * model.adc_energy_per_conversion
        )

    @given(frames)
    @settings(max_examples=40, deadline=None)
    def test_baseline_energy_proportional_to_pixels(self, frame):
        n, m = frame
        model = EnergyModel()
        assert model.conventional_frame(n, m).total == pytest.approx(
            n * m * 3 * model.adc_energy_per_conversion
        )

    @given(frames, poolings)
    @settings(max_examples=40, deadline=None)
    def test_empty_roi_hirise_always_wins(self, frame, k):
        """With no ROIs, HiRISE energy is strictly below baseline."""
        n, m = frame
        model = EnergyModel()
        hirise = model.hirise_frame(n, m, k, [])
        base = model.conventional_frame(n, m)
        assert hirise.total < base.total


#: Side of the grid cells the measured-pipeline windows are drawn in; one
#: window per cell keeps them disjoint, so conditioning leaves them whole.
CELL = 16


@st.composite
def measured_frames(draw):
    """A small RGB frame, a pooling size and disjoint in-bounds windows."""
    n = draw(st.integers(32, 96))
    m = draw(st.integers(32, 96))
    k = draw(st.sampled_from([1, 2, 4]))
    cells = [(cx, cy) for cx in range(n // CELL) for cy in range(m // CELL)]
    rois = []
    for cx, cy in draw(st.lists(st.sampled_from(cells), unique=True, max_size=6)):
        dx = draw(st.integers(0, CELL - 2))
        dy = draw(st.integers(0, CELL - 2))
        w = draw(st.integers(2, CELL - dx))
        h = draw(st.integers(2, CELL - dy))
        rois.append(ROI(cx * CELL + dx, cy * CELL + dy, w, h))
    seed = draw(st.integers(0, 2**16))
    image = np.random.default_rng(seed).integers(0, 256, (m, n, 3), dtype=np.uint8)
    return image, k, rois


class TestPipelinesMeasureTable1:
    """What a pipeline run logs on its ledger, counts and prices is exactly
    what Table 1 and the energy model predict for the same frame."""

    @given(measured_frames())
    @settings(max_examples=40, deadline=None)
    def test_hirise_run_matches_table1(self, frame):
        image, k, rois = frame
        m, n = image.shape[:2]
        outcome = HiRISEPipeline(config=HiRISEConfig(pool_k=k)).run(image, rois=rois)
        assert sorted(r.xywh for r in outcome.rois) == sorted(r.xywh for r in rois)
        sizes = [(r.w, r.h) for r in rois]
        costs = hirise_costs(n, m, k, sizes, grayscale=False)
        assert outcome.ledger.total_bytes * 8 == costs.hirise_transfer_bits
        assert outcome.ledger.stage1_p2s * 8 == costs.feedback_bits
        assert (
            outcome.stage1_conversions + outcome.stage2_conversions
            == costs.hirise_conversions
        )
        assert outcome.energy == EnergyModel().hirise_frame(n, m, k, sizes)

    @given(measured_frames())
    @settings(max_examples=20, deadline=None)
    def test_conventional_run_matches_table1(self, frame):
        image, _, rois = frame
        m, n = image.shape[:2]
        outcome = ConventionalPipeline().run(image, rois=rois)
        costs = conventional_costs(n, m)
        assert outcome.ledger.total_bytes * 8 == costs.data_transfer_bits
        assert (
            outcome.stage1_conversions + outcome.stage2_conversions
            == costs.adc_conversions
        )
        assert outcome.energy == EnergyModel().conventional_frame(n, m)
