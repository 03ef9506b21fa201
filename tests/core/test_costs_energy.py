"""Tests for the Table 1 cost model and the energy model.

Several tests check the model against *numbers printed in the paper* —
these are the strongest reproduction anchors we have.
"""

import pytest

from repro.core import (
    ROI,
    EnergyModel,
    conventional_costs,
    hirise_costs,
    hirise_stage1_costs,
    hirise_stage2_costs,
    roi_feedback_bits,
)


class TestConventional:
    def test_paper_baseline_bytes(self):
        """2560x1920 RGB x 8 bit = 14,745,600 B (paper: 14,746 kB)."""
        c = conventional_costs(2560, 1920, p_adc=8)
        assert c.data_transfer_bytes == 14_745_600
        assert c.memory_bytes == 14_745_600
        assert c.adc_conversions == 14_745_600

    def test_transfer_equals_memory_equals_conversions_x_bits(self):
        c = conventional_costs(640, 480)
        assert c.data_transfer_bits == c.adc_conversions * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            conventional_costs(0, 100)
        with pytest.raises(ValueError):
            conventional_costs(10, 10, p_adc=20)


class TestStage1:
    def test_grayscale_table1_convention(self):
        s = hirise_stage1_costs(2560, 1920, k=8, grayscale=True)
        assert s.adc_conversions == 2560 * 1920 // 64

    def test_rgb_fig7_convention(self):
        s = hirise_stage1_costs(2560, 1920, k=8, grayscale=False)
        assert s.adc_conversions == 2560 * 1920 // 64 * 3

    def test_paper_stage1_frame_230kb(self):
        """2560x1920 pooled 8x to 320x240 RGB = 230,400 B (paper: 230 kB)."""
        s = hirise_stage1_costs(2560, 1920, k=8, grayscale=False)
        assert s.data_transfer_bytes == 230_400

    def test_k_must_fit(self):
        with pytest.raises(ValueError):
            hirise_stage1_costs(10, 10, k=20)


class TestStage2:
    def test_sum_of_areas(self):
        s = hirise_stage2_costs([(10, 20), (5, 5)])
        assert s.adc_conversions == 3 * (200 + 25)

    def test_union_dedup_smaller(self):
        rois = [ROI(0, 0, 10, 10), ROI(5, 0, 10, 10)]
        summed = hirise_stage2_costs(rois)
        union = hirise_stage2_costs(rois, dedup_overlaps=True)
        assert union.adc_conversions == 3 * 150
        assert union.adc_conversions < summed.adc_conversions

    def test_union_requires_positions(self):
        with pytest.raises(ValueError):
            hirise_stage2_costs([(10, 10)], dedup_overlaps=True)

    def test_empty_rois(self):
        s = hirise_stage2_costs([])
        assert s.adc_conversions == 0


class TestFeedback:
    def test_formula(self):
        assert roi_feedback_bits(16) == 16 * 4 * 16

    def test_negligible(self):
        assert roi_feedback_bits(16) < hirise_stage1_costs(320, 240, 1).data_transfer_bits / 100


class TestBreakdown:
    """The paper's Table 3 row at 2560x1920: the strongest anchor."""

    @pytest.fixture()
    def paper_row(self):
        return hirise_costs(
            2560, 1920, k=8, rois=[(112, 112)] * 16, grayscale=False
        )

    def test_hirise_transfer_matches_paper_833kb(self, paper_row):
        kb = paper_row.hirise_transfer_bits / 8 / 1000
        assert kb == pytest.approx(833, abs=5)

    def test_reduction_17_7x(self, paper_row):
        assert paper_row.conversion_reduction == pytest.approx(17.7, abs=0.2)

    def test_memory_is_max_of_stages(self, paper_row):
        assert paper_row.hirise_peak_memory_bits == max(
            paper_row.stage1.memory_bits, paper_row.stage2.memory_bits
        )

    def test_all_conditions_satisfied(self, paper_row):
        assert paper_row.satisfies_paper_conditions()

    def test_k_ordering(self):
        """Larger pooling -> more total reduction (Fig. 7's ordering)."""
        rois = [(100, 100)] * 10
        reductions = [
            hirise_costs(2560, 1920, k, rois, grayscale=False).transfer_reduction
            for k in (2, 4, 8)
        ]
        assert reductions[0] < reductions[1] < reductions[2]


class TestEnergyModel:
    def test_paper_baseline_1843uj(self):
        e = EnergyModel().conventional_frame(2560, 1920)
        assert e.total_mj == pytest.approx(1.843, abs=0.001)

    def test_fig8_crowdhuman_2x2(self):
        """Paper: 2x2 pooling, stage-1 RGB = 0.46 mJ (73% of 0.63 mJ)."""
        rois = [ROI(0, 0, 672, 672)]  # ~0.45 Mpx: back-solved stage-2 load
        e = EnergyModel().hirise_frame(2560, 1920, k=2, rois=rois)
        assert e.stage1_adc * 1e3 == pytest.approx(0.461, abs=0.001)
        assert e.total_mj == pytest.approx(0.63, abs=0.05)

    def test_fig8_reduction_ordering(self):
        rois = [ROI(0, 0, 672, 672)]
        model = EnergyModel()
        base = model.conventional_frame(2560, 1920).total
        totals = [
            model.hirise_frame(2560, 1920, k, rois).total for k in (2, 4, 8)
        ]
        reductions = [base / t for t in totals]
        assert reductions[0] == pytest.approx(3.0, abs=0.3)
        assert reductions[1] == pytest.approx(6.5, abs=0.7)
        assert reductions[2] == pytest.approx(9.4, abs=1.0)

    def test_pooling_energy_negligible(self):
        e = EnergyModel().hirise_frame(2560, 1920, 2, [ROI(0, 0, 100, 100)])
        assert e.pooling < e.stage1_adc / 1000

    def test_share_sums_to_one(self):
        e = EnergyModel().hirise_frame(640, 480, 4, [(50, 50)])
        total_share = sum(e.share(c) for c in ("stage1_adc", "stage2_adc", "pooling"))
        assert total_share == pytest.approx(1.0)

    def test_from_conversions_consistent(self):
        model = EnergyModel()
        analytic = model.hirise_frame(640, 480, 4, [(50, 50)], grayscale=False)
        measured = model.from_conversions(
            stage1_conversions=640 * 480 // 16 * 3,
            stage2_conversions=3 * 50 * 50,
            pooled_outputs=640 * 480 // 16 * 3,
        )
        assert measured.total == pytest.approx(analytic.total)
