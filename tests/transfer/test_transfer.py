"""Tests for the ROI descriptor size and the transfer ledger."""

import pytest

from repro.transfer import TransferLedger, roi_descriptor_bytes


class TestRoiDescriptors:
    def test_paper_formula(self):
        """j boxes x 4 words x 2 bytes."""
        assert roi_descriptor_bytes(16) == 16 * 4 * 2

    def test_zero_boxes(self):
        assert roi_descriptor_bytes(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            roi_descriptor_bytes(-1)

    def test_descriptors_negligible_vs_frame(self):
        """Paper: D1(P->S) negligible vs D1(S->P) and D2(S->P)."""
        frame_bytes = 320 * 240 * 3
        assert roi_descriptor_bytes(16) < frame_bytes / 500


class TestTransferLedger:
    def test_accumulates_flows(self):
        ledger = TransferLedger()
        ledger.add_stage1_frame(1000)
        ledger.add_roi_descriptors(2)
        ledger.add_stage2_rois(500)
        assert ledger.stage1_s2p == 1000
        assert ledger.stage1_p2s == 16
        assert ledger.stage2_s2p == 500
        assert ledger.total_bytes == 1516

    def test_breakdown_keys(self):
        ledger = TransferLedger()
        ledger.add_stage1_frame(10)
        b = ledger.breakdown()
        assert set(b) == {"stage1_s2p", "stage1_p2s", "stage2_s2p", "total"}

    def test_empty_ledger_is_zero_bytes(self):
        ledger = TransferLedger()
        assert ledger.total_bytes == 0
        assert ledger.breakdown() == {
            "stage1_s2p": 0, "stage1_p2s": 0, "stage2_s2p": 0, "total": 0
        }
