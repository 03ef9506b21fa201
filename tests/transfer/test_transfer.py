"""Tests for the link model, ledger, and packet helpers."""

import pytest

from repro.transfer import (
    LinkModel,
    PacketStats,
    TransferLedger,
    packet_stats,
    roi_descriptor_bytes,
    roi_payload_bytes,
    split_into_mtu,
)


class TestLinkModel:
    def test_default_is_pure_bytes(self):
        link = LinkModel()
        assert link.transfer_bytes(1000, n_transactions=5) == 1000

    def test_overhead_per_transaction(self):
        link = LinkModel(per_transaction_overhead_bytes=8)
        assert link.transfer_bytes(100, n_transactions=3) == 124

    def test_latency(self):
        link = LinkModel(bandwidth_bytes_per_s=1e6)
        assert link.latency_s(500_000) == pytest.approx(0.5)
        assert LinkModel().latency_s(100) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel().transfer_bytes(-1)
        with pytest.raises(ValueError):
            LinkModel().transfer_bytes(10, n_transactions=-1)

    def test_zero_transactions_is_an_idle_link(self):
        link = LinkModel(per_transaction_overhead_bytes=8)
        assert link.transfer_bytes(0, n_transactions=0) == 0
        # payload without framed transactions: no overhead to charge
        assert link.transfer_bytes(10, n_transactions=0) == 10

    def test_zero_bandwidth_rejected_at_construction(self):
        # regression: bandwidth=0 used to surface later as ZeroDivisionError
        with pytest.raises(ValueError, match=r"link\.bandwidth_bytes_per_s"):
            LinkModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError, match=r"link\.bandwidth_bytes_per_s"):
            LinkModel(bandwidth_bytes_per_s=-1e6)
        with pytest.raises(ValueError, match=r"link\.bandwidth_bytes_per_s"):
            LinkModel(bandwidth_bytes_per_s=float("nan"))

    def test_negative_overhead_and_energy_rejected(self):
        with pytest.raises(ValueError, match=r"link\.per_transaction_overhead"):
            LinkModel(per_transaction_overhead_bytes=-1)
        with pytest.raises(ValueError, match=r"link\.per_transaction_overhead"):
            LinkModel(per_transaction_overhead_bytes=float("nan"))


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
        ledger.add_stage2_rois(500, n_rois=2)
        assert ledger.stage1_s2p == 1000
        assert ledger.stage1_p2s == 16
        assert ledger.stage2_s2p == 500
        assert ledger.total_bytes == 1516

    def test_breakdown_keys(self):
        ledger = TransferLedger()
        ledger.add_stage1_frame(10)
        b = ledger.breakdown()
        assert set(b) == {"stage1_s2p", "stage1_p2s", "stage2_s2p", "total"}

    def test_wire_bytes_with_overhead(self):
        ledger = TransferLedger(link=LinkModel(per_transaction_overhead_bytes=4))
        ledger.add_stage1_frame(100)
        ledger.add_stage2_rois(50, n_rois=2)
        assert ledger.transactions == 3
        assert ledger.wire_bytes == 150 + 12

    def test_empty_ledger_costs_zero_wire_bytes(self):
        # regression: an idle frame used to be charged one phantom
        # transaction of overhead (max(transactions, 1))
        ledger = TransferLedger(link=LinkModel(per_transaction_overhead_bytes=64))
        assert ledger.total_bytes == 0
        assert ledger.transactions == 0
        assert ledger.wire_bytes == 0


class TestPackets:
    def test_stats(self):
        stats = packet_stats([100, 300, 200])
        assert stats == PacketStats(3, 600, 200.0, 300)

    def test_empty_stats(self):
        assert packet_stats([]).n_packets == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            packet_stats([-1])

    def test_mtu_split(self):
        assert split_into_mtu(1000, 256) == 4
        assert split_into_mtu(1024, 256) == 4
        assert split_into_mtu(0, 256) == 0

    def test_mtu_validation(self):
        with pytest.raises(ValueError):
            split_into_mtu(10, 0)

    def test_roi_payload(self):
        assert roi_payload_bytes(112, 112) == 112 * 112 * 3
        assert roi_payload_bytes(10, 10, channels=1, sample_bytes=2) == 200
