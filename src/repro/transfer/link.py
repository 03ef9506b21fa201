"""Sensor <-> processor link accounting.

The paper's Table 1 splits HiRISE traffic into three flows:

* ``D1(S->P)`` — the compressed stage-1 frame, sensor to processor;
* ``D1(P->S)`` — the ROI descriptors (j boxes x 4 words), processor back to
  the sensor's selection encoder;
* ``D2(S->P)`` — the full-resolution ROI pixels, sensor to processor.

A :class:`TransferLedger` accumulates these per frame so pipelines can
report exactly the quantities of Fig. 7 and Table 3.  The :class:`LinkModel`
optionally adds per-transaction overhead and a bandwidth for users who want
a physical link (SPI/MIPI-flavored) rather than the paper's pure byte count
(the default, zero overhead, reproduces the paper).  Link energy is priced
by :class:`repro.core.EnergyModel`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bytes per ROI descriptor word (16-bit coordinates cover arrays to 65k px).
WORD_BYTES = 2

#: Words per ROI descriptor: x, y, W, H (paper: "j x (4 x Words)").
WORDS_PER_ROI = 4


def roi_descriptor_bytes(n_rois: int, word_bytes: int = WORD_BYTES) -> int:
    """Bytes for shipping ``n_rois`` box descriptors processor -> sensor."""
    if n_rois < 0:
        raise ValueError("n_rois must be non-negative")
    return n_rois * WORDS_PER_ROI * word_bytes


@dataclass(frozen=True)
class LinkModel:
    """Physical-link cost model.

    Attributes:
        per_transaction_overhead_bytes: header/trailer bytes added to each
            logical transfer (0 reproduces the paper's accounting).
        bandwidth_bytes_per_s: optional link bandwidth for latency estimates.
    """

    per_transaction_overhead_bytes: int = 0
    bandwidth_bytes_per_s: float | None = None

    def __post_init__(self) -> None:
        # `not (x >= 0)` rather than `x < 0`: NaN must not slip through
        # and silently poison every downstream ledger total.
        if not (self.per_transaction_overhead_bytes >= 0):
            raise ValueError(
                f"link.per_transaction_overhead_bytes: must be >= 0, "
                f"got {self.per_transaction_overhead_bytes}"
            )
        if self.bandwidth_bytes_per_s is not None and not (
            self.bandwidth_bytes_per_s > 0
        ):
            raise ValueError(
                f"link.bandwidth_bytes_per_s: must be positive (or None for "
                f"no latency model), got {self.bandwidth_bytes_per_s}"
            )

    def transfer_bytes(self, payload_bytes: int, n_transactions: int = 1) -> int:
        """Total bytes on the wire for a payload split over transactions.

        ``n_transactions=0`` is a legal idle link (no payload framed, no
        overhead charged); negative counts are rejected.
        """
        if payload_bytes < 0 or n_transactions < 0:
            raise ValueError("invalid payload/transaction count")
        return payload_bytes + self.per_transaction_overhead_bytes * n_transactions

    def latency_s(self, wire_bytes: int) -> float | None:
        if self.bandwidth_bytes_per_s is None:
            return None
        return wire_bytes / self.bandwidth_bytes_per_s


@dataclass
class TransferLedger:
    """Per-frame accumulator of the three HiRISE flows (bytes).

    Attributes:
        stage1_s2p: compressed frame bytes, sensor -> processor.
        stage1_p2s: ROI descriptor bytes, processor -> sensor.
        stage2_s2p: ROI pixel bytes, sensor -> processor.
        link: the physical-link model used for wire-level totals.
        transactions: logical transfer count (for overhead accounting).
    """

    stage1_s2p: int = 0
    stage1_p2s: int = 0
    stage2_s2p: int = 0
    link: LinkModel = field(default_factory=LinkModel)
    transactions: int = 0

    def add_stage1_frame(self, payload_bytes: int) -> None:
        self.stage1_s2p += int(payload_bytes)
        self.transactions += 1

    def add_roi_descriptors(self, n_rois: int) -> None:
        self.stage1_p2s += roi_descriptor_bytes(n_rois)
        self.transactions += 1

    def add_stage2_rois(self, payload_bytes: int, n_rois: int = 1) -> None:
        self.stage2_s2p += int(payload_bytes)
        self.transactions += max(int(n_rois), 0)

    @property
    def total_bytes(self) -> int:
        """Payload total ``D1(S->P) + D1(P->S) + D2(S->P)`` (paper Eq. 1)."""
        return self.stage1_s2p + self.stage1_p2s + self.stage2_s2p

    @property
    def wire_bytes(self) -> int:
        """Payload plus link overhead for the transactions actually logged.

        An idle frame — nothing transferred, nothing logged — costs 0
        wire bytes (it used to be charged one phantom transaction of
        overhead).
        """
        return self.link.transfer_bytes(self.total_bytes, self.transactions)

    def breakdown(self) -> dict[str, int]:
        """Named byte counts, useful for tables."""
        return {
            "stage1_s2p": self.stage1_s2p,
            "stage1_p2s": self.stage1_p2s,
            "stage2_s2p": self.stage2_s2p,
            "total": self.total_bytes,
        }
