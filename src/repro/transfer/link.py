"""Sensor <-> processor link accounting.

The paper's Table 1 splits HiRISE traffic into three flows:

* ``D1(S->P)`` — the compressed stage-1 frame, sensor to processor;
* ``D1(P->S)`` — the ROI descriptors (j boxes x 4 words), processor back to
  the sensor's selection encoder;
* ``D2(S->P)`` — the full-resolution ROI pixels, sensor to processor.

A :class:`TransferLedger` accumulates these per frame so pipelines can
report exactly the quantities of Fig. 7 and Table 3.  The link is the
paper's pure byte count: it has no framing overhead, and its energy is
folded into the conversions (paper Sec. 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per ROI descriptor word (16-bit coordinates cover arrays to 65k px).
WORD_BYTES = 2

#: Words per ROI descriptor: x, y, W, H (paper: "j x (4 x Words)").
WORDS_PER_ROI = 4


def roi_descriptor_bytes(n_rois: int) -> int:
    """Bytes for shipping ``n_rois`` box descriptors processor -> sensor."""
    if n_rois < 0:
        raise ValueError("n_rois must be non-negative")
    return n_rois * WORDS_PER_ROI * WORD_BYTES


@dataclass
class TransferLedger:
    """Per-frame accumulator of the three HiRISE flows (bytes).

    Attributes:
        stage1_s2p: compressed frame bytes, sensor -> processor.
        stage1_p2s: ROI descriptor bytes, processor -> sensor.
        stage2_s2p: ROI pixel bytes, sensor -> processor.
    """

    stage1_s2p: int = 0
    stage1_p2s: int = 0
    stage2_s2p: int = 0

    def add_stage1_frame(self, payload_bytes: int) -> None:
        self.stage1_s2p += int(payload_bytes)

    def add_roi_descriptors(self, n_rois: int) -> None:
        self.stage1_p2s += roi_descriptor_bytes(n_rois)

    def add_stage2_rois(self, payload_bytes: int) -> None:
        self.stage2_s2p += int(payload_bytes)

    @property
    def total_bytes(self) -> int:
        """Payload total ``D1(S->P) + D1(P->S) + D2(S->P)`` (paper Eq. 1)."""
        return self.stage1_s2p + self.stage1_p2s + self.stage2_s2p

    def breakdown(self) -> dict[str, int]:
        """Named byte counts, useful for tables."""
        return {
            "stage1_s2p": self.stage1_s2p,
            "stage1_p2s": self.stage1_p2s,
            "stage2_s2p": self.stage2_s2p,
            "total": self.total_bytes,
        }
