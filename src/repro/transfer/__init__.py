"""Sensor <-> processor transfer accounting: the paper's three flows, in bytes."""

from .link import TransferLedger, WORD_BYTES, WORDS_PER_ROI, roi_descriptor_bytes

__all__ = [
    "TransferLedger",
    "WORD_BYTES",
    "WORDS_PER_ROI",
    "roi_descriptor_bytes",
]
