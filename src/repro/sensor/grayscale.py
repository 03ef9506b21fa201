"""Analog grayscale conversion, and the digital path's luma weights.

HiRISE's optional grayscale step merges the three color channels *in the
analog domain* by wiring the R, G and B pixels of a site into the averaging
circuit together — so in-sensor grayscale is the **unweighted mean** of the
three channels.  In-processor (digital) grayscale conventionally uses the
ITU-R BT.601 luma weights (:data:`LUMA_WEIGHTS`).  The two therefore
differ slightly; the paper handles this by retraining the stage-1 model on
the grayscale it will see, and our Table 2 bench mirrors that.
"""

from __future__ import annotations

import numpy as np

#: ITU-R BT.601 luma weights used by the digital (in-processor) path.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


def analog_grayscale(voltages: np.ndarray) -> np.ndarray:
    """Unweighted channel mean — what the charge-sharing circuit computes.

    Args:
        voltages: ``(H, W, 3)`` analog voltages.

    Returns:
        ``(H, W)`` merged voltages, in the input's dtype if it is floating
        and float64 otherwise.  The three planes are left-folded, then
        divided by 3: the additions of ``mean(axis=2)``, in its order, but
        without a reduction whose inner loop is three long.
    """
    if voltages.ndim != 3 or voltages.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3), got {voltages.shape}")
    floating = np.issubdtype(voltages.dtype, np.floating)
    merged = voltages[..., 0].astype(voltages.dtype if floating else np.float64)
    merged += voltages[..., 1]
    merged += voltages[..., 2]
    merged /= 3
    return merged
