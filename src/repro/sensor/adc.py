"""ADC model: a plain ideal mid-tread quantizer with optional
input-referred noise.

Reads count their conversions; :class:`repro.core.EnergyModel` prices them
(the paper's 45 nm 8-bit ADC at 125 pJ per conversion).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

#: Guards every instance's lazily-created fallback noise stream.  A module
#: lock (instead of per-instance) keeps :class:`ADCModel` picklable;
#: contention is negligible — concurrent converters thread their own rng.
_FALLBACK_RNG_LOCK = threading.Lock()


@dataclass(frozen=True)
class ADCModel:
    """An N-bit ADC with full scale ``[0, v_ref]``.

    Attributes:
        bits: resolution; output codes span ``[0, 2**bits - 1]``.
        v_ref: full-scale reference voltage.
        noise_lsb: sigma of input-referred noise, in LSBs.
        seed: seed for the noise stream.
    """

    bits: int = 8
    v_ref: float = 1.0
    noise_lsb: float = 0.0
    seed: int = 99

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        if self.v_ref <= 0:
            raise ValueError("v_ref must be positive")
        if not self.noise_lsb >= 0.0:
            raise ValueError("noise_lsb must be non-negative")
        # Lazily-created fallback noise stream (not a dataclass field:
        # equality/hashing stay spec-based).  One generator per instance,
        # *advanced* across calls — re-seeding per call would hand every
        # conversion the identical noise realization.
        object.__setattr__(self, "_fallback_rng", None)

    def _fallback_noise(self, shape: tuple[int, ...]) -> np.ndarray:
        # Create-and-draw under one lock: concurrent rng-less converts must
        # never share a noise realization (the bug this path fixes) nor
        # interleave draws on one generator (not thread-safe).
        with _FALLBACK_RNG_LOCK:
            if self._fallback_rng is None:
                object.__setattr__(
                    self, "_fallback_rng", np.random.default_rng(self.seed)
                )
            return self._fallback_rng.standard_normal(shape)

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def lsb(self) -> float:
        """Volts per code step."""
        return self.v_ref / (self.levels - 1)

    # -- conversion ------------------------------------------------------------

    def add_noise(
        self, voltages: np.ndarray, rng: np.random.Generator | None = None
    ) -> None:
        """Add input-referred noise to float64 ``voltages`` in place.

        Args:
            voltages: analog samples (any shape); nothing is drawn or
                added when ``noise_lsb`` is 0.
            rng: generator for the noise; callers with their own noise
                bookkeeping (the readout paths thread a per-read
                generator here) pass it explicitly.  When omitted, this
                instance's own seeded stream is used and *advanced*, so
                consecutive conversions draw distinct noise —
                deterministic given ``seed``, never repeating.
        """
        if self.noise_lsb > 0.0:
            if rng is None:
                noise = self._fallback_noise(voltages.shape)
            else:
                noise = rng.standard_normal(voltages.shape)
            noise *= self.noise_lsb * self.lsb
            voltages += noise

    def _codes(self, voltages: np.ndarray) -> np.ndarray:
        """Clip float64 ``voltages`` to ``[0, v_ref]`` and round them to
        codes, in place; returns them."""
        np.clip(voltages, 0.0, self.v_ref, out=voltages)
        voltages /= self.lsb
        return np.rint(voltages, out=voltages)

    def quantize(self, voltages: np.ndarray) -> None:
        """Replace float64 ``voltages`` by their normalized codes in place:
        each sample becomes its code over ``levels - 1``, as
        :meth:`to_float` of :meth:`convert` gives it."""
        self._codes(voltages)
        # A -0.0 sample survives the clip and the rounding; the integer
        # code it stands for is 0.
        voltages += 0.0
        voltages /= self.levels - 1

    def convert(self, voltages: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Quantize analog voltages to integer codes.

        Args:
            voltages: analog samples (any shape), clipped to ``[0, v_ref]``.
            rng: generator for input-referred noise (see :meth:`add_noise`).

        Returns:
            ``uint16`` code array of the same shape.
        """
        v = np.array(voltages, dtype=np.float64)
        self.add_noise(v, rng)
        return self._codes(v).astype(np.uint16)

    def to_float(self, codes: np.ndarray) -> np.ndarray:
        """Map codes back to normalized [0, 1] values."""
        return np.asarray(codes, dtype=np.float64) / (self.levels - 1)

    # -- accounting -------------------------------------------------------------

    def bytes_per_sample(self) -> int:
        """Bytes needed to ship one converted sample over the link."""
        return (self.bits + 7) // 8
