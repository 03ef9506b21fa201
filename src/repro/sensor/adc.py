"""ADC model: quantization plus per-conversion energy.

The paper budgets sensor energy almost entirely to analog-to-digital
conversion, using the 45 nm 8-bit folding ADC of Choi et al. (ISOCC 2015):
250 mW at 2 GS/s, i.e. **125 pJ per conversion**.  That single constant
reproduces the paper's baseline energy exactly:

    2560 x 1920 x 3 conversions x 125 pJ = 1.843 mJ   (Table 3 baseline)

The converter model is otherwise a plain ideal mid-tread quantizer with
optional input-referred noise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

#: Per-conversion energy of the 45nm 8-bit ADC used by the paper (ref [3]).
ADC_ENERGY_45NM_8BIT = 125e-12

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
        energy_per_conversion: joules per sample (default: the paper's
            45 nm 8-bit ADC at 125 pJ).
        noise_lsb: sigma of input-referred noise, in LSBs.
        seed: seed for the noise stream.
    """

    bits: int = 8
    v_ref: float = 1.0
    energy_per_conversion: float = ADC_ENERGY_45NM_8BIT
    noise_lsb: float = 0.0
    seed: int = 99

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        if self.v_ref <= 0:
            raise ValueError("v_ref must be positive")
        if self.energy_per_conversion < 0:
            raise ValueError("energy_per_conversion must be non-negative")
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

    def convert(self, voltages: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Quantize analog voltages to integer codes.

        Args:
            voltages: analog samples (any shape), clipped to ``[0, v_ref]``.
            rng: generator for input-referred noise; callers with their
                own noise bookkeeping (the readout paths thread a
                per-frame generator here) pass it explicitly.  When
                omitted, this instance's own seeded stream is used and
                *advanced*, so consecutive conversions draw distinct
                noise — deterministic given ``seed``, never repeating.

        Returns:
            ``uint16`` code array of the same shape.
        """
        v = np.asarray(voltages, dtype=np.float64)
        if self.noise_lsb > 0.0:
            if rng is None:
                noise = self._fallback_noise(v.shape)
            else:
                noise = rng.standard_normal(v.shape)
            v = v + self.noise_lsb * self.lsb * noise
        v = np.clip(v, 0.0, self.v_ref)
        codes = np.rint(v / self.lsb).astype(np.uint16)
        return codes

    def to_float(self, codes: np.ndarray) -> np.ndarray:
        """Map codes back to normalized [0, 1] values."""
        return np.asarray(codes, dtype=np.float64) / (self.levels - 1)

    def digitize(
        self, voltages: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Convert and normalize in one step (the usual readout path)."""
        return self.to_float(self.convert(voltages, rng=rng))

    # -- accounting -------------------------------------------------------------

    def energy(self, n_conversions: int) -> float:
        """Energy (J) to perform ``n_conversions`` samples."""
        if n_conversions < 0:
            raise ValueError("n_conversions must be non-negative")
        return self.energy_per_conversion * n_conversions

    def bytes_per_sample(self) -> int:
        """Bytes needed to ship one converted sample over the link."""
        return (self.bits + 7) // 8
