"""Sensor noise models: temporal read noise, shot noise, and fixed-pattern noise.

The HiRISE accuracy experiments (paper Table 2) hinge on the claim that
*analog* in-sensor scaling is as good as digital in-processor scaling.  A
credible comparison needs the analog path to carry realistic sensor
non-idealities, so this module models:

* **read noise** — zero-mean Gaussian voltage noise added at every readout;
* **shot noise** — signal-dependent Gaussian approximation of Poisson photon
  noise (sigma grows with the square root of the signal);
* **DSNU** (dark-signal non-uniformity) — a per-pixel additive offset that is
  fixed for a given sensor instance;
* **PRNU** (photo-response non-uniformity) — a per-pixel multiplicative gain
  error, also fixed per sensor instance.

All randomness is driven by an explicit seed so experiments are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import serializable


@serializable("noise")
@dataclass(frozen=True)
class NoiseModel:
    """Noise parameters, all expressed relative to the pixel full scale.

    Attributes:
        read_noise: sigma of temporal read noise, in volts.
        shot_noise_scale: scale of the sqrt-signal shot-noise term; the
            added sigma is ``shot_noise_scale * sqrt(v / vdd) * vdd``.
            Zero disables shot noise.
        dsnu: sigma of the per-pixel fixed offset, in volts.
        prnu: sigma of the per-pixel fixed relative gain error (unitless).
        seed: seed for the fixed-pattern maps and the temporal stream.
    """

    read_noise: float = 0.5e-3
    shot_noise_scale: float = 1.0e-3
    dsnu: float = 0.3e-3
    prnu: float = 0.005
    seed: int = 2024

    def __post_init__(self) -> None:
        # A negative sigma would be silently ignored by the ``> 0.0``
        # draw tests; ``not >=`` rejects NaN as well.
        for name in ("read_noise", "shot_noise_scale", "dsnu", "prnu"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """An ideal sensor: every noise term disabled."""
        return cls(read_noise=0.0, shot_noise_scale=0.0, dsnu=0.0, prnu=0.0)

    def is_noiseless(self) -> bool:
        return (
            self.read_noise == 0.0
            and self.shot_noise_scale == 0.0
            and self.dsnu == 0.0
            and self.prnu == 0.0
        )

    # -- fixed-pattern maps ---------------------------------------------------

    def fixed_pattern_maps(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (gain_map, offset_map) for a sensor of ``shape``.

        The maps depend only on ``seed`` and ``shape`` so that the same
        sensor instance always exhibits the same pattern (that is what makes
        it *fixed*-pattern noise).
        """
        rng = np.random.default_rng(self.seed)
        gain = 1.0 + self.prnu * rng.standard_normal(shape)
        offset = self.dsnu * rng.standard_normal(shape)
        return gain, offset

    # -- temporal noise ---------------------------------------------------------

    def temporal_noise(
        self, voltages: np.ndarray, vdd: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample read + shot noise for one readout of ``voltages``.

        Args:
            voltages: analog pixel voltages (any shape).
            vdd: full-scale voltage, used to normalize the shot-noise term.
            rng: generator for this readout (callers advance it per frame).

        Returns:
            Noise array of the same shape (all zeros when noiseless).
        """
        total = np.zeros_like(voltages)
        if self.read_noise > 0.0:
            total = total + self.read_noise * rng.standard_normal(voltages.shape)
        if self.shot_noise_scale > 0.0 and vdd > 0.0:
            signal = np.clip(voltages / vdd, 0.0, None)
            sigma = self.shot_noise_scale * np.sqrt(signal) * vdd
            total = total + sigma * rng.standard_normal(voltages.shape)
        return total
