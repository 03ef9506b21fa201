"""CrowdHuman-like synthetic dataset (crowded people, person + head boxes).

Stand-in for Shao et al., *CrowdHuman: A Benchmark for Detecting Human in a
Crowd* (2018).  See :mod:`repro.datasets.profiles` for the statistics the
profile matches and DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from .profiles import CROWDHUMAN_LIKE
from .scene import Scene, SceneGenerator


def crowdhuman_like(
    n_images: int,
    resolution: tuple[int, int] = (2560, 1920),
    seed: int = 0,
) -> list[Scene]:
    """Generate CrowdHuman-like scenes.

    Args:
        n_images: number of frames.
        resolution: ``(width, height)`` of the pixel array.
        seed: dataset seed.

    Returns:
        List of :class:`~repro.datasets.scene.Scene` with ``person`` and
        ``head`` ground-truth boxes.
    """
    return SceneGenerator(CROWDHUMAN_LIKE, resolution, seed).generate(n_images)
