"""Procedural dataset substrates for the HiRISE experiments.

These replace CrowdHuman, TJU-DHD-Campus, VisDrone and RAF-DB, which cannot
be redistributed or downloaded in an offline reproduction.  Every generator
is deterministic given its seed.  See DESIGN.md §5 for why the substitution
preserves the paper's comparisons.
"""

from .crowdhuman import crowdhuman_like
from .dhdcampus import dhdcampus_like
from .profiles import (
    CROWDHUMAN_LIKE,
    DHDCAMPUS_LIKE,
    DatasetProfile,
    VISDRONE_LIKE,
)
from .rafdb import CANONICAL_SIZE, EXPRESSIONS, rafdb_like, render_face
from .scene import GroundTruthBox, Scene, SceneGenerator
from .visdrone import visdrone_like

__all__ = [
    "CANONICAL_SIZE",
    "CROWDHUMAN_LIKE",
    "DHDCAMPUS_LIKE",
    "DatasetProfile",
    "EXPRESSIONS",
    "GroundTruthBox",
    "Scene",
    "SceneGenerator",
    "VISDRONE_LIKE",
    "crowdhuman_like",
    "dhdcampus_like",
    "rafdb_like",
    "render_face",
    "visdrone_like",
]
