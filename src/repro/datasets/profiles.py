"""Dataset profiles: the statistics our procedural stand-ins match.

Each profile mirrors the properties of one of the paper's datasets that
actually drive its experiments:

* **crowdhuman-like** — crowded people with both *person* and *head* boxes;
  the paper derives its Table 3 ROI statistics from 100,000 CrowdHuman head
  boxes (median ≈ 16 heads per frame, head side ≈ 14 px per 320 px of frame
  width) and its Fig. 7 data-transfer load from body boxes (ΣWH ≈ 27% of
  the frame).  The scale/count ranges below reproduce those medians.
* **dhdcampus-like** — moderate-density campus scenes, classes person and
  cyclist (TJU-DHD-Campus has exactly these two).
* **visdrone-like** — aerial scenes with 10 classes of *tiny* objects; the
  paper observes accuracy more than doubles from 320x240 to 1280x960 here,
  which requires objects only a few pooled pixels wide at low resolution.

``objects_per_image`` and ``object_scale`` are expressed resolution-
independently (counts, and heights as fractions of the frame height), so
the same profile renders faithfully at any pixel-array size.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DatasetProfile:
    """Statistics of one synthetic detection dataset.

    Attributes:
        name: dataset identifier.
        classes: drawable class labels (see ``scene._draw_object``).
        eval_classes: classes scored by mAP (e.g. CrowdHuman scores person
            and head; VisDrone scores its 10 categories).
        objects_per_image: inclusive (low, high) uniform range of count.
        object_scale: (low, high) object height as a fraction of the frame
            height.
        color_dependence: in [0, 1]; fraction of objects whose contrast is
            chromatic rather than luminance (drives the RGB->gray accuracy
            drop in Table 2).
        background: backdrop style ("plaza" | "campus" | "aerial").
        head_boxes: whether person objects also emit a *head* box.
    """

    name: str
    classes: tuple[str, ...]
    eval_classes: tuple[str, ...]
    objects_per_image: tuple[int, int]
    object_scale: tuple[float, float]
    color_dependence: float
    background: str
    head_boxes: bool = False


CROWDHUMAN_LIKE = DatasetProfile(
    name="crowdhuman-like",
    classes=("person",),
    eval_classes=("person", "head"),
    objects_per_image=(12, 20),
    object_scale=(0.14, 0.30),
    color_dependence=0.75,
    background="plaza",
    head_boxes=True,
)

DHDCAMPUS_LIKE = DatasetProfile(
    name="dhdcampus-like",
    classes=("person", "cyclist"),
    eval_classes=("person", "cyclist"),
    objects_per_image=(4, 10),
    object_scale=(0.12, 0.28),
    color_dependence=0.45,
    background="campus",
    head_boxes=False,
)

VISDRONE_LIKE = DatasetProfile(
    name="visdrone-like",
    classes=(
        "pedestrian",
        "people",
        "bicycle",
        "car",
        "van",
        "truck",
        "tricycle",
        "awning-tricycle",
        "bus",
        "motor",
    ),
    eval_classes=(
        "pedestrian",
        "people",
        "bicycle",
        "car",
        "van",
        "truck",
        "tricycle",
        "awning-tricycle",
        "bus",
        "motor",
    ),
    objects_per_image=(12, 28),
    object_scale=(0.015, 0.055),
    color_dependence=0.35,
    background="aerial",
    head_boxes=False,
)
