"""Bounding-box geometry used throughout the simulator and the backend.

Every detected object is described by an axis-aligned :class:`BBox` in pixel
coordinates.  The helpers here (IoU, containment, centre distance) are the
primitives used by the trackers, the spatial relations, and the query
library's built-in predicates (e.g. ``CollisionQuery``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.common.values import shared_value


@shared_value
@dataclass(frozen=True)
class BBox:
    """An axis-aligned bounding box ``(x1, y1)``–``(x2, y2)`` in pixels.

    The invariant ``x1 <= x2 and y1 <= y2`` is enforced at construction.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"degenerate bbox: {self!r}")

    # -- basic quantities ------------------------------------------------
    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @property
    def bottom_center(self) -> tuple[float, float]:
        """The ground-contact point, used for speed / distance estimates."""
        return ((self.x1 + self.x2) / 2.0, self.y2)

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "BBox":
        """Build a box from its centre point and dimensions."""
        hw, hh = width / 2.0, height / 2.0
        return cls(cx - hw, cy - hh, cx + hw, cy + hh)

    @classmethod
    def from_xywh(cls, x: float, y: float, width: float, height: float) -> "BBox":
        """Build a box from its top-left corner and dimensions."""
        return cls(x, y, x + width, y + height)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=float)

    # -- transforms ------------------------------------------------------
    def translated(self, dx: float, dy: float) -> "BBox":
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scaled(self, factor: float) -> "BBox":
        """Scale about the centre by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        cx, cy = self.center
        return BBox.from_center(cx, cy, self.width * factor, self.height * factor)

    def clipped(self, width: float, height: float) -> "BBox":
        """Clip to a frame of the given dimensions (may produce a zero-area box)."""
        x1 = min(max(self.x1, 0.0), width)
        y1 = min(max(self.y1, 0.0), height)
        x2 = min(max(self.x2, 0.0), width)
        y2 = min(max(self.y2, 0.0), height)
        return BBox(x1, y1, x2, y2)

    # -- relations -------------------------------------------------------
    def intersection(self, other: "BBox") -> float:
        """Area of overlap with ``other``."""
        ix = max(0.0, min(self.x2, other.x2) - max(self.x1, other.x1))
        iy = max(0.0, min(self.y2, other.y2) - max(self.y1, other.y1))
        return ix * iy

    def iou(self, other: "BBox") -> float:
        """Intersection over union with ``other`` in [0, 1]."""
        inter = self.intersection(other)
        union = self.area + other.area - inter
        if union <= 0.0:
            return 0.0
        return inter / union

    def contains_point(self, x: float, y: float) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains(self, other: "BBox") -> bool:
        """True when ``other`` lies fully inside this box."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def center_distance(self, other: "BBox") -> float:
        (ax, ay), (bx, by) = self.center, other.center
        return float(np.hypot(ax - bx, ay - by))

    def edge_distance(self, other: "BBox") -> float:
        """Minimum distance between box boundaries; 0 when the boxes overlap."""
        dx = max(0.0, max(self.x1, other.x1) - min(self.x2, other.x2))
        dy = max(0.0, max(self.y1, other.y1) - min(self.y2, other.y2))
        return float(np.hypot(dx, dy))


def iou(a: BBox, b: BBox) -> float:
    """Module-level convenience wrapper for :meth:`BBox.iou`."""
    return a.iou(b)


def center_distance(a: BBox, b: BBox) -> float:
    """Module-level convenience wrapper for :meth:`BBox.center_distance`."""
    return a.center_distance(b)


def iou_matrix(boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]) -> np.ndarray:
    """Pairwise IoU between two box sequences, shape ``(len(a), len(b))``.

    Vectorised so the trackers can associate dozens of detections per frame
    without Python-level double loops.
    """
    if not boxes_a or not boxes_b:
        return np.zeros((len(boxes_a), len(boxes_b)))
    return iou_matrix_xyxy(
        np.array([b.as_tuple() for b in boxes_a], dtype=float),
        np.array([b.as_tuple() for b in boxes_b], dtype=float),
    )


def iou_matrix_xyxy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou_matrix` of ``(n, 4)`` and ``(m, 4)`` ``x1, y1, x2, y2`` arrays."""
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.maximum(ix2 - ix1, 0.0) * np.maximum(iy2 - iy1, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0, inter / union, 0.0)
    return out


def union_bbox(boxes: Iterable[BBox]) -> BBox:
    """Smallest box covering all ``boxes``; raises on an empty iterable."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("union_bbox() requires at least one box")
    return BBox(
        min(b.x1 for b in boxes),
        min(b.y1 for b in boxes),
        max(b.x2 for b in boxes),
        max(b.y2 for b in boxes),
    )
