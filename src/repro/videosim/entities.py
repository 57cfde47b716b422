"""Ground-truth entities that populate synthetic videos.

An :class:`ObjectSpec` describes one real-world entity across its lifetime
in a clip (class, static attributes, trajectory, size, lifespan).  The video
renders one :class:`GTInstance` per visible object of each frame a model
reads.
:class:`InteractionEvent` scripts object–object interactions (person gets
into car, car hits person, person hits ball) over a frame range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.geometry import BBox
from repro.common.values import shared_value
from repro.videosim.trajectory import Trajectory

#: Object classes understood by the simulated detectors.
VEHICLE_CLASSES = ("car", "bus", "truck")
PERSON_CLASSES = ("person",)
OTHER_CLASSES = ("ball", "bicycle", "bag")
ALL_CLASSES = VEHICLE_CLASSES + PERSON_CLASSES + OTHER_CLASSES

#: Attribute vocabularies (mirroring the CityFlow-NL standardised queries).
VEHICLE_COLORS = ("black", "white", "gray", "red", "blue", "green", "silver")
VEHICLE_TYPES = ("sedan", "suv", "hatchback", "pickup", "van")
PERSON_ACTIONS = ("walking", "standing", "running", "crossing", "loitering")


@dataclass
class ObjectSpec:
    """One ground-truth entity over its lifetime in a clip."""

    object_id: int
    class_name: str
    trajectory: Trajectory
    size: Tuple[float, float]
    enter_frame: int = 0
    exit_frame: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Per-frame action overrides, e.g. {120: "getting_into_car"}.
    action_schedule: Dict[int, str] = field(default_factory=dict)
    default_action: Optional[str] = None

    def __post_init__(self) -> None:
        if self.class_name not in ALL_CLASSES:
            raise ValueError(f"unknown object class {self.class_name!r}")
        if self.exit_frame is not None and self.exit_frame < self.enter_frame:
            raise ValueError("exit_frame must be >= enter_frame")

    def alive_at(self, frame_id: int) -> bool:
        if frame_id < self.enter_frame:
            return False
        if self.exit_frame is not None and frame_id > self.exit_frame:
            return False
        return True

    def action_at(self, frame_id: int) -> Optional[str]:
        return self.action_schedule.get(frame_id, self.default_action)

    def bbox_at(self, frame_id: int) -> BBox:
        cx, cy = self.trajectory.position(frame_id)
        w, h = self.size
        return BBox.from_center(cx, cy, w, h)


@dataclass(frozen=True)
class InteractionEvent:
    """A scripted interaction between two objects over a frame interval.

    ``kind`` is free-form text matched by interaction models, e.g.
    ``"get_into"``, ``"hit"``, ``"hold"``, ``"collide"``.
    """

    subject_id: int
    object_id: int
    kind: str
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        if self.end_frame < self.start_frame:
            raise ValueError("end_frame must be >= start_frame")

    def active_at(self, frame_id: int) -> bool:
        return self.start_frame <= frame_id <= self.end_frame


@shared_value
@dataclass(frozen=True)
class GTInstance:
    """The per-frame ground-truth record of one visible object.

    This is what simulated models observe (and corrupt) — it carries every
    attribute a real model could in principle recover from pixels.
    """

    object_id: int
    class_name: str
    bbox: BBox
    frame_id: int
    attributes: Mapping[str, Any]
    velocity: Tuple[float, float]
    action: Optional[str] = None
    #: interactions this object participates in on this frame, as
    #: (kind, other_object_id, is_subject) triples.
    interactions: Tuple[Tuple[str, int, bool], ...] = ()

    @property
    def speed(self) -> float:
        vx, vy = self.velocity
        return float((vx * vx + vy * vy) ** 0.5)

    def attribute(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def interacts(self, kind: str) -> bool:
        """True when this instance participates in an interaction of ``kind``."""
        return any(k == kind for k, _, _ in self.interactions)
