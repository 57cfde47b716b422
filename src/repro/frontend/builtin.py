"""Built-in VObjs and Relations (the VQPy library, paper §2 "Library").

These are the reusable building blocks the paper ships: common video object
types (vehicles, people, balls, bags) wired to the model zoo, plus common
relations.  Applications extend them through inheritance — e.g. a ``RedCar``
VObj that registers a specialized detector and a binary classifier, which
the planner may then exploit (§4.4).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.frontend.properties import stateful, stateless, vobj_filter
from repro.frontend.relation import Relation
from repro.frontend.vobj import Scene, VObj


def _centers_to_direction(centers: Sequence[Tuple[float, float]]) -> str:
    """Coarse direction label from a short history of box centres."""
    if len(centers) < 2:
        return "unknown"
    deltas = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(centers, centers[1:])]
    speeds = [math.hypot(dx, dy) for dx, dy in deltas]
    if sum(speeds) / len(speeds) < 0.5:
        return "stopped"
    headings = [math.degrees(math.atan2(dy, dx)) for dx, dy in deltas if (dx, dy) != (0.0, 0.0)]
    if not headings:
        return "stopped"
    turn = headings[-1] - headings[0]
    while turn <= -180.0:
        turn += 360.0
    while turn > 180.0:
        turn -= 360.0
    if abs(turn) < 15.0:
        return "go_straight"
    return "turn_right" if turn > 0 else "turn_left"


def get_velocity(prev_bbox, cur_bbox) -> float:
    """Pixels/frame speed from two consecutive boxes (the paper's UDF)."""
    (x0, y0) = prev_bbox.center
    (x1, y1) = cur_bbox.center
    return math.hypot(x1 - x0, y1 - y0)


class Vehicle(VObj):
    """Generic vehicle VObj (Figure 2), detected by the general detector."""

    model = "yolox"
    class_names = ("car", "bus", "truck")

    @stateless(inputs=("bbox",))
    def center(self, bbox):
        return bbox.center

    @stateless(model="color_detect", intrinsic=True)
    def color(self, image):
        ...

    @stateless(model="type_detect", intrinsic=True)
    def vehicle_type(self, image):
        ...

    @stateless(model="license_plate", intrinsic=True)
    def license_plate(self, image):
        ...

    @stateful(inputs=("center",), history_len=5)
    def direction(self, centers):
        return _centers_to_direction(centers)

    @stateful(inputs=("bbox",), history_len=2)
    def speed(self, bboxes):
        if len(bboxes) < 2:
            return 0.0
        return get_velocity(bboxes[-2], bboxes[-1])


class Car(Vehicle):
    """A car (the most common vehicle VObj in the paper's queries)."""

    class_names = ("car",)


class Bus(Vehicle):
    class_names = ("bus",)


class Truck(Vehicle):
    class_names = ("truck",)


class RedCar(Car):
    """A red car, with the §4.4 optimizations registered.

    The planner may answer RedCar queries either with the parent ``Car``
    detector plus a colour filter, or directly with the registered
    specialized detector — whichever profiles better on the canary clip.
    """

    specialized_models = ("red_car_detector",)

    @vobj_filter(model="no_red_on_road")
    def no_red_on_road(self, frame):
        ...


class Person(VObj):
    """A person VObj with action, appearance, and re-identification features."""

    model = "yolox"
    class_names = ("person",)

    @stateless(inputs=("bbox",))
    def center(self, bbox):
        return bbox.center

    @stateless(model="action_recognition")
    def action(self, image):
        ...

    @stateless(model="reid_feature", intrinsic=True)
    def feature_vector(self, image):
        ...

    @stateful(inputs=("bbox",), history_len=2)
    def speed(self, bboxes):
        if len(bboxes) < 2:
            return 0.0
        return get_velocity(bboxes[-2], bboxes[-1])


class Ball(VObj):
    model = "yolox"
    class_names = ("ball",)


class Bag(VObj):
    model = "yolox"
    class_names = ("bag",)


class TrafficScene(Scene):
    """Scene VObj used by traffic queries; carries frame-level attributes."""


# ---------------------------------------------------------------------------
# Built-in relations
# ---------------------------------------------------------------------------


class CloseTo(Relation):
    """Spatial relation: the two objects' centres are within a threshold.

    Mirrors Figure 3 — the property is computed with plain Python from the
    endpoints' boxes.
    """

    threshold: float = 100.0

    @stateless(inputs=("distance",))
    def is_close(self, distance):
        return distance < self.threshold


class PersonBallInteraction(Relation):
    """Human-object interaction relation built on the "UPT" model (Figure 4)."""

    model = "upt"
    interaction_kinds: Tuple[str, ...] = ("hit", "hold")

    @stateless(model="upt")
    def interaction(self, subject_image, object_image):
        ...


class GetsInto(Relation):
    """A person getting into a vehicle, built on the interaction model."""

    model = "upt"
    interaction_kinds: Tuple[str, ...] = ("get_into",)

    @stateless(model="upt")
    def interaction(self, subject_image, object_image):
        ...
