"""Base classes for simulated models and the model registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import ModelError
from repro.common.geometry import BBox
from repro.common.values import shared_value


@shared_value
@dataclass(frozen=True)
class Detection:
    """One detected object on one frame.

    ``gt_object_id`` links the detection back to the ground-truth entity it
    came from; it is how downstream *simulated* property models recover the
    truth they then perturb, and it is never consulted by the query systems
    themselves (they only see class/bbox/score/track ids).  False-positive
    detections carry ``gt_object_id=None``.
    """

    class_name: str
    bbox: BBox
    score: float
    frame_id: int
    gt_object_id: Optional[int] = None
    track_id: Optional[int] = None

    def with_track(self, track_id: int) -> "Detection":
        # Built directly: trackers relabel every detection of every frame,
        # and dataclasses.replace re-inspects the fields on each call.
        return Detection(self.class_name, self.bbox, self.score, self.frame_id, self.gt_object_id, track_id)


class SimulatedModel:
    """Common behaviour of all simulated models.

    Subclasses implement the actual oracle-with-noise logic; this base class
    owns the name, the cost profile, and cost charging.  A model may be used
    without a clock (e.g. in unit tests) — charging is then a no-op.
    """

    def __init__(self, name: str, cost_profile: CostProfile, seed: int = 0) -> None:
        self.name = name
        self.cost_profile = cost_profile
        self.seed = seed

    def charge(self, clock: Optional[SimClock], n_items: int = 1) -> float:
        """Charge one invocation processing ``n_items`` items."""
        if clock is None:
            return 0.0
        return clock.charge_profile(self.name, self.cost_profile, n_items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} cost={self.cost_profile}>"


class ModelRegistry:
    """Name → model-factory registry (the paper's ``vqpy.register`` §4.4).

    Users register custom models (specialized NNs, binary classifiers, frame
    filters) under a name, then refer to that name from ``VObj`` definitions.
    Built-in models are pre-registered by :mod:`repro.models.zoo`.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., SimulatedModel]] = {}
        self._metadata: Dict[str, Dict[str, Any]] = {}

    def register(self, name: str, factory: Callable[..., SimulatedModel], **metadata: Any) -> None:
        """Register ``factory`` under ``name``; re-registration overwrites."""
        if not callable(factory):
            raise ModelError(f"factory for {name!r} is not callable")
        self._factories[name] = factory
        self._metadata[name] = dict(metadata)

    def create(self, name: str, **kwargs: Any) -> SimulatedModel:
        if name not in self._factories:
            raise ModelError(f"no model registered under {name!r}; known: {sorted(self._factories)}")
        return self._factories[name](**kwargs)

    def metadata(self, name: str) -> Dict[str, Any]:
        if name not in self._metadata:
            raise ModelError(f"no model registered under {name!r}")
        return dict(self._metadata[name])

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._factories))

    def names(self) -> list[str]:
        return sorted(self._factories)
