"""Frozen value objects that copies share instead of rebuilding.

A scan checkpoint deep-copies the scheduler and the context's caches.
Most of what that graph holds is immutable history: match records, events,
detections, boxes, and the frames and ground truth they came from.  A copy
of an object nothing can change is indistinguishable from the object
itself, so :func:`shared_value` makes ``copy.deepcopy`` return the
instance as is.  The checkpoint's cost then follows the scan's
mutable state, not everything the scan has emitted.

Only frozen dataclasses qualify.  A shared value must never be mutated and
must never gain a mutable field of its own: a snapshot and the live scan
would both see the change.  Mapping fields that point at video-owned data
(``GTInstance.attributes``, ``Frame.scene_attributes``) are read-only by
convention; the video is shared with every snapshot anyway.
"""

from __future__ import annotations

from typing import Any, Dict, TypeVar

T = TypeVar("T", bound=type)


def _deepcopy_as_self(self: Any, memo: Dict[int, Any]) -> Any:
    return self


def shared_value(cls: T) -> T:
    """Class decorator: instances of a frozen dataclass deep-copy as themselves."""
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"{cls.__name__} must be a frozen dataclass to be shared by copies")
    cls.__deepcopy__ = _deepcopy_as_self  # type: ignore[attr-defined]
    return cls
