"""Frame handles and video reading.

A :class:`SyntheticVideo` combines a :class:`~repro.common.config.VideoSpec`
with the scripted :class:`~repro.videosim.entities.ObjectSpec` population and
:class:`~repro.videosim.entities.InteractionEvent` list produced by a dataset
preset.

Rendering a frame's ground truth stands in for decoding it, and it is
deferred until something reads it.  :meth:`SyntheticVideo.frame` returns a
cheap :class:`Frame` handle: id, timestamp, size and scene attributes.  The
frame's :class:`~repro.videosim.entities.GTInstance` tuple is rendered the
first time a model reads ``instances`` (directly or through
``instances_of``, ``instance_by_id`` or ``num_objects``) and is cached on
the frame.  A frame no model reads, such as one the persistent index
answers or one a live session sheds, is never rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.config import VideoSpec
from repro.common.values import shared_value
from repro.videosim.entities import GTInstance, InteractionEvent, ObjectSpec

#: Minimum visible area (px^2) for an object to appear in a frame's ground truth.
MIN_VISIBLE_AREA = 16.0


@shared_value
@dataclass(frozen=True, eq=False)
class Frame:
    """A handle on one video frame; its ground truth is rendered on first read.

    ``instances`` is the one memo a shared value may fill after
    construction (see :mod:`repro.common.values`): a pure function of the
    frame id and the video's immutable script, so every copy and every
    thread sees equal tuples whether or not it is filled.  Equality, hash
    and repr never depend on it.  Two frames are equal when their headers
    are equal and they render the same ground truth.
    """

    frame_id: int
    timestamp: float
    width: int
    height: int
    video: "SyntheticVideo" = field(repr=False)
    scene_attributes: Mapping[str, object] = field(default_factory=dict)

    @property
    def instances(self) -> Tuple[GTInstance, ...]:
        memo = self.__dict__.get("_instances")
        if memo is None:
            # Two threads may both render; they store equal tuples.
            memo = self.__dict__["_instances"] = self.video._render(self.frame_id)
        return memo

    def instances_of(self, class_name: str) -> List[GTInstance]:
        return [inst for inst in self.instances if inst.class_name == class_name]

    def instance_by_id(self, object_id: int) -> Optional[GTInstance]:
        for inst in self.instances:
            if inst.object_id == object_id:
                return inst
        return None

    @property
    def num_objects(self) -> int:
        return len(self.instances)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            (self.frame_id, self.timestamp, self.width, self.height)
            == (other.frame_id, other.timestamp, other.width, other.height)
            and self.scene_attributes == other.scene_attributes
            and (self.video is other.video or self.instances == other.instances)
        )

    def __hash__(self) -> int:
        return hash((self.frame_id, self.timestamp, self.width, self.height))


class SyntheticVideo:
    """A scripted video: spec + object population + interaction events."""

    def __init__(
        self,
        spec: VideoSpec,
        objects: Sequence[ObjectSpec],
        events: Sequence[InteractionEvent] = (),
        scene_attributes: Optional[Mapping[str, object]] = None,
        seed: int = 0,
    ) -> None:
        ids = [o.object_id for o in objects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object ids in video")
        self.spec = spec
        self.objects: List[ObjectSpec] = list(objects)
        self.events: List[InteractionEvent] = list(events)
        self.scene_attributes: Dict[str, object] = dict(scene_attributes or {})
        self.seed = seed
        self._objects_by_id = {o.object_id: o for o in self.objects}
        # Index events by participant so per-frame lookup is cheap.
        self._events_by_object: Dict[int, List[InteractionEvent]] = {}
        for ev in self.events:
            self._events_by_object.setdefault(ev.subject_id, []).append(ev)
            self._events_by_object.setdefault(ev.object_id, []).append(ev)

    # -- basic info -------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return self.spec.num_frames

    @property
    def fps(self) -> int:
        return self.spec.fps

    def object_by_id(self, object_id: int) -> ObjectSpec:
        return self._objects_by_id[object_id]

    def __len__(self) -> int:
        return self.num_frames

    # -- frame handles and rendering -----------------------------------------
    def _interactions_for(self, object_id: int, frame_id: int) -> Tuple[Tuple[str, int, bool], ...]:
        out: List[Tuple[str, int, bool]] = []
        for ev in self._events_by_object.get(object_id, ()):
            if ev.active_at(frame_id):
                if ev.subject_id == object_id:
                    out.append((ev.kind, ev.object_id, True))
                else:
                    out.append((ev.kind, ev.subject_id, False))
        return tuple(out)

    def frame(self, frame_id: int) -> Frame:
        """A handle on one frame; its ground truth is rendered on first read."""
        if not 0 <= frame_id < self.num_frames:
            raise IndexError(f"frame {frame_id} out of range [0, {self.num_frames})")
        return Frame(
            frame_id=frame_id,
            timestamp=frame_id / self.fps,
            width=self.spec.width,
            height=self.spec.height,
            video=self,
            scene_attributes=self.scene_attributes,
        )

    def _render(self, frame_id: int) -> Tuple[GTInstance, ...]:
        """The ground truth of one frame: every scripted object visible in it."""
        instances: List[GTInstance] = []
        for obj in self.objects:
            if not obj.alive_at(frame_id):
                continue
            bbox = obj.bbox_at(frame_id).clipped(self.spec.width, self.spec.height)
            if bbox.area < MIN_VISIBLE_AREA:
                continue
            instances.append(
                GTInstance(
                    object_id=obj.object_id,
                    class_name=obj.class_name,
                    bbox=bbox,
                    frame_id=frame_id,
                    attributes=obj.attributes,
                    velocity=obj.trajectory.velocity(frame_id),
                    action=obj.action_at(frame_id),
                    interactions=self._interactions_for(obj.object_id, frame_id),
                )
            )
        return tuple(instances)

    def frames(self, start: int = 0, stop: Optional[int] = None) -> Iterator[Frame]:
        stop = self.num_frames if stop is None else min(stop, self.num_frames)
        for fid in range(start, stop):
            yield self.frame(fid)

    def canary(self, num_frames: int = 60) -> "SyntheticVideo":
        """A short prefix clip used by the planner for profiling (§4.3)."""
        duration = min(num_frames, self.num_frames) / self.fps
        return SyntheticVideo(
            self.spec.with_duration(duration),
            self.objects,
            self.events,
            self.scene_attributes,
            seed=self.seed,
        )

    # -- ground-truth queries (used to score accuracy) ----------------------
    def ground_truth_tracks(self, class_name: Optional[str] = None) -> List[ObjectSpec]:
        """All scripted objects, optionally restricted to one class."""
        if class_name is None:
            return list(self.objects)
        return [o for o in self.objects if o.class_name == class_name]


class VideoReader:
    """Iterates a video's frames, optionally in fixed-size batches.

    This is the source operator of every pipeline (paper §4.1).  Reading a
    frame charges a small decode cost to the clock when one is attached, so
    pipelines cannot be faster than the stream itself.  The reader yields
    frame handles; a frame's ground truth is rendered only when a model
    reads it.  The decode charge is per frame read either way, so virtual
    time does not depend on which frames get rendered.
    """

    #: Virtual decode cost per frame-megapixel.
    DECODE_MS_PER_MEGAPIXEL = 0.05

    def __init__(
        self,
        video: SyntheticVideo,
        batch_size: int = 1,
        clock=None,
        start: int = 0,
        frame_hook=None,
    ) -> None:
        """``start`` begins reading mid-video (scan checkpoint resume);
        ``frame_hook`` is an optional per-frame transform — the fault layer's
        injection point — that may replace the frame or drop it entirely by
        returning None (decode cost is charged either way: a dropped frame
        still crossed the wire).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if start < 0:
            raise ValueError("start must be >= 0")
        self.video = video
        self.batch_size = batch_size
        self.clock = clock
        self.start = start
        self.frame_hook = frame_hook

    def __iter__(self) -> Iterator[Frame]:
        for frame in self.video.frames(self.start):
            if self.clock is not None:
                self.clock.charge("video_reader", self.DECODE_MS_PER_MEGAPIXEL * self.video.spec.megapixels)
            if self.frame_hook is not None:
                frame = self.frame_hook(frame)
                if frame is None:
                    continue
            yield frame

    def batches(self) -> Iterator[List[Frame]]:
        batch: List[Frame] = []
        for frame in self:
            batch.append(frame)
            if len(batch) == self.batch_size:
                yield batch
                batch = []
        if batch:
            yield batch
