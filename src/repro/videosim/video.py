"""Frame materialisation and video reading.

A :class:`SyntheticVideo` combines a :class:`~repro.common.config.VideoSpec`
with the scripted :class:`~repro.videosim.entities.ObjectSpec` population and
:class:`~repro.videosim.entities.InteractionEvent` list produced by a dataset
preset.  Frames are materialised on demand; each frame carries the ground
truth that the simulated models observe.
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
@dataclass(frozen=True)
class Frame:
    """One video frame's ground truth."""

    frame_id: int
    timestamp: float
    width: int
    height: int
    instances: Tuple[GTInstance, ...]
    scene_attributes: Mapping[str, object] = field(default_factory=dict)

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

    # -- frame materialisation ---------------------------------------------
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
        """Materialise the ground truth of one frame."""
        if not 0 <= frame_id < self.num_frames:
            raise IndexError(f"frame {frame_id} out of range [0, {self.num_frames})")
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
        return Frame(
            frame_id=frame_id,
            timestamp=frame_id / self.fps,
            width=self.spec.width,
            height=self.spec.height,
            instances=tuple(instances),
            scene_attributes=self.scene_attributes,
        )

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
    pipelines cannot be faster than the stream itself.
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
