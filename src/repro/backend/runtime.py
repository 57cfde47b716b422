"""Runtime object state: lazy, memoised property evaluation.

This module is where the paper's two object-level optimizations live:

* **Lazy evaluation** — a :class:`VObjState` computes a property only when an
  operator (filter/projector) actually asks for it, and caches it for the
  rest of the frame.  Because the planner orders filters cheapest-first,
  objects that fail an early predicate never pay for later properties
  (the §5.1 gain over CVIP).
* **Object-level computation reuse (§4.2)** — properties flagged intrinsic
  are cached on the object's :class:`TrackState`; once the lightweight
  tracker re-identifies the object on a later frame, the cached value is
  returned without invoking the property model at all (the additional ~10×
  of "VQPy with annotation").

The :class:`ExecutionContext` also provides cross-query sharing of detector,
tracker, and property-model results, which implements the paper's
query-level computation reuse.  Every model output except the tracker's
comes from one routine, :meth:`ExecutionContext.model_output`: it reads
the frame's memo, then the persistent index, and only then invokes the
model through the fault layer inside one ``model-invocation`` span, so
VObj types that ask one model about one detection share one call, and a
model that failed past retries on a frame is not invoked there again.
Reuse extends past model calls to whole operator pipelines and sinks:
leaves of a batch whose plans are structurally identical (:meth:`~repro.backend.plan.QueryPlan.structural_key`)
run the pipeline once per frame, and the scan scheduler hands the frame's
match records to the other leaves
(:meth:`~repro.backend.streaming.PlanStream.reuse_frame`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.errors import ExecutionError, TransientModelError
from repro.common.geometry import BBox
from repro.faults.resilience import NO_FAULTS
from repro.frontend.properties import PropertySpec
from repro.frontend.relation import Relation
from repro.frontend.vobj import Scene, VObj
from repro.index.schema import KIND_DETECTIONS, KIND_FILTER, KIND_INTERACTION, KIND_PROPERTY
from repro.index.store import NO_INDEX
from repro.models.base import Detection
from repro.models.framefilters import evaluate_frame_filter
from repro.models.zoo import ModelZoo
from repro.obs.core import DISABLED, Obs
from repro.videosim.video import Frame, SyntheticVideo

#: Virtual cost charged for evaluating a pure-Python property body.
PYTHON_PROPERTY_MS = 0.02


class TrackState:
    """Cross-frame state of one tracked object (per VObj type).

    Holds the sliding windows of property history that stateful properties
    consume, and the intrinsic-property cache used for computation reuse.
    """

    def __init__(self, vobj_type: type, track_id: int) -> None:
        self.vobj_type = vobj_type
        self.track_id = track_id
        self._history: Dict[str, deque] = {}
        self._history_frames: Dict[str, int] = {}
        self.intrinsic_values: Dict[str, Any] = {}
        #: Frame each cached intrinsic was computed on (its provenance —
        #: consumers can tell values backed by a real observation from ones
        #: computed over an interpolation-seeded detection).
        self.intrinsic_frames: Dict[str, int] = {}
        self.first_frame_id: Optional[int] = None
        self.last_frame_id: Optional[int] = None

    def observe_frame(self, frame_id: int) -> None:
        if self.first_frame_id is None:
            self.first_frame_id = frame_id
        self.last_frame_id = frame_id

    def record(self, prop: str, frame_id: int, value: Any, window: int) -> None:
        """Append ``value`` to the property's sliding window (once per frame)."""
        dq = self._history.get(prop)
        if dq is None or dq.maxlen != window:
            dq = deque(dq or (), maxlen=window)
            self._history[prop] = dq
        if self._history_frames.get(prop) == frame_id:
            dq[-1] = value
        else:
            dq.append(value)
            self._history_frames[prop] = frame_id
        self.observe_frame(frame_id)

    def history(self, prop: str) -> List[Any]:
        """The recorded window for ``prop`` (oldest first)."""
        return list(self._history.get(prop, ()))


class VObjState:
    """Per-frame lazy property accessor for one detected object."""

    def __init__(
        self,
        vobj_type: type,
        detection: Detection,
        frame: Frame,
        context: "ExecutionContext",
        track_state: Optional[TrackState] = None,
    ) -> None:
        self.vobj_type = vobj_type
        self.detection = detection
        self.frame = frame
        self.context = context
        self.track_state = track_state
        self._cache: Dict[str, Any] = {}

    # -- property resolution -------------------------------------------------
    def get(self, name: str) -> Any:
        if name in self._cache:
            return self._cache[name]
        value = self._resolve(name)
        self._cache[name] = value
        return value

    def _resolve(self, name: str) -> Any:
        builtin = self._builtin(name)
        if builtin is not _SENTINEL:
            return builtin
        spec = self.vobj_type.property_spec(name)
        if spec is None:
            raise ExecutionError(f"{self.vobj_type.__name__} has no property {name!r}")
        if spec.kind == "stateless":
            return self._resolve_stateless(spec)
        return self._resolve_stateful(spec)

    def _builtin(self, name: str) -> Any:
        det = self.detection
        if name == "bbox":
            return det.bbox
        if name == "score":
            return det.score
        if name == "class_name":
            return det.class_name
        if name == "track_id":
            return det.track_id
        if name == "frame_id":
            return det.frame_id
        if name == "frame_rate":
            return self.context.frame_rate
        if name == "image":
            # No pixels exist in the simulation; the detection itself stands
            # in for the crop that a property model would consume.
            return det
        if name == "center":
            return det.bbox.center
        if name == "bottom_center":
            return det.bbox.bottom_center
        return _SENTINEL

    def _resolve_stateless(self, spec: PropertySpec) -> Any:
        reusable = (
            spec.intrinsic
            and self.context.reuse_enabled
            and self.track_state is not None
        )
        if reusable and spec.name in self.track_state.intrinsic_values:
            self.context.count_reuse(spec.name)
            return self.track_state.intrinsic_values[spec.name]

        if spec.is_model_backed:
            value = self.context.model_output(
                KIND_PROPERTY, spec.model, self.frame, self.detection, _predict_property
            )
        else:
            inputs = [self.get(dep) for dep in spec.inputs]
            self.context.charge_python(spec.name)
            value = spec.func(self, *inputs)

        if reusable:
            self.track_state.intrinsic_values[spec.name] = value
            self.track_state.intrinsic_frames[spec.name] = self.frame.frame_id
        return value

    def _resolve_stateful(self, spec: PropertySpec) -> Any:
        if self.track_state is None:
            raise ExecutionError(
                f"stateful property {spec.name!r} needs tracking, but no track state is bound "
                f"(is a tracker operator missing from the plan?)"
            )
        histories: List[List[Any]] = []
        for dep in spec.inputs:
            current = self.get(dep)
            # history_len counts past frames; the window also holds the
            # current value so the function sees history_len + 1 entries.
            self.track_state.record(dep, self.frame.frame_id, current, spec.history_len + 1)
            histories.append(self.track_state.history(dep))
        self.context.charge_python(spec.name)
        if spec.is_model_backed:
            # The input is a window of past values, not one content-keyed
            # detection: no memo, no index, only the span and fault layer.
            args = histories[0] if len(histories) == 1 else histories
            return self.context.model_output(
                KIND_PROPERTY,
                spec.model,
                self.frame,
                None,
                lambda model, frame, key, clock: model.predict(args, clock=clock),
            )
        args = histories[0] if len(histories) == 1 else histories
        return spec.func(self, args) if len(histories) == 1 else spec.func(self, *histories)


class SceneState:
    """Per-frame lazy, memoised property accessor for the Scene VObj.

    Scene instances are cached per (scene type, frame) on the execution
    context, so scene properties are computed (and charged to the clock)
    once per frame rather than once per enumerated binding.
    """

    def __init__(self, scene_type: type, frame: Frame, context: "ExecutionContext") -> None:
        self.scene_type = scene_type
        self.frame = frame
        self.context = context
        self._cache: Dict[str, Any] = {}

    def get(self, name: str) -> Any:
        if name in self._cache:
            return self._cache[name]
        value = self._resolve(name)
        self._cache[name] = value
        return value

    def _resolve(self, name: str) -> Any:
        frame = self.frame
        if name == "frame_id":
            return frame.frame_id
        if name == "bbox":
            return BBox(0, 0, frame.width, frame.height)
        if name == "num_objects":
            return frame.num_objects
        if name in ("time_of_day", "weather", "location"):
            return frame.scene_attributes.get(name)
        if name in ("score", "track_id"):
            return 1.0 if name == "score" else 0
        spec = self.scene_type.property_spec(name)
        if spec is not None and spec.func is not None:
            inputs = [self.get(dep) for dep in spec.inputs]
            self.context.charge_python(name)
            return spec.func(self, *inputs)
        return frame.scene_attributes.get(name)


class RelationState:
    """Lazy property accessor for one (subject, object) relation instance."""

    def __init__(
        self,
        relation_type: type,
        subject: VObjState,
        object_: VObjState,
        frame: Frame,
        context: "ExecutionContext",
    ) -> None:
        self.relation_type = relation_type
        self.subject = subject
        self.object = object_
        self.frame = frame
        self.context = context
        self._cache: Dict[str, Any] = {}

    def __getattr__(self, name: str) -> Any:
        # A relation body runs with this state as ``self``; its other
        # attribute reads (``self.threshold``) resolve on the declared
        # relation class, so a subclass's override is honoured.
        relation_type = self.__dict__.get("relation_type")
        if relation_type is None or name.startswith("__"):
            raise AttributeError(name)
        return getattr(relation_type, name)

    def get(self, name: str) -> Any:
        if name in self._cache:
            return self._cache[name]
        value = self._resolve(name)
        self._cache[name] = value
        return value

    def _resolve(self, name: str) -> Any:
        s_bbox: BBox = self.subject.get("bbox")
        o_bbox: BBox = self.object.get("bbox")
        if name == "distance":
            return s_bbox.center_distance(o_bbox)
        if name == "edge_distance":
            return s_bbox.edge_distance(o_bbox)
        if name == "iou":
            return s_bbox.iou(o_bbox)
        if name == "frame_id":
            return self.frame.frame_id
        if name == "subject_bbox":
            return s_bbox
        if name == "object_bbox":
            return o_bbox
        spec = self.relation_type.property_spec(name)
        if spec is None:
            raise ExecutionError(f"{self.relation_type.__name__} has no relation property {name!r}")
        if spec.is_model_backed:
            return self._model_backed(spec)
        inputs = [self.get(dep) for dep in spec.inputs]
        self.context.charge_python(name)
        return spec.func(self, *inputs)

    def _model_backed(self, spec: PropertySpec) -> Any:
        predictions = self.context.interactions(
            spec.model, self.subject.detection, self.object.detection, self.frame
        )
        allowed = getattr(self.relation_type, "interaction_kinds", None)
        for kind in predictions:
            if allowed is None or kind in allowed:
                return kind
        return None


class _Sentinel:
    pass


_SENTINEL = _Sentinel()

#: Kinds keyed by a detection's content, which a seeded frame synthesized.
_DETECTION_KEYED = frozenset((KIND_PROPERTY, KIND_INTERACTION))

#: A live model call for :meth:`ExecutionContext.model_output`:
#: ``compute(model, frame, key, clock)``.  The callers pass module-level
#: functions, so a memo or index hit builds no closure.
Compute = Callable[[Any, Frame, Any, SimClock], Any]


def _detect(model: Any, frame: Frame, key: int, clock: SimClock) -> List[Detection]:
    return model.detect(frame, clock)


def _evaluate_filter(model: Any, frame: Frame, key: int, clock: SimClock) -> bool:
    return evaluate_frame_filter(model, frame, clock)


def _predict_property(model: Any, frame: Frame, detection: Detection, clock: SimClock) -> Any:
    return model.predict(detection, frame, clock)


def _predict_interaction(
    model: Any, frame: Frame, pair: Tuple[Detection, Detection], clock: SimClock
) -> Tuple[str, ...]:
    subject, object_ = pair
    return tuple(p.kind for p in model.predict([subject], [object_], frame, clock))


@dataclass
class ReuseStats:
    """Counters describing how much work object-level reuse avoided."""

    property_hits: Dict[str, int] = field(default_factory=dict)

    def count(self, prop: str) -> None:
        self.property_hits[prop] = self.property_hits.get(prop, 0) + 1

    @property
    def total_hits(self) -> int:
        return sum(self.property_hits.values())


class ExecutionContext:
    """Shared execution state for one video (possibly across several queries).

    Memoises detector, frame-filter failure, property-model and
    interaction-model outputs per frame (:meth:`model_output`) and tracker
    output per (tracker, detector) pair, so that (a) two query variables or
    VObj types backed by the same model pay for it once per input, and (b)
    several queries executed against the same context share all of that
    work — the paper's query-level computation reuse.
    """

    def __init__(
        self,
        video: SyntheticVideo,
        zoo: ModelZoo,
        clock: Optional[SimClock] = None,
        reuse_enabled: bool = True,
    ) -> None:
        self.video = video
        self.zoo = zoo
        self.clock = clock if clock is not None else SimClock()
        self.reuse_enabled = reuse_enabled
        self.frame_rate = video.fps
        self.reuse_stats = ReuseStats()
        #: Filled by the executor with the scan scheduler's ScanStats for
        #: the most recent scan over this context (frames gated, streams
        #: retired, early-exit frame); None before any scan ran.
        self.scan_stats: Optional[Any] = None
        #: Observability bundle (:class:`repro.obs.Obs`) set by the executor;
        #: the shared disabled bundle unless tracing is on.
        self.obs: Obs = DISABLED
        #: Fault layer every model invocation runs through: the scan's
        #: :class:`repro.faults.FaultManager` when fault tolerance is on
        #: (its ``TransientModelError`` becomes frame degradation), else the
        #: shared inert :data:`repro.faults.NO_FAULTS`, which just calls.
        self.faults: Any = NO_FAULTS
        #: Persistent-index view: an :class:`repro.index.store.IndexView`
        #: set by the session when the video index is on, else the shared
        #: inert :data:`repro.index.store.NO_INDEX`, whose lookups miss.
        self.index: Any = NO_INDEX

        #: Last *real* (tracker-observed) detection per track id, plus the
        #: frame each track was first seen on.  These survive frame-cache
        #: eviction so cross-camera re-identification can embed a track long
        #: after its frames were released; interpolation-seeded frames never
        #: pass through the tracker, so they can never land here.
        self._track_sources: Dict[int, Detection] = {}
        self._track_first_seen: Dict[int, int] = {}
        #: (tracker, detector, tracker-local id) -> batch-global track id.
        #: Each pair's tracker numbers its tracks from 1, so a batch running
        #: several pairs would otherwise reuse one id for different physical
        #: objects.  Globals are allocated sequentially from 1 in first-seen
        #: order: with a single pair the mapping is the identity (trackers
        #: also number 1, 2, ... in first-seen order), so single-plan results
        #: are byte-identical to the pre-namespacing engine.  The keys are
        #: also the attribution record of every global id (:meth:`track_pair`).
        self._track_id_map: Dict[Tuple[str, str, int], int] = {}
        self._next_global_track_id: int = 1
        #: (tracker, detector) -> the next frame id that keeps the pair's
        #: tracker input one contiguous run from frame 0, or None once the
        #: pair skipped a frame.  While it is not None the pair's output is
        #: exactly what a tracker fed every frame from 0 returns, so live
        #: output is written through to the index's ``track_ids`` table,
        #: and a pair without a live tracker (``_trackers``) is served
        #: from that table: the replay cursor.
        self._track_cursor: Dict[Tuple[str, str], Optional[int]] = {}
        #: Frame ids whose detector/tracker caches were interpolation-seeded
        #: by the stride sampler (never detector-observed).
        self.seeded_frames: set = set()

        # Per-frame caches are indexed by frame id first, so releasing a
        # frame pops one bucket in O(1) instead of rebuilding whole dicts.
        #: frame id -> {(model, content key) -> output, or the
        #: TransientModelError it failed with past retries}: the memo of
        #: :meth:`model_output`, which :meth:`seed_frame` also fills.
        self._memo: Dict[int, Dict[Tuple[str, Any], Any]] = {}
        self._tracked: Dict[int, Dict[Tuple[str, str], List[Detection]]] = {}
        self._trackers: Dict[Tuple[str, str], Any] = {}
        self._models: Dict[str, Any] = {}
        self._track_states: Dict[Tuple[type, int], TrackState] = {}
        self._vobj_states: Dict[int, Dict[Tuple[type, Detection], VObjState]] = {}
        self._scene_states: Dict[int, Dict[type, SceneState]] = {}

    # -- model access -----------------------------------------------------------
    def model(self, name: str) -> Any:
        if name not in self._models:
            self._models[name] = self.zoo.get(name, fresh=True)
        return self._models[name]

    def frame_filter(self, model_name: str, frame: Frame) -> Tuple[bool, bool]:
        """One frame-filter verdict: ``(keep, served_from_index)``.

        The scan gate and the in-pipeline ``FrameFilterOp`` both call this,
        so gating never decides whether a filter sees faults or the index.
        Verdicts are not memoised, so a verdict that made no live call was
        an index hit.
        """
        hits = self.index.counters["hits"]
        keep = self.model_output(KIND_FILTER, model_name, frame, frame.frame_id, _evaluate_filter)
        return keep, self.index.counters["hits"] != hits

    def charge_python(self, prop_name: str) -> None:
        self.clock.charge(f"python:{prop_name}", PYTHON_PROPERTY_MS)

    def count_reuse(self, prop_name: str) -> None:
        self.reuse_stats.count(prop_name)

    # -- the one model-call path ----------------------------------------------------
    def model_output(
        self, kind: str, model_name: str, frame: Frame, key: Any, compute: Compute
    ) -> Any:
        """One model output on ``frame``, read through the memo and the index.

        ``kind`` is the output's index kind (:mod:`repro.index.schema`) and
        ``key`` its content key on the frame: the frame id for detections
        and filter verdicts, the detection for a property, the (subject,
        object) pair for an interaction.  In order:

        1. the frame's memo, keyed by ``(model_name, key)``, returns the
           stored value or re-raises the stored past-retries failure, so a
           re-run of the frame never invokes a failed model again;
        2. else the index serves the value;
        3. else ``compute(model, frame, key, clock)`` runs through the fault
           layer inside one ``model-invocation`` span;
        4. the live value is written through to the index (the view keeps
           only values it reads back exactly; a failed call records
           nothing) and memoised.

        On a seeded frame a property's or interaction's detections were
        synthesized by the stride sampler, so their outputs neither read
        nor write the index, and no detector output is written; a filter
        verdict is read and written on any frame.  Filter verdicts are not
        memoised: the gate memoises them per frame, and an ungated leaf
        pays for its own filter.  ``key=None`` (a stateful property, whose
        input is a window of past values) gets the span and the fault
        layer only.  A hit allocates nothing but the memo entry's key.
        """
        frame_id = frame.frame_id
        if key is None:
            return self._invoke(kind, model_name, frame, key, compute)
        memo = self._memo.get(frame_id)
        if memo is None:
            memo = self._memo[frame_id] = {}
        entry = (model_name, key)
        value = memo.get(entry, _SENTINEL)
        if value is not _SENTINEL:
            if isinstance(value, TransientModelError):
                raise value
            return value
        seeded = frame_id in self.seeded_frames
        if not (seeded and kind in _DETECTION_KEYED):
            hit, value = self.index.lookup(kind, model_name, key, frame_id)
            if hit:
                if kind != KIND_FILTER:
                    memo[entry] = value
                return value
        try:
            value = self._invoke(kind, model_name, frame, key, compute)
        except TransientModelError as exc:
            memo[entry] = exc
            raise
        if kind == KIND_FILTER:
            self.index.record(kind, model_name, key, value, frame_id)
            return value
        if not seeded:
            self.index.record(kind, model_name, key, value, frame_id)
        memo[entry] = value
        return value

    def _invoke(self, kind: str, model_name: str, frame: Frame, key: Any, compute: Compute) -> Any:
        """``compute`` through the fault layer, inside one span."""
        with self.obs.tracer.span(
            "model-invocation", clock=self.clock, model=model_name, frame=frame.frame_id, kind=kind
        ):
            return self.faults.invoke(
                model_name,
                frame.frame_id,
                lambda: compute(self.model(model_name), frame, key, self.clock),
            )

    def detect(self, model_name: str, frame: Frame) -> List[Detection]:
        return self.model_output(KIND_DETECTIONS, model_name, frame, frame.frame_id, _detect)

    def _global_track_id(self, pair: Tuple[str, str], local_id: int) -> int:
        """Map a tracker-local track id to its batch-global identity.

        Allocated sequentially in first-seen order per ``(tracker, detector)``
        pair, so ids from different pairs can never collide (the former
        silent exclusion from cross-camera linking) and every persisted or
        linked id is attributable to exactly one pair.
        """
        key = (pair[0], pair[1], local_id)
        gid = self._track_id_map.get(key)
        if gid is None:
            gid = self._next_global_track_id
            self._next_global_track_id += 1
            self._track_id_map[key] = gid
        return gid

    def _namespace_tracks(self, pair: Tuple[str, str], detections: Sequence[Detection]) -> List[Detection]:
        """Rewrite tracker-local ids on ``detections`` to batch-global ones."""
        return [
            det if det.track_id is None else det.with_track(self._global_track_id(pair, det.track_id))
            for det in detections
        ]

    def track(self, tracker_name: str, detector_name: str, frame: Frame, detections: Sequence[Detection]) -> List[Detection]:
        per_frame = self._tracked.setdefault(frame.frame_id, {})
        key = (tracker_name, detector_name)
        if key not in per_frame:
            frame_id = frame.frame_id
            cursor = self._track_cursor.get(key, 0)
            contiguous = cursor == frame_id
            served: Optional[List[Detection]] = None
            if key not in self._trackers:
                if contiguous:
                    served = self._replay_frame(key, frame_id, detections)
                if served is None:
                    self._rebuild_tracker(key, frame_id, "table-miss" if contiguous else "frame-gap")
            if served is None:
                with self.obs.tracer.span(
                    "model-invocation",
                    clock=self.clock,
                    model=tracker_name,
                    frame=frame_id,
                    kind="tracker",
                ):
                    tracked = self._trackers[key].update(list(detections), self.clock)
                if contiguous:
                    self.index.record_track_ids(tracker_name, detector_name, frame_id, tracked)
                # The tracker numbers tracks locally from 1; everything past
                # this point (results, signatures, re-id, the persistent
                # index) sees only the namespaced global ids.
                served = self._namespace_tracks(key, tracked)
            self._track_cursor[key] = frame_id + 1 if contiguous else None
            per_frame[key] = served
            for det in per_frame[key]:
                if det.track_id is not None:
                    self._track_first_seen.setdefault(det.track_id, frame.frame_id)
                    self._track_sources[det.track_id] = det
        return per_frame[key]

    def _replay_frame(
        self, key: Tuple[str, str], frame_id: int, detections: Sequence[Detection]
    ) -> Optional[List[Detection]]:
        """The pair's indexed tracker output on the frame, or None.

        None when the index has no ids for the frame or their count does
        not match the frame's detections.  A served frame creates no
        tracker and charges no clock time.  The stored ids are
        tracker-local; each is mapped to its global id first, so every
        served detection is built once, already namespaced.
        """
        ids = self.index.lookup_track_ids(key[0], key[1], frame_id, len(detections))
        if ids is None:
            return None
        global_id = self._global_track_id
        return [
            det.with_track(None if tid is None else global_id(key, tid))
            for det, tid in zip(detections, ids)
        ]

    def _rebuild_tracker(self, key: Tuple[str, str], frame_id: int, reason: str) -> Any:
        """Create the pair's live tracker, fed every frame served so far.

        The served frames are the contiguous run ``0 .. cursor - 1``; their
        indexed detections go through the new tracker in order, charged as
        live tracker calls, so its Kalman state is the one a tracker that
        ran on every one of them would hold.  Without served frames this
        just creates the tracker.
        """
        tracker = self.zoo.get(key[0], fresh=True)
        self._trackers[key] = tracker
        replayed = self._track_cursor.get(key) or 0
        if not replayed:
            return tracker
        for fid in range(replayed):
            detections = self.index.replay_detections(key[1], fid)
            if detections is None:
                raise ExecutionError(
                    f"index lost the {key[1]!r} detections of replayed frame {fid}"
                )
            tracker.update(detections, self.clock)
        self.obs.decisions.record(
            "index-replay-rebuild", reason, model=key[0], frame_id=frame_id, replayed=replayed
        )
        return tracker

    def peek_tracker(self, tracker_name: str, detector_name: str) -> Optional[Any]:
        """The live tracker instance for the pair, or None if it never ran.

        Used by the scan scheduler's stride sampler and fault extrapolation
        to read the tracker's active tracks without instantiating (and thus
        resetting) a tracker that no pipeline has touched yet.  A pair whose
        frames so far were served from the index has no Kalman state to
        read: the first peek rebuilds its live tracker.
        """
        key = (tracker_name, detector_name)
        tracker = self._trackers.get(key)
        if tracker is None and self._track_cursor.get(key):
            tracker = self._rebuild_tracker(key, self._track_cursor[key], "tracker-state-read")
        return tracker

    def seed_frame(
        self,
        frame_id: int,
        detector_name: str,
        tracker_key: Tuple[str, str],
        detections: Sequence[Detection],
    ) -> None:
        """Pre-populate a frame's detector/tracker caches with synthesized results.

        The stride sampler fills skipped frames with track-interpolated
        detections; seeding them here lets the ordinary operator pipelines
        run over the frame without invoking the detector or advancing the
        tracker.  Existing (real) cached results are never overwritten, so a
        stream that did run models on the frame always wins.
        """
        # Seeds are built from tracker internals (``Track.last_detection``),
        # which carry tracker-local ids — namespace them so seeded frames
        # agree with the global ids the tracked pipeline emits.
        seeded = self._namespace_tracks(tracker_key, detections)
        memo = self._memo.setdefault(frame_id, {})
        entry = (detector_name, frame_id)
        cached = memo.get(entry)
        if cached is None or isinstance(cached, TransientModelError):
            # A detector that failed on the frame left no result to keep.
            memo[entry] = seeded
        tracked = self._tracked.setdefault(frame_id, {})
        tracked.setdefault(tracker_key, list(seeded))
        self.seeded_frames.add(frame_id)

    def interactions(self, model_name: str, subject: Detection, object_: Detection, frame: Frame) -> Tuple[str, ...]:
        return self.model_output(
            KIND_INTERACTION, model_name, frame, (subject, object_), _predict_interaction
        )

    # -- cross-camera re-identification support ------------------------------------
    def track_sources(self) -> Dict[int, Detection]:
        """Last real tracked detection per track id, across the whole scan.

        Only tracker-observed detections land here — frames filled by stride
        interpolation are seeded past the tracker and therefore cannot
        contribute a source (re-id must never embed a synthesized crop).
        Track ids are batch-global (see :meth:`_global_track_id`), so each
        id belongs to exactly one (tracker, detector) pair.
        """
        return dict(self._track_sources)

    def track_pair(self, track_id: int) -> Optional[Tuple[str, str]]:
        """The (tracker, detector) pair that emitted a global track id.

        This is the attribution record the persistent index stores with
        every track, so indexed identities can be replayed against the
        right pipeline.  None for unknown ids.
        """
        for (tracker_name, detector_name, _local), gid in self._track_id_map.items():
            if gid == track_id:
                return tracker_name, detector_name
        return None

    def track_first_seen(self, track_id: int) -> Optional[int]:
        """Frame id a track was first observed on (None for unknown tracks)."""
        return self._track_first_seen.get(track_id)

    def intrinsic_track_values(
        self, prop_name: str, exclude_frames: Optional[set] = None
    ) -> Dict[int, Any]:
        """Cached intrinsic values of ``prop_name``, keyed by track id.

        This is the object-level reuse cache (§4.2) read sideways: when a
        query already computed a track's re-id embedding, cross-camera
        linking reuses the cached value instead of invoking the embedding
        model again.  ``exclude_frames`` drops values whose recorded
        computation frame is in the set — linking passes the interpolation-
        seeded frames here, since a value computed over a synthesized
        detection is not a real observation.  If several VObj types cached
        the property for the same track id, the first one (iteration order)
        wins.
        """
        out: Dict[int, Any] = {}
        for (_vobj_type, track_id), state in self._track_states.items():
            if prop_name in state.intrinsic_values and track_id not in out:
                if exclude_frames and state.intrinsic_frames.get(prop_name) in exclude_frames:
                    continue
                out[track_id] = state.intrinsic_values[prop_name]
        return out

    # -- state management --------------------------------------------------------------
    def track_state(self, vobj_type: type, track_id: Optional[int]) -> Optional[TrackState]:
        if track_id is None:
            return None
        key = (vobj_type, track_id)
        if key not in self._track_states:
            self._track_states[key] = TrackState(vobj_type, track_id)
        return self._track_states[key]

    def vobj_state(self, vobj_type: type, detection: Detection, frame: Frame) -> VObjState:
        per_frame = self._vobj_states.setdefault(frame.frame_id, {})
        key = (vobj_type, detection)
        state = per_frame.get(key)
        if state is None:
            state = VObjState(
                vobj_type,
                detection,
                frame,
                self,
                track_state=self.track_state(vobj_type, detection.track_id),
            )
            per_frame[key] = state
        return state

    def scene_state(self, scene_type: type, frame: Frame) -> SceneState:
        per_frame = self._scene_states.setdefault(frame.frame_id, {})
        state = per_frame.get(scene_type)
        if state is None:
            state = SceneState(scene_type, frame, self)
            per_frame[scene_type] = state
        return state

    def relation_state(self, relation_type: type, subject: VObjState, object_: VObjState, frame: Frame) -> RelationState:
        return RelationState(relation_type, subject, object_, frame, self)

    # -- scan checkpointing -------------------------------------------------------------
    #: The mutable per-scan state a checkpoint must capture.  Everything
    #: else on the context is either configuration (video, zoo, flags) or
    #: restored separately (the clock) / deliberately persistent (obs,
    #: faults).
    _CHECKPOINT_ATTRS: Tuple[str, ...] = (
        "reuse_stats",
        "seeded_frames",
        "_track_sources",
        "_track_first_seen",
        "_track_id_map",
        "_next_global_track_id",
        "_track_cursor",
        "_memo",
        "_tracked",
        "_trackers",
        "_models",
        "_track_states",
        "_vobj_states",
        "_scene_states",
    )

    def checkpoint_state(self) -> Dict[str, Any]:
        """Live references to the mutable per-scan state (no copies).

        The :class:`~repro.faults.checkpoint.ScanCheckpointer` deep-copies
        this dict together with the scheduler in one pass, so objects shared
        between the two (trackers, track states) stay shared in the snapshot.
        """
        return {name: getattr(self, name) for name in self._CHECKPOINT_ATTRS}

    def restore_checkpoint_state(self, state: Dict[str, Any]) -> None:
        """Install a checkpointed state *in place*, preserving identity.

        ``state`` must be a private copy (the checkpointer re-copies its
        snapshot on every restore); references to this context held by
        sessions, VObj states, or readers all stay valid.
        """
        for name in self._CHECKPOINT_ATTRS:
            setattr(self, name, state[name])

    # -- housekeeping -------------------------------------------------------------------
    def release_frame(self, frame_id: int) -> None:
        """Drop the frame's caches in O(evicted entries), not O(cache size)."""
        self._memo.pop(frame_id, None)
        self._tracked.pop(frame_id, None)
        self._vobj_states.pop(frame_id, None)
        self._scene_states.pop(frame_id, None)
