"""Per-layer wall-clock ledger, timed from outside the engine.

Imported only by a traced run.  :func:`install` replaces each target
method on its class with a wrapper that records a span (or, for calls made
many times per frame, only a count) into a :class:`Recorder`;
:func:`uninstall` puts the originals back, so untraced reps in the same
process run the unmodified engine.

Spans keep a parent stack per thread, so a layer's *self* time is its
duration minus the spans it called on the same thread.  Everything under
``Planner.plan`` (canary profiling) is charged to the planner alone, so the
per-frame layer numbers describe the scan.  Spans of the first traced rep
are kept for a Chrome trace (``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend.live import LiveSession
from repro.backend.operators import Operator
from repro.backend.planner import Planner
from repro.backend.runtime import ExecutionContext
from repro.backend.scheduler import FrameGate, ScanScheduler
from repro.backend.session import MultiCameraSession, QuerySession
from repro.backend.streaming import DurationStream, PlanStream, TemporalStream
from repro.faults.checkpoint import ScanCheckpointer
from repro.faults.resilience import FaultManager
from repro.index.store import IndexView, VideoIndexStore
from repro.models.detector import BinaryClassifier, GeneralObjectDetector
from repro.models.framefilters import MotionFrameFilter, TextureFrameFilter
from repro.models.kalman import KalmanBoxFilter
from repro.models.properties import FeatureVectorModel, PropertyModel
from repro.models.tracker import KalmanTracker
from repro.videosim.livefeed import LiveFeed
from repro.videosim.video import SyntheticVideo
from workloads import percentile

TIME, COUNT, PLAN = "time", "count", "plan"

#: (span name, class, method, mode).  A name ending in "." is completed
#: with the instance's class name (one span name per operator kind).
TARGETS: Tuple[Tuple[str, type, str, str], ...] = (
    ("videosim.render", SyntheticVideo, "frame", TIME),
    ("videosim.feed_poll", LiveFeed, "poll", TIME),
    ("models.detector", GeneralObjectDetector, "detect", TIME),
    ("models.framefilter", BinaryClassifier, "predict", TIME),
    ("models.framefilter", MotionFrameFilter, "keep", TIME),
    ("models.framefilter", TextureFrameFilter, "keep", TIME),
    ("models.property", PropertyModel, "predict", TIME),
    ("models.property", FeatureVectorModel, "predict", TIME),
    ("models.property", FeatureVectorModel, "predict_batch", TIME),
    ("models.tracker", KalmanTracker, "update", TIME),
    ("models.kalman", KalmanBoxFilter, "predict", COUNT),
    ("models.kalman", KalmanBoxFilter, "update", COUNT),
    ("operators.", Operator, "run", TIME),
    ("streaming.sink", PlanStream, "process_frame", TIME),
    ("streaming.observe", PlanStream, "observe_frame", TIME),
    ("streaming.observe", DurationStream, "observe_frame", TIME),
    ("streaming.observe", TemporalStream, "observe_frame", TIME),
    ("runtime.detect", ExecutionContext, "detect", TIME),
    ("runtime.track", ExecutionContext, "track", TIME),
    ("runtime.vobj_state", ExecutionContext, "vobj_state", COUNT),
    ("scheduler.step", ScanScheduler, "step", TIME),
    ("scheduler.gate", FrameGate, "admits", TIME),
    ("planner.plan", Planner, "plan", PLAN),
    ("session.feed", QuerySession, "execute_many", TIME),
    ("session.multi", MultiCameraSession, "execute_many", TIME),
    ("crosscamera.link", MultiCameraSession, "link_tracks", TIME),
    ("live.ingest", LiveSession, "run", TIME),
    ("faults.invoke", FaultManager, "invoke", TIME),
    ("faults.checkpoint", ScanCheckpointer, "maybe_capture", TIME),
    ("faults.checkpoint", ScanCheckpointer, "restore", TIME),
    ("index.load", VideoIndexStore, "__init__", TIME),
    ("index.save", VideoIndexStore, "save", TIME),
    ("index.lookup", IndexView, "lookup_detections", TIME),
    ("index.lookup", IndexView, "lookup_filter_verdict", TIME),
    ("index.lookup", IndexView, "lookup_embedding", TIME),
    ("index.record", IndexView, "record_detections", TIME),
    ("index.record", IndexView, "record_filter_verdict", TIME),
    ("index.record", IndexView, "record_embedding", TIME),
)

#: Simulator layers: reported apart from engine time, since only engine
#: time survives a swap to real inference backends.
SIM_SPANS = ("videosim.render", "models.detector", "models.framefilter", "models.property")

#: Spans whose individual durations are kept for percentiles.
SAMPLED_SPANS = ("scheduler.step",)

#: Operator kinds reported one by one.
OPERATOR_KINDS = ("DetectorOp", "TrackerOp", "FusedOp", "ProjectorOp", "VObjFilterOp", "JoinOp")


class _ThreadState:
    __slots__ = ("stack", "suppress", "agg", "samples", "tid")

    def __init__(self, tid: int) -> None:
        #: Child time accumulated by each open span, innermost last.
        self.stack: List[int] = []
        #: >0 while inside Planner.plan: inner spans are not recorded.
        self.suppress = 0
        #: span name -> [calls, inclusive ns, self ns]
        self.agg: Dict[str, List[int]] = {}
        self.samples: Dict[str, List[int]] = {}
        self.tid = tid


class Recorder:
    """In-memory span sink: per-thread aggregates plus a capped event list."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        #: Rep id stamped on every kept span; None stops keeping spans.
        self.rep: Optional[int] = None
        self.events: List[Tuple[str, int, int, int, int]] = []
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def close(self, st: _ThreadState, name: str, start: int, dur: int, child: int) -> None:
        agg = st.agg.get(name)
        if agg is None:
            agg = st.agg[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if name in SAMPLED_SPANS:
            st.samples.setdefault(name, []).append(dur)
        if self.rep is not None and len(self.events) < self.max_events:
            self.events.append((name, start, dur, st.tid, self.rep))

    def totals(self) -> Dict[str, List[int]]:
        """span name -> [calls, inclusive ns, self ns], summed over threads."""
        out: Dict[str, List[int]] = {}
        for st in self._threads:
            for name, (calls, incl, self_ns) in st.agg.items():
                acc = out.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_ns
        return out

    def samples(self, name: str) -> List[int]:
        return sorted(d for st in self._threads for d in st.samples.get(name, ()))

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {"name": name, "ph": "X", "ts": start / 1000.0, "dur": dur / 1000.0,
             "pid": 1, "tid": tid, "args": {"rep": rep}}
            for name, start, dur, tid, rep in self.events
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _wrap(recorder: Recorder, name: str, fn: Callable, mode: str) -> Callable:
    perf = time.perf_counter_ns
    per_kind = name.endswith(".")

    if mode == COUNT:
        def counted(*args, **kwargs):
            st = recorder.state()
            if not st.suppress:
                agg = st.agg.get(name)
                if agg is None:
                    agg = st.agg[name] = [0, 0, 0]
                agg[0] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(counted)

    def timed(*args, **kwargs):
        st = recorder.state()
        if st.suppress:
            return fn(*args, **kwargs)
        if mode == PLAN:
            st.suppress += 1
        stack = st.stack
        stack.append(0)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf() - start
            child = stack.pop()
            if stack:
                stack[-1] += dur
            if mode == PLAN:
                st.suppress -= 1
            span = name + type(args[0]).__name__ if per_kind else name
            recorder.close(st, span, start, dur, child)

    return functools.wraps(fn)(timed)


def install(recorder: Recorder) -> List[Tuple[type, str, Callable]]:
    """Wrap every target; returns what :func:`uninstall` needs to undo it."""
    originals = []
    for name, cls, attr, mode in TARGETS:
        original = cls.__dict__[attr]
        originals.append((cls, attr, original))
        setattr(cls, attr, _wrap(recorder, name, original, mode))
    return originals


def uninstall(originals: Sequence[Tuple[type, str, Callable]]) -> None:
    for cls, attr, original in reversed(originals):
        setattr(cls, attr, original)


# ---------------------------------------------------------------- metrics --


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def layer_metrics(
    recorder: Recorder, outcomes: Sequence[Any], untraced_us_per_frame: float
) -> Dict[str, float]:
    """Per-layer metrics of the traced reps.

    ``outcomes`` are the traced reps' ``RepOutcome``\\ s.  Times are µs per
    frame (frames summed over the reps) unless the name says otherwise;
    program counters are per rep.  Engine time is the untraced median wall
    time per frame minus simulator self time, so the wrappers' own cost is
    not counted as engine time.
    """
    totals = recorder.totals()
    reps = max(len(outcomes), 1)
    frames = max(sum(out.frames for out in outcomes), 1)

    def self_us(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] / 1000.0

    def incl_us(name: str) -> float:
        return totals.get(name, [0, 0, 0])[1] / 1000.0

    def calls(name: str) -> int:
        return totals.get(name, [0, 0, 0])[0]

    def per_frame(name: str) -> float:
        return self_us(name) / frames

    def total(key: str) -> float:
        return sum(out.counters.get(key, 0) for out in outcomes)

    def per_rep(key: str) -> float:
        return total(key) / reps

    sim_us_per_frame = sum(self_us(name) for name in SIM_SPANS) / frames
    feed_wall = incl_us("session.feed")
    multi_wall = incl_us("session.multi")
    steps = recorder.samples("scheduler.step")

    metrics = {
        "videosim.render_us_per_frame": per_frame("videosim.render"),
        "videosim.feed_poll_us_per_frame": per_frame("videosim.feed_poll"),
        "models.detector_calls": per_rep("detector_calls"),
        "models.framefilter_calls": per_rep("framefilter_calls"),
        "models.property_calls": per_rep("property_calls"),
        "models.reid_calls": per_rep("reid_calls"),
        "models.detector_us_per_frame": per_frame("models.detector"),
        "models.framefilter_us_per_frame": per_frame("models.framefilter"),
        "models.property_us_per_frame": per_frame("models.property"),
        "models.tracker_us_per_frame": per_frame("models.tracker"),
        "models.kalman_calls_per_frame": calls("models.kalman") / frames,
        "streaming.sink_self_us_per_frame": per_frame("streaming.sink"),
        "streaming.observe_self_us_per_frame": per_frame("streaming.observe"),
        "runtime.detect_self_us_per_frame": per_frame("runtime.detect"),
        "runtime.track_self_us_per_frame": per_frame("runtime.track"),
        "runtime.vobj_state_calls_per_frame": calls("runtime.vobj_state") / frames,
        "runtime.reuse_hit_ratio": _ratio(
            total("reuse_hits"), total("reuse_hits") + total("property_calls")
        ),
        "scheduler.step_self_us_per_frame": per_frame("scheduler.step"),
        "scheduler.step_us_p50": percentile(steps, 0.50) / 1000.0,
        "scheduler.step_us_p99": percentile(steps, 0.99) / 1000.0,
        "scheduler.gate_self_us_per_frame": per_frame("scheduler.gate"),
        "scheduler.gate_reject_ratio": _ratio(
            total("leaf_frames_gated"), total("leaf_frames_gated") + total("leaf_frames_processed")
        ),
        "scheduler.interpolated_ratio": _ratio(
            total("frames_interpolated"), total("frames_interpolated") + total("frames_rescanned")
        ),
        "planner.plan_ms": incl_us("planner.plan") / 1000.0 / reps,
        "session.feed_concurrency": _ratio(feed_wall, multi_wall, empty=1.0),
        "crosscamera.link_ms": incl_us("crosscamera.link") / 1000.0 / reps,
        "live.ingest_self_us_per_frame": per_frame("live.ingest"),
        "live.peak_buffered": per_rep("peak_buffered"),
        "live.pressure_raises": per_rep("pressure_raises"),
        "faults.invoke_self_us_per_call": _ratio(self_us("faults.invoke"), calls("faults.invoke")),
        "faults.checkpoint_ms": incl_us("faults.checkpoint") / 1000.0 / reps,
        "faults.retries": per_rep("model_retries"),
        "faults.frames_degraded": per_rep("frames_degraded"),
        "faults.scan_resumes": per_rep("scan_resumes"),
        "index.load_ms": incl_us("index.load") / 1000.0 / reps,
        "index.save_ms": incl_us("index.save") / 1000.0 / reps,
        "index.lookup_us_per_call": _ratio(self_us("index.lookup"), calls("index.lookup")),
        "index.record_us_per_call": _ratio(self_us("index.record"), calls("index.record")),
        "index.hit_ratio": _ratio(total("index_hits"), total("index_hits") + total("index_misses")),
        "engine_self_us_per_frame": untraced_us_per_frame - sim_us_per_frame,
        "sim_self_us_per_frame": sim_us_per_frame,
    }
    for kind in OPERATOR_KINDS:
        metrics[f"operators.{kind}.self_us_per_frame"] = per_frame(f"operators.{kind}")
    return metrics
