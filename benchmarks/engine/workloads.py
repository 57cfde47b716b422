"""The engine benchmark's five workloads.

Each workload builds its inputs from the benchmark seed (the engine only
ever sees the generated videos, feeds and fault schedules), runs one
*rep* — a complete user-visible execution — and checks every rep's output
against a reference computed after the timed reps.  The inputs are the
repository's own generators: the Jackson camera preset, the multi-camera
handoff scenario and the live feed adapter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.crosscamera import reid_identity_scores
from repro.backend.live import CallbackSink, LiveSession
from repro.backend.planner import PlannerConfig
from repro.backend.session import MultiCameraSession, QuerySession
from repro.common.config import FaultConfig, IndexConfig, LiveConfig, VideoSpec
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.query import Query
from repro.frontend.registry import get_library_zoo
from repro.videosim.datasets import camera_clip
from repro.videosim.entities import ObjectSpec
from repro.videosim.livefeed import LiveFeed
from repro.videosim.multicam import CameraPlacement, handoff_scenario
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo

# ----------------------------------------------------------------- queries --


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class GatedRedCarQuery(RedCarQuery):
    """RedCar VObj: registers the ``no_red_on_road`` frame filter."""

    def __init__(self):
        self.car = RedCar("car")


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


class CarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


def mixed_batch() -> List[Query]:
    """Four queries, five leaves, one shared detector and tracker."""
    return [
        RedCarQuery(),
        PersonQuery(),
        DurationQuery(RedCarQuery(), duration_s=2.0),
        SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=10),
    ]


# ------------------------------------------------------------------ inputs --

#: Seeded candidate clips per input; see :func:`median_volume_clip`.
CANDIDATES = 25


def object_frames(video: SyntheticVideo) -> int:
    """Frames summed over objects: how much a clip has to render, detect
    and track."""
    last = video.num_frames - 1
    return sum(min(obj.exit_frame, last) - obj.enter_frame + 1 for obj in video.objects)


def median_volume_clip(camera: str, duration_s: float, seed: int) -> SyntheticVideo:
    """The camera's stock clip with the median object-frame count among
    ``CANDIDATES`` clips seeded from ``seed``.

    A rep's wall time is nearly linear in object-frames (r = 0.95 over ten
    120 s Jackson clips), and one clip's object-frames vary by about ±17%
    from seed to seed, which spread throughput by 23% (interquartile range
    over ten seeds).  The median of 25 candidates holds the input size
    steady; the traffic is still the camera's preset mix.
    """
    clips = sorted(
        (camera_clip(camera, duration_s, seed * CANDIDATES + k) for k in range(CANDIDATES)),
        key=object_frames,
    )
    return clips[CANDIDATES // 2]


def sparse_red_car_clip(duration_s: float, seed: int) -> SyntheticVideo:
    """Red cars in about 15% of the frames: a 30-frame burst every 200 frames,
    each followed by a person, with the burst start jittered by the seed."""
    fps = 10
    num_frames = int(duration_s * fps)
    spec = VideoSpec("sparse_red", fps=fps, width=640, height=480, duration_s=duration_s)
    objects = []
    for burst, slot_start in enumerate(range(0, num_frames, 200)):
        start = min(slot_start + 5 + (seed * 7919 + burst * 104729) % 20, num_frames - 1)
        objects.append(
            ObjectSpec(
                object_id=2 * burst + 1,
                class_name="car",
                trajectory=LinearTrajectory((50, 300), (3.0, 0.0)),
                size=(100, 50),
                enter_frame=start,
                exit_frame=min(start + 30, num_frames - 1),
                attributes={"color": "red", "vehicle_type": "sedan"},
            )
        )
        objects.append(
            ObjectSpec(
                object_id=2 * burst + 2,
                class_name="person",
                trajectory=StationaryTrajectory((420, 350)),
                size=(30, 80),
                enter_frame=min(start + 40, num_frames - 1),
                exit_frame=min(start + 70, num_frames - 1),
                default_action="standing",
            )
        )
    return SyntheticVideo(spec, objects, seed=seed)


HANDOFF_CAMERAS = (
    CameraPlacement("cam_a", fps=10, start_offset_s=0.0, width=1280, height=720),
    CameraPlacement("cam_b", fps=15, start_offset_s=3.0, width=1280, height=720),
    CameraPlacement("cam_c", fps=20, start_offset_s=6.0, width=1280, height=720),
    CameraPlacement("cam_d", fps=15, start_offset_s=9.0, width=1280, height=720),
)


# --------------------------------------------------------------- outcomes --


@dataclass
class RepOutcome:
    """What one rep produced: the work done, its cost, and its output."""

    #: Frames the rep pushed through the engine (summed over feeds;
    #: delivered frames for live).
    frames: int
    #: Simulated ms of every clock the rep charged (live-idle excluded).
    virtual_ms: float
    #: The user-visible output; :meth:`seal` replaces it by its digest.
    output: Any
    #: The program's own counters plus workload-specific quality numbers.
    counters: Dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def seal(self) -> None:
        """Digest the output and drop it, outside the timed region, so that
        kept reps hold no results and peak memory does not grow with them."""
        self.digest = digest(self.output)
        self.output = None


def _canonical(value: Any) -> Any:
    """Equal values map to equal reprs: numpy scalars become Python
    numbers and dataclasses their compared fields."""
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(_canonical(k)), _canonical(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _canonical(getattr(value, f.name)) for f in dataclasses.fields(value) if f.compare
        )
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    return value


def digest(output: Any) -> str:
    """Digest of a result summary; equal summaries give equal digests."""
    return hashlib.sha256(repr(_canonical(output)).encode()).hexdigest()


def result_summary(result) -> tuple:
    """Matched frames, matches, events and aggregates of one QueryResult."""
    return (
        result.query_name,
        tuple(result.matched_frames),
        tuple(sorted(result.matches.items())),
        tuple(result.events),
        tuple(sorted(result.aggregates.items())),
    )


def event_ranges(result) -> tuple:
    """Matched frames and (start, end, signature, label) of every event."""
    return (
        result.query_name,
        tuple(result.matched_frames),
        tuple((e.start_frame, e.end_frame, e.signature, e.label) for e in result.events),
    )


#: ScanStats fields the per-layer ledger reports.
SCAN_FIELDS = (
    "leaf_frames_gated",
    "leaf_frames_processed",
    "frames_interpolated",
    "frames_rescanned",
    "model_retries",
    "frames_degraded",
    "scan_resumes",
)


def program_counters(contexts: Sequence[Any], extra_clocks: Sequence[Any] = ()) -> Dict[str, float]:
    """Model invocations by kind (from the clocks), scan-scheduler, reuse
    and index counters of one rep's execution contexts."""
    zoo = get_library_zoo()
    out: Dict[str, float] = dict.fromkeys(
        ("detector_calls", "framefilter_calls", "property_calls", "reid_calls",
         "reuse_hits", "index_hits", "index_misses") + SCAN_FIELDS,
        0,
    )
    for clock in [ctx.clock for ctx in contexts] + list(extra_clocks):
        for account, calls in clock.calls.items():
            kind = zoo.metadata(account).get("kind") if account in zoo else None
            if account == "reid_feature":
                out["reid_calls"] += calls
            elif kind == "detector":
                out["detector_calls"] += calls
            elif kind in ("frame_filter", "binary_classifier"):
                out["framefilter_calls"] += calls
            elif kind == "property":
                out["property_calls"] += calls
    for ctx in contexts:
        for name in SCAN_FIELDS:
            out[name] += getattr(ctx.scan_stats, name)
        out["reuse_hits"] += ctx.reuse_stats.total_hits
        if ctx.index is not None:
            out["index_hits"] += ctx.index.counters["hits"]
            out["index_misses"] += ctx.index.counters["misses"] + ctx.index.counters["stale"]
    return out


# -------------------------------------------------------------- workloads --


class Workload:
    """Base class: ``setup`` builds inputs, ``run`` executes one rep, and
    ``failures`` checks every rep after timing, against a reference it
    computes then, returning ``(rep index, problem)`` pairs."""

    name = ""
    #: Per-rep counters reported as end-to-end metrics of this workload
    #: (median over reps); ``metrics.json`` scopes them to it.
    end_to_end_counters: Tuple[str, ...] = ()

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick

    def setup(self, seed: int, work_dir: str) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any) -> RepOutcome:
        raise NotImplementedError

    def run_metrics(self, inputs: Any) -> Dict[str, float]:
        """End-to-end metrics measured once per run, after the timed reps."""
        return {}

    def failures(
        self, inputs: Any, outcomes: Sequence[Optional[RepOutcome]]
    ) -> List[Tuple[int, str]]:
        raise NotImplementedError

    @staticmethod
    def _mismatches(outcomes, expected: str, label: str) -> List[Tuple[int, str]]:
        return [
            (i, label)
            for i, out in enumerate(outcomes)
            if out is not None and out.digest != expected
        ]

    @staticmethod
    def _single_feed(session, output) -> RepOutcome:
        ctx = session.last_context
        return RepOutcome(
            frames=ctx.scan_stats.frames_scanned,
            virtual_ms=ctx.clock.elapsed_ms,
            output=output,
            counters=program_counters([ctx]),
        )


class BatchMixed(Workload):
    """Jackson 1080p15, 120 s; the mixed 4-query batch; fresh session per rep."""

    name = "batch_mixed"

    def setup(self, seed, work_dir):
        return median_volume_clip("jackson", 20.0 if self.quick else 120.0, seed)

    def run(self, video):
        session = QuerySession(video, zoo=get_library_zoo(), config=PlannerConfig())
        results = session.execute_many(mixed_batch())
        return self._single_feed(session, tuple(result_summary(r) for r in results))

    def failures(self, video, outcomes):
        # The reference is the exhaustive scan: no gate, no early exit.
        config = PlannerConfig(enable_scan_gating=False, enable_early_exit=False)
        results = QuerySession(video, zoo=get_library_zoo(), config=config).execute_many(mixed_batch())
        expected = digest(tuple(result_summary(r) for r in results))
        return self._mismatches(outcomes, expected, "results differ from the exhaustive scan")


class BatchGated(Workload):
    """Sparse red cars, 1200 s at 10 fps; a gated red-car query plus its
    duration query; fresh session per rep."""

    name = "batch_gated"

    @staticmethod
    def batch():
        return [GatedRedCarQuery(), DurationQuery(GatedRedCarQuery(), duration_s=2.0)]

    def setup(self, seed, work_dir):
        return sparse_red_car_clip(200.0 if self.quick else 1200.0, seed)

    def _execute(self, video, config):
        session = QuerySession(video, zoo=get_library_zoo(), config=config)
        results = session.execute_many(self.batch())
        return session, tuple(event_ranges(r) for r in results)

    def run(self, video):
        return self._single_feed(*self._execute(video, PlannerConfig()))

    def failures(self, video, outcomes):
        # Gating only adds skip labels: ranges must match the ungated scan.
        _, expected = self._execute(
            video, PlannerConfig(enable_scan_gating=False, enable_early_exit=False)
        )
        return self._mismatches(outcomes, digest(expected), "event ranges differ from the ungated scan")


class MulticamHandoff(Workload):
    """Four 720p feeds at 10/15/20/15 fps on 2 threads: re-id, a fresh
    index per rep, 2% transient and 1% corrupt faults, and one crash per
    feed resumed from a checkpoint taken every 100 frames."""

    name = "multicam_handoff"
    end_to_end_counters = ("identity_f1",)
    F1_FLOOR = 0.9

    def setup(self, seed, work_dir):
        scenario = handoff_scenario(
            cameras=HANDOFF_CAMERAS[:2] if self.quick else HANDOFF_CAMERAS,
            num_entities=2 if self.quick else 16,
            background_vehicles_per_minute=4.0,
            background_pedestrians_per_minute=2.0,
            seed=seed,
        )
        # Crash halfway between two checkpoints, so every resume replays
        # the same number of frames whatever the seed.
        crashes = tuple(
            (name, (video.num_frames * 6 // 10) // 100 * 100 + 50)
            for name, video in scenario.videos.items()
        )
        faults = FaultConfig(
            seed=seed,
            transient_rate=0.02,
            corrupt_frame_rate=0.01,
            crash_frames=crashes,
            checkpoint_interval=100,
        )
        # Every session builds a fresh store: the write path only.  It is
        # kept in memory because concurrent feeds saving one on-disk store
        # race on its temporary file; index_warm covers load and save.
        config = PlannerConfig(
            enable_cross_camera_reid=True,
            enable_fault_tolerance=True,
            fault_config=faults,
            enable_video_index=True,
        )
        return scenario, config

    def _execute(self, inputs, max_workers):
        scenario, config = inputs
        session = MultiCameraSession(
            scenario.videos,
            zoo=get_library_zoo(),
            config=config,
            max_workers=max_workers,
            start_offsets=scenario.start_offsets,
        )
        merged = session.execute_many([CarQuery(), PersonQuery()])
        per_feed = tuple(
            (name, tuple(result_summary(m.camera(name)) for m in merged))
            for name in session.cameras
        )
        return session, per_feed

    def run(self, inputs):
        session, output = self._execute(inputs, max_workers=2)
        contexts = [s.last_context for s in session.sessions.values()]
        counters = program_counters(contexts, extra_clocks=[session.link_clock])
        counters["identity_f1"] = reid_identity_scores(session.last_links).f1
        return RepOutcome(
            frames=sum(ctx.scan_stats.frames_scanned for ctx in contexts),
            virtual_ms=sum(ctx.clock.elapsed_ms for ctx in contexts) + session.link_clock.elapsed_ms,
            output=output,
            counters=counters,
        )

    def failures(self, inputs, outcomes):
        _, expected = self._execute(inputs, max_workers=1)
        failed = self._mismatches(outcomes, digest(expected), "per-feed results differ from max_workers=1")
        failed += [
            (i, f"identity F1 {out.counters['identity_f1']:.3f} < {self.F1_FLOOR}")
            for i, out in enumerate(outcomes)
            if out is not None and out.counters["identity_f1"] < self.F1_FLOOR
        ]
        return failed


class LiveOverload(Workload):
    """Jackson 300 s fed at 3x native fps (open loop on the virtual clock):
    stride sampling, 2% transient / 1% corrupt / 0.5% dropped-frame faults,
    standing car and person queries; fresh session per rep."""

    name = "live_overload"
    end_to_end_counters = ("alert_latency_ms_p50", "alert_latency_ms_p95", "frames_shed_frac")
    OVERLOAD_X = 3.0
    #: Multiples of native fps probed for the sustainable rate.
    RATE_STEPS = (1.0, 1.25, 1.5, 2.0, 3.0)
    #: Alert-latency limit (p95, virtual ms) a sustainable rate must meet.
    LATENCY_LIMIT_MS = 1000.0
    #: Gap tolerance of the event grouper standing queries get by default:
    #: a run closes on the first frame this many frames past its end.
    GROUPER_MAX_GAP = 5

    def setup(self, seed, work_dir):
        return median_volume_clip("jackson", 30.0 if self.quick else 300.0, seed), seed

    def execute(self, video, seed, rate_x):
        """One live run at ``rate_x`` times native fps; returns (session, alerts)."""
        config = PlannerConfig(
            enable_live=True,
            enable_stride_sampling=True,
            enable_fault_tolerance=True,
            fault_config=FaultConfig(
                seed=seed, transient_rate=0.02, corrupt_frame_rate=0.01, drop_frame_rate=0.005
            ),
        )
        alerts = []
        feed = LiveFeed(video, fps=video.fps * rate_x, seed=seed, jitter_ms=5.0)
        session = LiveSession(
            feed, zoo=get_library_zoo(), config=config, sinks=[CallbackSink(alerts.append)]
        )
        session.run([CarQuery(), PersonQuery()])
        return session, alerts

    @staticmethod
    def alert_latencies(session, alerts) -> List[float]:
        """Virtual ms from capture of each alert's closing frame to emission.

        The closing frame is the first frame past the event grouper's gap
        tolerance; alerts whose closing frame was never captured are
        shutdown flushes and excluded.
        """
        interval_ms = session.feed.interval_ms
        num_frames = session.video.num_frames
        out = []
        for alert in alerts:
            closing = alert.event.end_frame + LiveOverload.GROUPER_MAX_GAP + 1
            if closing < num_frames:
                out.append(alert.emitted_at_ms - closing * interval_ms)
        return sorted(out)

    def run(self, inputs):
        video, seed = inputs
        session, alerts = self.execute(video, seed, self.OVERLOAD_X)
        stats = session.stats
        clock = session.clock
        latencies = self.alert_latencies(session, alerts)
        counters = program_counters([session.last_context])
        counters.update(
            delivered=stats.frames_delivered,
            accounted=stats.accounted(),
            peak_buffered=stats.peak_buffered,
            pressure_raises=stats.pressure_raises,
            frames_shed_frac=(stats.frames_shed + stats.frames_late_dropped)
            / max(stats.frames_delivered, 1),
            alert_latency_ms_p50=percentile(latencies, 0.50),
            alert_latency_ms_p95=percentile(latencies, 0.95),
            alert_latency_samples=len(latencies),
        )
        alert_tuples = tuple(
            (a.query_name, a.event.start_frame, a.event.end_frame, a.event.signature,
             a.event.skipped_frames, a.emitted_at_ms)
            for a in alerts
        )
        return RepOutcome(
            frames=stats.frames_delivered,
            virtual_ms=clock.elapsed_ms - clock.by_account.get("live-idle", 0.0),
            output=alert_tuples,
            counters=counters,
        )

    def run_metrics(self, inputs):
        return {"sustainable_rate_x": self.sustainable_rate_x(*inputs)}

    def sustainable_rate_x(self, video, seed) -> float:
        """Highest probed rate with nothing shed and p95 alert latency in the
        limit, on the first 120 s of the clip."""
        head = SyntheticVideo(
            video.spec.with_duration(min(120.0, video.spec.duration_s)),
            video.objects,
            video.events,
            video.scene_attributes,
            seed=video.seed,
        )
        best = 0.0
        for rate in self.RATE_STEPS:
            session, alerts = self.execute(head, seed, rate)
            stats = session.stats
            latencies = self.alert_latencies(session, alerts)
            shed = stats.frames_shed + stats.frames_late_dropped
            if shed or percentile(latencies, 0.95) > self.LATENCY_LIMIT_MS:
                break
            best = rate
        return best

    def failures(self, inputs, outcomes):
        cap = LiveConfig().max_buffered_frames
        failed = []
        for i, out in enumerate(outcomes):
            if out is None:
                continue
            if out.counters["accounted"] != out.counters["delivered"]:
                failed.append((i, "delivered != processed + shed + late_dropped"))
            if out.counters["peak_buffered"] > cap:
                failed.append((i, f"peak_buffered {out.counters['peak_buffered']} > cap {cap}"))
        first = next((out for out in outcomes if out is not None), None)
        if first is not None:
            failed += self._mismatches(outcomes, first.digest, "alerts differ from the first rep")
        return failed


class IndexWarm(Workload):
    """The batch_mixed clip and queries over an on-disk index populated
    during set-up; every rep loads, looks up and saves it."""

    name = "index_warm"

    def setup(self, seed, work_dir):
        video = median_volume_clip("jackson", 20.0 if self.quick else 120.0, seed)
        path = os.path.join(work_dir, "index_warm.json")
        if os.path.exists(path):
            os.remove(path)
        config = PlannerConfig(enable_video_index=True, index_config=IndexConfig(path=path))
        session = QuerySession(video, zoo=get_library_zoo(), config=config)
        cold = digest(tuple(result_summary(r) for r in session.execute_many(mixed_batch())))
        return video, config, cold

    def run(self, inputs):
        video, config, _ = inputs
        session = QuerySession(video, zoo=get_library_zoo(), config=config)
        results = session.execute_many(mixed_batch())
        return self._single_feed(session, tuple(result_summary(r) for r in results))

    def failures(self, inputs, outcomes):
        _, _, cold = inputs
        failed = self._mismatches(outcomes, cold, "results differ from the cold scan")
        failed += [
            (i, f"{out.counters['detector_calls']} detector calls on a warm index")
            for i, out in enumerate(outcomes)
            if out is not None and out.counters["detector_calls"]
        ]
        return failed


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (BatchMixed, BatchGated, MulticamHandoff, LiveOverload, IndexWarm)
}
