"""Adaptive-scan-scheduler benches: what work the scheduler avoids.

Three measurements against the PR-1 exhaustive scan:

1. frame-filter gating + early exit — detector invocations and simulated
   milliseconds on a workload whose cheap frame filters reject most frames
   and whose bounded queries determine their answers early;
2. result identity — the scheduler must produce byte-identical results
   (matched frames, events, aggregates) to the exhaustive scan on the
   existing mixed-batch workload;
3. multi-camera execution — the simulated makespan speedup if the feeds
   ran side by side instead of one after another.

Each test prints a ``json`` block (``--- bench_scan_scheduler JSON ---``)
with the raw counters; ``benchmarks/README.md`` explains the fields.  The
CI smoke runs this file and fails if the scheduler ever performs MORE
detector invocations than the exhaustive baseline.
"""

import json
import time

from _bench_output import artifact_path, record_bench
from _scale import scaled

from repro.backend.planner import PlannerConfig
from repro.backend.session import MultiCameraSession, QuerySession
from repro.common.config import VideoSpec
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.query import Query
from repro.frontend.registry import get_library_zoo
from repro.videosim.datasets import camera_clip
from repro.videosim.entities import ObjectSpec
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo

#: The scheduler: gating + early exit on (the defaults).
SCHEDULED = PlannerConfig(profile_plans=False)
#: PR-1 behaviour: frame filters inside every pipeline, scan runs to the end.
PIPELINE_FILTERS = PlannerConfig(
    profile_plans=False, enable_scan_gating=False, enable_early_exit=False
)
#: Fully exhaustive baseline: no frame filters at all, every frame pays detection.
EXHAUSTIVE = PlannerConfig(
    profile_plans=False,
    use_registered_filters=False,
    enable_scan_gating=False,
    enable_early_exit=False,
)


class _RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class _GatedRedCarQuery(_RedCarQuery):
    """RedCar VObj: registers the ``no_red_on_road`` frame filter (§4.4)."""

    def __init__(self):
        self.car = RedCar("car")


class _PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


def _event_ranges(result):
    """Events stripped of the gate's skip annotation (range identity check).

    The in-pipeline PR-1 scan cannot know which frames a gate skipped, so
    ``skipped_frames`` is the one field allowed to differ; start/end,
    signature, and label must match exactly.
    """
    return [(e.start_frame, e.end_frame, e.signature, e.label) for e in result.events]


def _emit_json(name, payload):
    print()
    print(f"--- bench_scan_scheduler JSON [{name}] ---")
    print(json.dumps(payload, indent=2, sort_keys=True))
    record_bench("scan_scheduler", name, payload)


def _sparse_red_car_video(duration_s: float) -> SyntheticVideo:
    """A video where red cars are visible in only ~15% of the frames.

    Red-car bursts of 30 frames recur every 200 frames, with a person
    appearing shortly after each burst (so temporal pairs exist).  The
    ``no_red_on_road`` filter can discard the long red-car-free stretches
    before the detector runs.
    """
    fps = 10
    num_frames = int(duration_s * fps)
    objects = []
    object_id = 1
    for burst_start in range(10, num_frames, 200):
        objects.append(
            ObjectSpec(
                object_id=object_id,
                class_name="car",
                trajectory=LinearTrajectory((50, 300), (3.0, 0.0)),
                size=(100, 50),
                enter_frame=burst_start,
                exit_frame=min(burst_start + 30, num_frames - 1),
                attributes={"color": "red", "vehicle_type": "sedan"},
            )
        )
        object_id += 1
        objects.append(
            ObjectSpec(
                object_id=object_id,
                class_name="person",
                trajectory=StationaryTrajectory((420, 350)),
                size=(30, 80),
                enter_frame=min(burst_start + 40, num_frames - 1),
                exit_frame=min(burst_start + 70, num_frames - 1),
                default_action="standing",
            )
        )
        object_id += 1
    spec = VideoSpec("sparse_red", fps=fps, width=640, height=480, duration_s=duration_s)
    return SyntheticVideo(spec, objects, seed=13)


def _detector_calls(session: QuerySession) -> int:
    return session.last_context.clock.calls.get("yolox", 0)


def test_gating_and_early_exit_reduce_detector_invocations(benchmark):
    """Gated + bounded workload vs the exhaustive scan (the CI guard).

    The workload mixes a gated frame query, a gated duration query, and an
    existence query; the scheduler must (a) never run the detector more
    often than the exhaustive scan and (b) cut invocations at least 2x.
    """
    video = _sparse_red_car_video(scaled(240.0, minimum=60.0))
    zoo = get_library_zoo()

    gated_batch = lambda: [
        _GatedRedCarQuery(),
        DurationQuery(_GatedRedCarQuery(), duration_s=2.0),
    ]

    def run_scheduled():
        session = QuerySession(video, zoo=zoo, config=SCHEDULED)
        results = session.execute_many(gated_batch())
        return session, results

    (sched_session, sched_results) = benchmark.pedantic(run_scheduled, rounds=1, iterations=1)

    pipe_session = QuerySession(video, zoo=zoo, config=PIPELINE_FILTERS)
    pipe_results = pipe_session.execute_many(gated_batch())
    exh_session = QuerySession(video, zoo=zoo, config=EXHAUSTIVE)
    exh_session.execute_many(gated_batch())

    # Result identity: hoisting the filters into the gate must not change
    # matched frames, events, or aggregates vs running them in-pipeline.
    for sched, piped in zip(sched_results, pipe_results):
        assert sched.matched_frames == piped.matched_frames
        assert _event_ranges(sched) == _event_ranges(piped)
        assert sched.aggregates == piped.aggregates

    # Early exit: an existence query on the same video.
    exists_session = QuerySession(video, zoo=zoo, config=SCHEDULED)
    exists_session.execute(_RedCarQuery().exists())
    exists_exh = QuerySession(video, zoo=zoo, config=EXHAUSTIVE)
    exists_exh.execute(_RedCarQuery())

    gated_calls = _detector_calls(sched_session)
    exhaustive_calls = _detector_calls(exh_session)
    exists_calls = _detector_calls(exists_session)
    exists_exhaustive_calls = _detector_calls(exists_exh)
    stats = sched_session.last_context.scan_stats

    payload = {
        "num_frames": video.num_frames,
        "gated_workload": {
            "detector_invocations_scheduled": gated_calls,
            "detector_invocations_exhaustive": exhaustive_calls,
            "reduction_x": round(exhaustive_calls / max(gated_calls, 1), 2),
            "frames_gate_skipped": stats.leaf_frames_gated,
            "simulated_ms_scheduled": round(sched_session.last_context.clock.elapsed_ms, 1),
            "simulated_ms_exhaustive": round(exh_session.last_context.clock.elapsed_ms, 1),
            "simulated_speedup_x": round(
                exh_session.last_context.clock.elapsed_ms
                / max(sched_session.last_context.clock.elapsed_ms, 1e-9),
                2,
            ),
        },
        "early_exit_workload": {
            "detector_invocations_scheduled": exists_calls,
            "detector_invocations_exhaustive": exists_exhaustive_calls,
            "reduction_x": round(exists_exhaustive_calls / max(exists_calls, 1), 2),
            "early_exit_frame": exists_session.last_context.scan_stats.early_exit_frame,
        },
    }
    _emit_json("gating_early_exit", payload)

    # CI guard: the scheduler must never do MORE detector work than the
    # exhaustive baseline ...
    assert gated_calls <= exhaustive_calls
    assert exists_calls <= exists_exhaustive_calls
    # ... and the acceptance bar: at least a 2x reduction on this workload.
    assert exhaustive_calls >= 2 * gated_calls
    assert exists_exhaustive_calls >= 2 * exists_calls


def test_scheduler_identical_on_existing_workload(benchmark):
    """The PR-1 mixed batch must produce identical results under the scheduler.

    Car/Person queries carry no registered filters and no bounds, so the
    adaptive scan has nothing to skip — but it must also change nothing:
    matched frames, events (incl. incremental temporal pairing), and
    aggregates all stay byte-identical to the exhaustive PR-1 scan.
    """
    video = camera_clip("jackson", duration_s=scaled(120.0, minimum=20.0), seed=5)
    zoo = get_library_zoo()
    batch = lambda: [
        _RedCarQuery(),
        _PersonQuery(),
        DurationQuery(_RedCarQuery(), duration_s=2.0),
        SequentialQuery(_RedCarQuery(), _PersonQuery(), max_gap_s=10),
    ]

    scheduled = benchmark.pedantic(
        lambda: QuerySession(video, zoo=zoo, config=SCHEDULED).execute_many(batch()),
        rounds=1,
        iterations=1,
    )
    exhaustive = QuerySession(video, zoo=zoo, config=PIPELINE_FILTERS).execute_many(batch())

    mismatches = 0
    for sched, exh in zip(scheduled, exhaustive):
        identical = (
            sched.matched_frames == exh.matched_frames
            and sched.events == exh.events
            and sched.aggregates == exh.aggregates
            and sched.matches == exh.matches
        )
        mismatches += 0 if identical else 1
    _emit_json(
        "result_identity",
        {
            "num_frames": video.num_frames,
            "queries": [r.query_name for r in scheduled],
            "mismatching_queries": mismatches,
        },
    )
    assert mismatches == 0


def test_parallel_multicamera_speedup(benchmark):
    """Simulated makespan of side-by-side feeds vs one after another.

    Every feed owns its execution context and simulated clock, so the
    *simulated* makespan of feeds run side by side is the slowest single
    feed, while running them one after another pays the sum of all feeds.
    The session runs them one after another on the calling thread (with
    pure-Python models the GIL leaves threads nothing to overlap); its
    wall-clock time is reported for reference.  Each feed is checked
    against the same batch run alone in its own ``QuerySession``.
    """
    duration = scaled(60.0, minimum=10.0)
    zoo = get_library_zoo()
    feeds = {
        "jackson": camera_clip("jackson", duration_s=duration, seed=2),
        "banff": camera_clip("banff", duration_s=duration, seed=1),
        "jackson-2": camera_clip("jackson", duration_s=duration, seed=9),
        "banff-2": camera_clip("banff", duration_s=duration, seed=4),
    }
    batch = lambda: [_RedCarQuery(), _PersonQuery()]

    def run_multi():
        multi = MultiCameraSession(feeds, zoo=zoo, config=SCHEDULED)
        wall_start = time.perf_counter()
        merged = multi.execute_many(batch())
        return multi, merged, time.perf_counter() - wall_start

    multi, merged, wall_s = benchmark.pedantic(run_multi, rounds=1, iterations=1)

    # Each feed's merged results equal the feed run alone.
    for name, video in feeds.items():
        alone = QuerySession(video, zoo=zoo, config=SCHEDULED).execute_many(batch())
        for holder, solo in zip(merged, alone):
            assert holder.camera(name) == solo

    per_feed_ms = {
        name: session.last_context.clock.elapsed_ms for name, session in multi.sessions.items()
    }
    serial_ms = sum(per_feed_ms.values())
    parallel_ms = max(per_feed_ms.values())
    speedup = serial_ms / max(parallel_ms, 1e-9)
    _emit_json(
        "parallel_multicamera",
        {
            "feeds": len(feeds),
            "per_feed_simulated_ms": {k: round(v, 1) for k, v in per_feed_ms.items()},
            "simulated_makespan_serial_ms": round(serial_ms, 1),
            "simulated_makespan_parallel_ms": round(parallel_ms, 1),
            "simulated_speedup_x": round(speedup, 2),
            "wall_clock_s": round(wall_s, 3),
        },
    )
    assert speedup >= 1.5  # 4 similar feeds should approach 4x


def test_tracing_artifact_and_overhead_gate(benchmark):
    """Observability acceptance on the 4-feed workload, plus the overhead gate.

    Traced run: exports ``TRACE_scan_scheduler.json`` (Chrome trace-event
    format, one lane per feed — CI uploads it as an artifact), checks that
    ``explain()`` prices every planner candidate, and that the decision log
    accounts for 100% of gated + deferred frames across all feeds.  Results
    must stay byte-identical to the untraced run, including virtual time.

    Overhead gate: tracing **disabled** must stay within 3% wall-clock of
    the traced run's floor.  The traced run does strictly more work, so
    disabled-mode wall time exceeding ``traced * 1.03`` means obs machinery
    leaked into the ``enable_tracing=False`` hot path — the regression this
    gate exists to catch.  Min-of-3 interleaved timings keep noise down.
    """
    duration = scaled(60.0, minimum=10.0)
    zoo = get_library_zoo()
    feeds = {
        "jackson": camera_clip("jackson", duration_s=duration, seed=2),
        "banff": camera_clip("banff", duration_s=duration, seed=1),
        "jackson-2": camera_clip("jackson", duration_s=duration, seed=9),
        "banff-2": camera_clip("banff", duration_s=duration, seed=4),
    }
    # Keep canary profiling ON: explain() must price >=2 candidates for the
    # gated query (base / no_frame_filters / specialized detector).
    batch = lambda: [_GatedRedCarQuery(), _PersonQuery()]

    def run(enable_tracing):
        multi = MultiCameraSession(
            feeds, zoo=zoo, config=PlannerConfig(enable_tracing=enable_tracing)
        )
        wall_start = time.perf_counter()
        merged = multi.execute_many(batch())
        return multi, merged, time.perf_counter() - wall_start

    traced_multi, traced_merged, _ = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1
    )

    # Interleave the timing rounds so drift hits both configurations alike.
    plain_walls, traced_walls = [], []
    plain_multi = None
    for _ in range(3):
        plain_multi, plain_merged, wall = run(False)
        plain_walls.append(wall)
        _, _, wall = run(True)
        traced_walls.append(wall)

    # Byte identity: tracing must not change any result, nor virtual time.
    for tr, pl in zip(traced_merged, plain_merged):
        for name in feeds:
            assert tr.camera(name) == pl.camera(name)
    for name in feeds:
        assert (
            traced_multi.sessions[name].last_context.clock.elapsed_ms
            == plain_multi.sessions[name].last_context.clock.elapsed_ms
        )

    # Disabled mode is inert: no obs objects anywhere.
    assert plain_multi.last_obs is None
    assert all(s.last_obs is None for s in plain_multi.sessions.values())
    assert all(r.obs is None for res in plain_merged for _, r in res)

    obs = traced_multi.last_obs
    trace_file = artifact_path("TRACE_scan_scheduler.json")
    obs.tracer.export_chrome(trace_file)
    chrome = obs.tracer.to_chrome_trace()
    lane_names = [
        e["args"]["name"]
        for e in chrome["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    feed_lanes = [lane for lane in lane_names if lane in feeds]
    assert len(feed_lanes) >= 4  # one lane per feed in Perfetto

    # explain() prices every candidate the planner considered.
    report = traced_merged[0].camera("jackson").explain()
    data = traced_merged[0].camera("jackson").obs
    assert len(data.candidates) >= 2
    assert sum(c.chosen for c in data.candidates) == 1
    for candidate in data.candidates:
        assert candidate.estimated_cost_ms is not None
        assert candidate.profiled_cost_ms is not None
        assert candidate.variant in report

    # Decision accounting: the log covers 100% of gated + deferred frames.
    per_feed_stats = traced_multi.last_scan_stats
    gated = sum(s["leaf_frames_gated"] for s in per_feed_stats.values())
    deferred = sum(s["frames_deferred"] for s in per_feed_stats.values())
    assert gated > 0
    assert obs.decisions.count("frame-gated") == gated
    assert obs.decisions.count("frame-deferred") == deferred

    wall_plain = min(plain_walls)
    wall_traced = min(traced_walls)
    overhead_pct = (wall_plain / max(wall_traced, 1e-9) - 1.0) * 100.0
    _emit_json(
        "tracing_overhead",
        {
            "feeds": len(feeds),
            "spans_recorded": len(obs.tracer.spans()),
            "feed_lanes": feed_lanes,
            "decisions_gated": gated,
            "decisions_deferred": deferred,
            "wall_clock_disabled_s": round(wall_plain, 3),
            "wall_clock_traced_s": round(wall_traced, 3),
            "disabled_vs_traced_pct": round(overhead_pct, 2),
            "trace_artifact": trace_file,
        },
    )
    # The gate: disabled-mode wall clock within 3% of the traced floor
    # (plus a 50ms absolute cushion for sub-second CI-scale runs).
    assert wall_plain <= wall_traced * 1.03 + 0.05, (
        f"enable_tracing=False path regressed: {wall_plain:.3f}s vs "
        f"{wall_traced:.3f}s traced ({overhead_pct:+.1f}%)"
    )
