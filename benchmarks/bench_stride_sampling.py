"""Adaptive stride-sampling benches: detectors run on sampled frames only.

Three measurements, all against the PR-2 adaptive scheduler with sampling
off (gating + early exit stay on in both configurations):

1. stable-scene sampling — on a tracker-predictable workload the sampler
   must cut detector invocations at least 2x while leaving the event set
   (start/end/label of every event) unchanged;
2. result identity with sampling off — ``enable_stride_sampling=False``
   must reproduce the PR-2 scheduler byte-for-byte (the regression CI
   guards);
3. gate-aware planner selection — pricing a batch-shared hoisted frame
   filter once per batch (instead of once per plan) must flip candidate
   selection on a workload the PR-2 unshared cost model got wrong.

Each test prints a ``json`` block (``--- bench_stride_sampling JSON ---``)
and records it into ``BENCH_stride_sampling.json``; ``benchmarks/README.md``
explains the fields.  The CI smoke runs this file and fails if sampling
ever exceeds the stride-1 scheduler's detector invocations or perturbs
results while disabled.
"""

import json

from _bench_output import record_bench
from _scale import scaled

from repro.backend.planner import Planner, PlannerConfig
from repro.backend.session import QuerySession
from repro.common.config import VideoSpec
from repro.frontend.builtin import Car, Person
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.properties import vobj_filter
from repro.frontend.query import Query
from repro.frontend.registry import get_library_zoo
from repro.videosim.entities import ObjectSpec
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo

#: Sampling on: stride ramps 1 -> 8 while the tracker state is predictable.
SAMPLING = PlannerConfig(profile_plans=False, enable_stride_sampling=True)
#: The PR-2 scheduler: every surviving frame pays full detector cost.
STRIDE_ONE = PlannerConfig(profile_plans=False, enable_stride_sampling=False)


class _RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class _PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


class _FilteredCar(Car):
    """A car VObj registering only the red-presence frame filter (§4.4)."""

    @vobj_filter(model="no_red_on_road")
    def red_presence(self, frame):
        ...


class _FilteredRedCarQuery(Query):
    def __init__(self):
        self.car = _FilteredCar("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id,)


def _emit(section, payload):
    print()
    print(f"--- bench_stride_sampling JSON [{section}] ---")
    print(json.dumps(payload, indent=2, sort_keys=True))
    record_bench("stride_sampling", section, payload)


def _stable_scene_video(duration_s: float) -> SyntheticVideo:
    """Red cars drifting linearly for the whole clip: fully predictable."""
    fps = 10
    spec = VideoSpec("stable_scene", fps=fps, width=640, height=480, duration_s=duration_s)
    cars = [
        ObjectSpec(
            object_id=i + 1,
            class_name="car",
            trajectory=LinearTrajectory((30 + 150 * i, 300), (0.8, 0.0)),
            size=(100, 50),
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        for i in range(3)
    ]
    return SyntheticVideo(spec, cars, seed=3)


def _event_set(result):
    """Event identity under sampling: exact boundaries and labels.

    Track ids are excluded on purpose: false-positive detections on
    sampled-out frames never birth tracks, which can renumber ids without
    changing any reported event.
    """
    return [(e.start_frame, e.end_frame, e.label) for e in result.events]


def _detector_calls(session):
    return session.last_context.clock.calls.get("yolox", 0)


def test_stable_scene_detector_reduction(benchmark):
    """Sampling on vs off on a stable scene (the CI guard + acceptance bar)."""
    video = _stable_scene_video(scaled(400.0, minimum=40.0))
    zoo = get_library_zoo()
    batch = lambda: [_RedCarQuery(), DurationQuery(_RedCarQuery(), duration_s=2.0)]

    def run_sampled():
        session = QuerySession(video, zoo=zoo, config=SAMPLING)
        return session, session.execute_many(batch())

    sampled_session, sampled_results = benchmark.pedantic(run_sampled, rounds=1, iterations=1)
    plain_session = QuerySession(video, zoo=zoo, config=STRIDE_ONE)
    plain_results = plain_session.execute_many(batch())

    sampled_calls = _detector_calls(sampled_session)
    plain_calls = _detector_calls(plain_session)
    stats = sampled_session.last_scan_stats

    payload = {
        "num_frames": video.num_frames,
        "detector_invocations_sampled": sampled_calls,
        "detector_invocations_stride1": plain_calls,
        "reduction_x": round(plain_calls / max(sampled_calls, 1), 2),
        "frames_interpolated": stats["frames_interpolated"],
        "frames_rescanned": stats["frames_rescanned"],
        "peak_stride": stats["peak_stride"],
        "simulated_ms_sampled": round(sampled_session.last_context.clock.elapsed_ms, 1),
        "simulated_ms_stride1": round(plain_session.last_context.clock.elapsed_ms, 1),
        "simulated_speedup_x": round(
            plain_session.last_context.clock.elapsed_ms
            / max(sampled_session.last_context.clock.elapsed_ms, 1e-9),
            2,
        ),
    }
    _emit("stable_scene", payload)

    # Event sets must be unchanged by sampling on this workload.
    for sampled, plain in zip(sampled_results, plain_results):
        assert _event_set(sampled) == _event_set(plain)
    # CI guard: sampling may only ever SAVE detector invocations ...
    assert sampled_calls <= plain_calls
    # ... and the acceptance bar: at least 2x fewer on a stable scene.
    assert plain_calls >= 2 * sampled_calls


def test_sampling_disabled_is_result_identical(benchmark):
    """enable_stride_sampling=False must reproduce PR-2 results exactly.

    The workload includes a phase change (a person track is born mid-clip)
    so the comparison also covers duration grouping and temporal pairing on
    a video where sampling, were it wrongly active, would have to re-scan.
    """
    fps = 10
    spec = VideoSpec("phase_change", fps=fps, width=640, height=480, duration_s=scaled(300.0, minimum=30.0))
    car = ObjectSpec(
        object_id=1,
        class_name="car",
        trajectory=LinearTrajectory((30, 300), (0.8, 0.0)),
        size=(100, 50),
        attributes={"color": "red", "vehicle_type": "sedan"},
    )
    person = ObjectSpec(
        object_id=2,
        class_name="person",
        trajectory=StationaryTrajectory((420, 350)),
        size=(30, 80),
        enter_frame=int(spec.num_frames * 0.5),
        exit_frame=int(spec.num_frames * 0.7),
        default_action="standing",
    )
    video = SyntheticVideo(spec, [car, person], seed=7)
    zoo = get_library_zoo()
    batch = lambda: [
        _RedCarQuery(),
        _PersonQuery(),
        DurationQuery(_RedCarQuery(), duration_s=2.0),
        SequentialQuery(_RedCarQuery(), _PersonQuery(), max_gap_s=5),
    ]

    disabled = benchmark.pedantic(
        lambda: QuerySession(video, zoo=zoo, config=STRIDE_ONE).execute_many(batch()),
        rounds=1,
        iterations=1,
    )
    pr2 = QuerySession(video, zoo=zoo, config=PlannerConfig(profile_plans=False)).execute_many(batch())

    mismatches = sum(0 if a == b else 1 for a, b in zip(disabled, pr2))
    _emit(
        "identity_when_disabled",
        {
            "num_frames": video.num_frames,
            "queries": [r.query_name for r in disabled],
            "mismatching_queries": mismatches,
        },
    )
    assert mismatches == 0


def test_gate_aware_planner_flips_selection(benchmark):
    """The gate-aware cost model changes candidate selection under sharing.

    Four queries register the same ``no_red_on_road`` filter; the red car is
    on screen in (almost) every canary frame, so the filter rejects next to
    nothing.  Planned solo, the filter is priced at its full cost, is a net
    loss and the planner drops it; priced once per batch of four, keeping it
    is cheaper — the planner must pick the other candidate.
    """
    spec = VideoSpec("busy_red", fps=10, width=640, height=480, duration_s=30)
    car = ObjectSpec(
        object_id=1,
        class_name="car",
        trajectory=LinearTrajectory((50, 300), (1.0, 0.0)),
        size=(100, 50),
        attributes={"color": "red", "vehicle_type": "sedan"},
    )
    video = SyntheticVideo(spec, [car], seed=21)
    zoo = get_library_zoo()

    def plan_first(batch_size: int):
        planner = Planner(zoo, PlannerConfig(canary_frames=200))
        batch = [_FilteredRedCarQuery() for _ in range(batch_size)]
        planner.begin_batch(batch)
        return planner.plan(batch[0], video)

    solo = benchmark.pedantic(lambda: plan_first(1), rounds=1, iterations=1)
    batched = plan_first(4)

    _emit(
        "gate_aware_selection",
        {
            "unshared_variant": solo.variant,
            "gate_aware_variant": batched.variant,
            "unshared_estimated_ms": round(solo.estimated_cost_ms, 1),
            "gate_aware_estimated_ms": round(batched.estimated_cost_ms, 1),
            "gate_aware_measured_ms": round(batched.profiled_cost_ms, 1),
        },
    )

    # The shared-filter pricing must change (and improve) the selection.
    assert solo.variant == "no_frame_filters"
    assert batched.variant == "base"
    assert batched.estimated_cost_ms < solo.estimated_cost_ms
