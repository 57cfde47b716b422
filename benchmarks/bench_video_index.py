"""Persistent-video-index benches: never pay for the same frame twice.

Two measurements, both CI gates:

1. warm re-query — a second query batch over an indexed video must cost
   at most 5% of the cold scan's detector invocations while producing
   semantically identical results (matched frames, events, aggregates);
   with stride sampling off it must also make 0 tracker invocations (the
   tracker output is replayed from the index) and return the cold scan's
   track ids, make 0 live model calls at all (property model outputs are
   served from the index too) and render the ground truth of no frame
   (frames the index answers are never decoded);
2. disabled identity — with ``enable_video_index=False`` (the default)
   results must be byte-identical to an engine without the index, down
   to the virtual-clock cost breakdown.

Each test prints a ``json`` block (``--- bench_video_index JSON ---``)
with the raw counters; ``benchmarks/README.md`` explains the fields.
"""

import json

from _bench_output import record_bench
from _scale import scaled

from repro.backend.planner import PlannerConfig
from repro.backend.session import MultiCameraSession, QuerySession
from repro.faults.resilience import InertFaults
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.query import Query
from repro.frontend.registry import get_library_zoo
from repro.videosim.datasets import camera_clip
from repro.videosim.multicam import handoff_scenario
from repro.videosim.video import SyntheticVideo

#: Index on; profiling off so detector counts are exactly the scan's.
INDEXED = PlannerConfig(profile_plans=False, enable_video_index=True)
#: The default engine: no index anywhere.
PLAIN = PlannerConfig(profile_plans=False)


class _GatedRedCarQuery(Query):
    """RedCar VObj: registers the ``no_red_on_road`` frame filter (§4.4)."""

    def __init__(self):
        self.car = RedCar("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class _CarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class _PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


def _emit_json(name, payload):
    print()
    print(f"--- bench_video_index JSON [{name}] ---")
    print(json.dumps(payload, indent=2, sort_keys=True))
    record_bench("video_index", name, payload)


def _detector_calls(session):
    return session.last_context.clock.calls.get("yolox", 0)


def _tracker_calls(session):
    return session.last_context.clock.calls.get("kalman_tracker", 0)


def _property_calls(session):
    zoo = session.zoo
    return sum(
        calls
        for account, calls in session.last_context.clock.calls.items()
        if account in zoo and zoo.metadata(account).get("kind") == "property"
    )


def _spy(monkeypatch, cls, name, log):
    """Append each call's arguments to ``log``, then make the call."""
    real = getattr(cls, name)

    def spy(self, *args):
        log.append(args)
        return real(self, *args)

    monkeypatch.setattr(cls, name, spy)


def _signature(result):
    """The semantic answer — everything but the (legitimately cheaper) cost."""
    return (result.matched_frames, result.matches, result.events, result.aggregates)


def test_warm_requery_skips_detectors(benchmark, monkeypatch):
    """Cold scan populates the index; the warm re-query must be ≤5% (CI gate)."""
    video = camera_clip("banff", duration_s=scaled(120.0, minimum=20.0), seed=1)
    zoo = get_library_zoo()
    batch = lambda: [_GatedRedCarQuery(), _PersonQuery()]
    # Every ground-truth render, and every live model call (the index
    # config has no fault tolerance, so each one goes through NO_FAULTS).
    renders, model_calls = [], []
    _spy(monkeypatch, SyntheticVideo, "_render", renders)
    _spy(monkeypatch, InertFaults, "invoke", model_calls)

    cold = QuerySession(video, zoo=zoo, config=INDEXED)
    cold_results = cold.execute_many(batch())
    cold_calls = _detector_calls(cold)
    assert cold_calls > 0
    materialized_cold = len(renders)
    del renders[:], model_calls[:]

    def run_warm():
        session = QuerySession(
            video, zoo=zoo, config=INDEXED, index_store=cold.index_store
        )
        return session, session.execute_many(batch())

    warm, warm_results = benchmark.pedantic(run_warm, rounds=1, iterations=1)
    warm_calls = _detector_calls(warm)
    warm_tracker_calls = _tracker_calls(warm)
    counters = warm.last_context.index.counters
    materialized_warm = len(renders)

    payload = {
        "num_frames": video.num_frames,
        "detector_invocations_cold": cold_calls,
        "detector_invocations_warm": warm_calls,
        "warm_fraction": round(warm_calls / cold_calls, 4),
        "reduction_x": round(cold_calls / max(warm_calls, 1), 2),
        "tracker_invocations_cold": _tracker_calls(cold),
        "tracker_invocations_warm": warm_tracker_calls,
        "property_invocations_cold": _property_calls(cold),
        "property_invocations_warm": _property_calls(warm),
        "index_hits_warm": counters["hits"],
        "index_misses_warm": counters["misses"],
        "frames_materialized_cold": materialized_cold,
        "frames_materialized_warm": materialized_warm,
        "live_model_calls_warm": len(model_calls),
        "simulated_ms_cold": round(cold.last_context.clock.elapsed_ms, 1),
        "simulated_ms_warm": round(warm.last_context.clock.elapsed_ms, 1),
        "simulated_speedup_x": round(
            cold.last_context.clock.elapsed_ms
            / max(warm.last_context.clock.elapsed_ms, 1e-9),
            2,
        ),
    }
    _emit_json("warm_requery", payload)

    # CI gates: ≤5% of the cold detector invocations, no tracker run (the
    # config is stride-off), no live model call and no frame rendered,
    # identical answers and identical track ids.
    assert not INDEXED.enable_stride_sampling
    assert _property_calls(cold) > 0
    assert warm_calls <= 0.05 * cold_calls
    assert warm_tracker_calls == 0
    assert len(model_calls) == 0
    assert materialized_warm == 0
    for got, want in zip(warm_results, cold_results):
        assert _signature(got) == _signature(want)
        assert got.distinct_tracks() == want.distinct_tracks()


def test_warm_multicamera_reid_skips_embeddings(benchmark):
    """A shared store warms a whole camera graph, re-id embeddings included."""
    scenario = handoff_scenario(num_entities=3, seed=0)
    config = PlannerConfig(
        profile_plans=False,
        enable_cross_camera_reid=True,
        enable_video_index=True,
    )

    session = MultiCameraSession(
        scenario.videos, config=config, start_offsets=scenario.start_offsets
    )
    cold_result = session.execute(_CarQuery())
    cold_calls = {
        name: _detector_calls(feed) for name, feed in session.sessions.items()
    }
    cold_reid = session.link_clock.calls.get("reid_feature", 0)
    assert sum(cold_calls.values()) > 0 and cold_reid > 0

    def run_warm():
        return session.execute(_CarQuery())

    warm_result = benchmark.pedantic(run_warm, rounds=1, iterations=1)
    warm_calls = {
        name: _detector_calls(feed) for name, feed in session.sessions.items()
    }
    # link_clock resets per linking pass, so this is the warm pass alone.
    warm_reid = session.link_clock.calls.get("reid_feature", 0)

    payload = {
        "feeds": sorted(cold_calls),
        "detector_invocations_cold": sum(cold_calls.values()),
        "detector_invocations_warm": sum(warm_calls.values()),
        "reid_embeddings_cold": cold_reid,
        "reid_embeddings_warm": warm_reid,
        "global_tracks": len(warm_result.global_tracks()),
    }
    _emit_json("multicamera_warm", payload)

    assert sum(warm_calls.values()) == 0
    assert warm_reid == 0
    assert warm_result.global_tracks() == cold_result.global_tracks()


def test_disabled_is_byte_identical(benchmark):
    """The default-off path must not change a single virtual millisecond."""
    video = camera_clip("jackson", duration_s=scaled(60.0, minimum=10.0), seed=5)
    zoo = get_library_zoo()
    batch = lambda: [_CarQuery(), _PersonQuery()]

    plain = QuerySession(video, zoo=zoo, config=PLAIN)
    plain_results = plain.execute_many(batch())

    # An index_config alone (the master knob still False) must change nothing.
    from repro.common.config import IndexConfig

    default_config = PlannerConfig(
        profile_plans=False, index_config=IndexConfig(stats_min_frames=1)
    )

    def run_default():
        session = QuerySession(video, zoo=zoo, config=default_config)
        return session, session.execute_many(batch())

    default, default_results = benchmark.pedantic(run_default, rounds=1, iterations=1)

    payload = {
        "num_frames": video.num_frames,
        "detector_invocations": _detector_calls(default),
        "simulated_ms": round(default.last_context.clock.elapsed_ms, 1),
        "index_store_created": default.index_store is not None,
        "byte_identical": default_results == plain_results,
    }
    _emit_json("disabled_identity", payload)

    # CI gates: no store exists, and QueryResult equality (which includes
    # total_ms, per-frame costs, and the cost breakdown) holds exactly.
    assert default.index_store is None
    assert default_results == plain_results
    assert (
        default.last_context.clock.breakdown()
        == plain.last_context.clock.breakdown()
    )
