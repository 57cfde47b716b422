"""Integration tests for engine-wide observability.

The contract under test: ``PlannerConfig(enable_tracing=True)`` yields
spans, decision records, and ``explain()`` — while leaving every
result byte-identical to an untraced run; ``enable_tracing=False`` (the
default) leaves the engine inert (every hook goes to the shared disabled
bundle, and every public obs handle stays None).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backend.live import LiveSession
from repro.backend.planner import PlannerConfig
from repro.backend.scheduler import ScanStats
from repro.backend.session import MultiCameraSession, QuerySession
from repro.common.config import FaultConfig, VideoSpec
from repro.faults import NO_FAULTS
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.query import Query
from repro.index.store import NO_INDEX, VideoIndexStore
from repro.videosim.datasets import camera_clip
from repro.videosim.entities import ObjectSpec
from repro.videosim.livefeed import LiveFeed
from repro.videosim.trajectory import LinearTrajectory
from repro.videosim.video import SyntheticVideo


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id,)


class GatedRedCarQuery(RedCarQuery):
    """RedCar VObj: carries the registered ``no_red_on_road`` frame filter."""

    def __init__(self):
        self.car = RedCar("car")


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


@pytest.fixture(scope="module")
def clip():
    return camera_clip("jackson", duration_s=8, seed=2)


@pytest.fixture(scope="module")
def stable_video():
    """Two red cars drifting linearly: fully predictable (stride raises)."""
    spec = VideoSpec("stable", fps=10, width=640, height=480, duration_s=40)
    cars = [
        ObjectSpec(
            object_id=i + 1,
            class_name="car",
            trajectory=LinearTrajectory((30 + 150 * i, 300), (0.8, 0.0)),
            size=(100, 50),
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        for i in range(2)
    ]
    return SyntheticVideo(spec, cars, seed=3)


def batch():
    return [GatedRedCarQuery(), PersonQuery()]


# -- disabled mode is inert -------------------------------------------------------


class TestDisabledMode:
    def test_default_config_builds_no_obs(self, clip, zoo):
        session = QuerySession(clip, zoo=zoo)
        assert session.config.enable_tracing is False
        results = session.execute_many(batch())
        assert session.last_obs is None
        assert session.last_trace is None
        assert all(r.obs is None for r in results)

    def test_explain_raises_without_tracing(self, clip, zoo):
        session = QuerySession(clip, zoo=zoo, config=PlannerConfig(enable_tracing=False))
        (result, _) = session.execute_many(batch())
        with pytest.raises(ValueError, match="enable_tracing"):
            result.explain()

    def test_results_byte_identical_with_tracing(self, clip, zoo):
        plain = QuerySession(clip, zoo=zoo, config=PlannerConfig())
        traced = QuerySession(clip, zoo=zoo, config=PlannerConfig(enable_tracing=True))
        base = plain.execute_many(batch())
        tr = traced.execute_many(batch())
        # dataclass equality covers matches, events, aggregates, per-frame
        # costs, and total_ms (the obs field is excluded via compare=False)
        assert tr == base
        assert plain.last_context.clock.elapsed_ms == traced.last_context.clock.elapsed_ms
        assert plain.last_scan_stats == traced.last_scan_stats

    @pytest.mark.parametrize("scenario", ["batch_all_knobs", "multicam_reid", "live"])
    def test_every_subsystem_is_inert(self, scenario, clip, zoo):
        """Tracing off changes nothing but the public obs handles.

        Each scenario runs once traced and once untraced.  Results, clock
        accounts and ``ScanStats`` must match; the untraced run's handles
        must all be None.
        """
        run = getattr(self, f"_run_{scenario}")
        traced, traced_handles = run(clip, zoo, tracing=True)
        plain, plain_handles = run(clip, zoo, tracing=False)
        assert plain == traced
        assert all(handle is not None for handle in traced_handles)
        assert all(handle is None for handle in plain_handles)

    @pytest.mark.parametrize("scenario", ["batch", "multicam", "live"])
    def test_fault_layer_and_index_default_to_shared_inert_objects(self, scenario, clip, zoo):
        """With faults and the index off, every context shares the inert
        fault layer and index view, and no run leaves state on them."""
        inert = (NO_FAULTS, NO_INDEX)
        before = [dict(vars(type(obj))) for obj in inert]
        contexts = getattr(self, f"_contexts_{scenario}")(clip, zoo)
        assert contexts
        for ctx in contexts:
            assert ctx.faults is NO_FAULTS
            assert ctx.index is NO_INDEX
        assert [dict(vars(type(obj))) for obj in inert] == before
        assert not any(hasattr(obj, "__dict__") for obj in inert)
        assert dict(NO_INDEX.counters) == {"hits": 0, "misses": 0, "stale": 0, "written": 0}
        assert NO_INDEX.summary() is None

    def _contexts_batch(self, clip, zoo):
        config = PlannerConfig(profile_plans=False, enable_stride_sampling=True)
        session = QuerySession(clip, zoo=zoo, config=config)
        session.execute_many(batch())
        return [session.last_context]

    def _contexts_multicam(self, clip, zoo):
        feeds = {"north": clip, "south": camera_clip("banff", duration_s=6, seed=1)}
        config = PlannerConfig(profile_plans=False, enable_cross_camera_reid=True)
        session = MultiCameraSession(feeds, zoo=zoo, config=config)
        session.execute_many(batch())
        return [s.last_context for s in session.sessions.values()]

    def _contexts_live(self, clip, zoo):
        config = PlannerConfig(
            profile_plans=False, enable_live=True, enable_stride_sampling=True
        )
        session = LiveSession(LiveFeed(clip, fps=clip.fps * 3, seed=5), zoo=zoo, config=config)
        session.run(batch())
        return [session.last_context]

    @staticmethod
    def _clock(clock):
        return clock.elapsed_ms, dict(clock.by_account), dict(clock.calls)

    def _run_batch_all_knobs(self, clip, zoo, tracing):
        # Faults with a crash and checkpoint/resume, the index and stride
        # sampling, all in one batch.
        faults = FaultConfig(
            seed=11,
            transient_rate=0.05,
            corrupt_frame_rate=0.02,
            crash_frames=((clip.spec.name, 70),),
            checkpoint_interval=25,
        )
        config = PlannerConfig(
            profile_plans=False,
            enable_tracing=tracing,
            enable_fault_tolerance=True,
            fault_config=faults,
            enable_video_index=True,
            enable_stride_sampling=True,
        )
        session = QuerySession(clip, zoo=zoo, config=config)
        results = session.execute_many(batch())
        stats = session.last_scan_stats
        assert stats["scan_resumes"] == 1 and stats["frames_degraded"] > 0
        assert session.last_context.index.counters["written"] > 0
        observed = (results, self._clock(session.last_context.clock), stats)
        handles = [session.last_obs, session.last_trace] + [r.obs for r in results]
        return observed, handles

    def _run_multicam_reid(self, clip, zoo, tracing):
        feeds = {"north": clip, "south": camera_clip("banff", duration_s=6, seed=1)}
        config = PlannerConfig(
            profile_plans=False, enable_tracing=tracing, enable_cross_camera_reid=True
        )
        session = MultiCameraSession(feeds, zoo=zoo, config=config)
        merged = session.execute_many(batch())
        assert session.last_links.identities
        observed = (
            [dict(m.per_camera) for m in merged],
            dict(session.last_links.identities),
            {name: self._clock(s.last_context.clock) for name, s in session.sessions.items()},
            self._clock(session.link_clock),
            session.last_scan_stats,
        )
        handles = [session.last_obs] + [s.last_obs for s in session.sessions.values()]
        handles += [r.obs for m in merged for r in m.per_camera.values()]
        return observed, handles

    def _run_live(self, clip, zoo, tracing):
        # 3x native pacing with reordering and duplicates: pressure stride,
        # shedding and late drops all fire.
        feed = LiveFeed(clip, fps=clip.fps * 3, seed=5, reorder_rate=0.1, duplicate_rate=0.05)
        config = PlannerConfig(
            profile_plans=False,
            enable_live=True,
            enable_tracing=tracing,
            enable_stride_sampling=True,
            enable_fault_tolerance=True,
            fault_config=FaultConfig(seed=11, transient_rate=0.05),
        )
        config = replace(config, live_config=replace(config.live_config, max_buffered_frames=16))
        session = LiveSession(feed, zoo=zoo, config=config)
        stats = session.run(batch())
        assert stats.frames_shed > 0 and stats.frames_late_dropped > 0
        observed = (
            [(a.query_name, a.event, a.emitted_at_ms) for a in session.alerts()],
            stats.as_dict(),
            self._clock(session.clock),
            session.last_scan_stats,
        )
        return observed, [session.last_obs]


# -- traced single-video runs -----------------------------------------------------


class TestTracedRun:
    @pytest.fixture(scope="class")
    def traced(self, clip, zoo):
        session = QuerySession(clip, zoo=zoo, config=PlannerConfig(enable_tracing=True))
        results = session.execute_many(batch())
        return session, results

    def test_span_taxonomy(self, traced):
        session, _ = traced
        tracer = session.last_trace
        names = {s.name for s in tracer.spans()}
        assert {"execute-batch", "plan", "profile", "scan", "frame-gate-eval", "model-invocation"} <= names
        (root,) = tracer.spans("execute-batch")
        (scan,) = tracer.spans("scan")
        assert scan.parent_id == root.span_id
        assert all(s.parent_id is not None for s in tracer.spans("model-invocation"))

    def test_scan_span_carries_virtual_time(self, traced):
        session, _ = traced
        (scan,) = session.last_trace.spans("scan")
        assert scan.virt_ms is not None and scan.virt_ms > 0
        assert scan.wall_ms is not None

    def test_explain_reports_every_candidate(self, traced):
        _, results = traced
        report = results[0].explain()
        assert "EXPLAIN ANALYZE" in report
        data = results[0].obs
        # the gated query registers a frame filter, so the planner had a
        # real choice: every candidate shows estimated + profiled cost
        assert len(data.candidates) >= 2
        assert sum(c.chosen for c in data.candidates) == 1
        for candidate in data.candidates:
            assert candidate.estimated_cost_ms is not None
            assert candidate.profiled_cost_ms is not None
            assert candidate.variant in report
        assert "Frame gate:" in report
        assert "Detector budget:" in report

    def test_spans_match_the_clock_model_invocations(self, traced):
        session, _ = traced
        tracer = session.last_trace
        yolox_calls = session.last_context.clock.calls.get("yolox", 0)
        detector_spans = [
            s for s in tracer.spans("model-invocation") if s.attrs["model"] == "yolox"
        ]
        assert yolox_calls > 0
        assert len(detector_spans) == yolox_calls
        gate_spans = [
            s for s in tracer.spans("frame-gate-eval") if s.attrs["model"] == "no_red_on_road"
        ]
        assert gate_spans
        assert all(s.virt_ms is not None for s in gate_spans)

    def test_decision_log_accounts_for_all_gated_frames(self, traced):
        session, _ = traced
        stats = session.last_scan_stats
        obs = session.last_obs
        assert stats["leaf_frames_gated"] > 0
        assert obs.decisions.count("frame-gated") == stats["leaf_frames_gated"]
        assert obs.decisions.count("frame-deferred") == stats["frames_deferred"]


# -- stride decisions -------------------------------------------------------------


class TestStrideDecisions:
    def test_defer_interpolate_and_stride_moves_are_recorded(self, stable_video, zoo):
        config = PlannerConfig(
            profile_plans=False, enable_stride_sampling=True, enable_tracing=True
        )
        session = QuerySession(stable_video, zoo=zoo, config=config)
        session.execute(RedCarQuery())
        stats = session.last_scan_stats
        obs = session.last_obs
        assert stats["frames_deferred"] > 0
        assert obs.decisions.count("frame-deferred", "stride-skip") == stats["frames_deferred"]
        assert obs.decisions.count("frame-interpolated") == stats["frames_interpolated"]
        assert obs.decisions.count("frame-rescanned") == stats["frames_rescanned"]
        assert obs.decisions.count("stride-raised", "stable-streak") == stats["stride_raises"]
        raises = obs.decisions.records("stride-raised")
        assert raises
        assert all(dict(d.attrs)["stride_to"] > dict(d.attrs)["stride_from"] for d in raises)
        # The stride level is the chain of stride moves: each move of a
        # query starts where its previous move ended.
        level = {}
        for d in obs.decisions.records():
            if d.action in ("stride-raised", "stride-reset"):
                attrs = dict(d.attrs)
                assert attrs["stride_from"] == level.get(d.subject, 1)
                level[d.subject] = attrs["stride_to"]


# -- one count, one record -------------------------------------------------------


def test_scan_stats_as_dict_compatibility_view():
    stats = ScanStats(frames_scanned=3, leaf_frames_gated=2)
    d = stats.as_dict()
    assert d["frames_scanned"] == 3
    assert d["leaf_frames_gated"] == 2
    assert d["early_exit_frame"] is None
    assert ScanStats.from_dict(d) == stats
    assert ScanStats(**d) == stats


class TestDecisionsMatchCounters:
    """Every decision that mirrors a counter is recorded once per count.

    Single feed and no crash: a resume rolls ``ScanStats`` back to the
    checkpoint but keeps the decisions recorded after it.
    """

    def test_faulted_indexed_batch(self, clip, zoo):
        config = PlannerConfig(
            profile_plans=False,
            enable_tracing=True,
            enable_fault_tolerance=True,
            fault_config=FaultConfig(
                seed=11, transient_rate=0.05, dead_models=(("color_detect", 60),)
            ),
            enable_video_index=True,
        )
        store = VideoIndexStore()
        for run in ("cold", "warm"):
            session = QuerySession(clip, zoo=zoo, config=config, index_store=store)
            session.execute_many(batch())
            stats = session.last_context.scan_stats
            counters = session.last_context.index.counters
            decisions = session.last_obs.decisions
            assert decisions.evicted == 0
            assert stats.model_retries > 0 and stats.circuit_opens > 0
            assert stats.leaf_frames_gated > 0
            assert counters["hits" if run == "warm" else "misses"] > 0
            assert decisions.count("model-retry") == stats.model_retries
            assert decisions.count("circuit-opened") == stats.circuit_opens
            assert decisions.count("frame-gated") == stats.leaf_frames_gated
            assert decisions.count("index-hit") == counters["hits"]
            assert decisions.count("index-miss") == counters["misses"]
            assert decisions.count("index-written") == counters["written"]

    def test_overloaded_live_run(self, clip, zoo):
        feed = LiveFeed(
            clip,
            fps=clip.fps * 3,
            seed=5,
            reorder_rate=0.1,
            duplicate_rate=0.05,
            disconnects=((1000.0, 1800.0),),
        )
        config = PlannerConfig(
            profile_plans=False,
            enable_live=True,
            enable_tracing=True,
            enable_stride_sampling=True,
        )
        config = replace(
            config,
            live_config=replace(
                config.live_config, max_buffered_frames=16, stall_timeout_ms=200.0
            ),
        )
        session = LiveSession(feed, zoo=zoo, config=config)
        stats = session.run(batch())
        decisions = session.last_obs.decisions
        assert decisions.evicted == 0
        assert stats.frames_shed > 0 and stats.frames_late_dropped > 0
        assert stats.frames_reordered > 0 and stats.reconnects > 0
        assert decisions.count("frame-shed") == stats.frames_shed
        assert decisions.count("late-frame-dropped") == stats.frames_late_dropped
        assert decisions.count("frame-reordered") == stats.frames_reordered
        assert decisions.count("feed-reconnected") == stats.reconnects


# -- multi-camera -----------------------------------------------------------------


class TestMultiCamera:
    def feeds(self):
        return {
            "north": camera_clip("jackson", duration_s=6, seed=2),
            "south": camera_clip("banff", duration_s=6, seed=1),
        }

    def test_lanes_and_decisions_do_not_depend_on_feed_order(self, zoo):
        config = PlannerConfig(enable_tracing=True)
        feeds = self.feeds()
        forward = MultiCameraSession(feeds, zoo=zoo, config=config)
        backward = MultiCameraSession(dict(reversed(feeds.items())), zoo=zoo, config=config)
        got = forward.execute_many(batch())
        want = backward.execute_many(batch())
        for name in feeds:
            assert got[0].camera(name) == want[0].camera(name)
            assert got[1].camera(name) == want[1].camera(name)

        def per_lane(session):
            tracer = session.last_obs.tracer
            return {s.lane: s.virt_ms for s in tracer.spans("scan")}

        # Each feed's scan keeps its own lane and virtual time.
        assert per_lane(forward) == per_lane(backward)
        assert set(per_lane(forward)) == {"north", "south"}
        assert forward.last_obs.tracer.lanes() == ["main", "north", "south"]
        assert backward.last_obs.tracer.lanes() == ["main", "south", "north"]
        assert forward.last_obs.decisions.summary() == backward.last_obs.decisions.summary()

    def test_feed_spans_parent_under_the_batch_root(self, zoo):
        session = MultiCameraSession(
            self.feeds(), zoo=zoo, config=PlannerConfig(enable_tracing=True)
        )
        session.execute_many(batch())
        tracer = session.last_obs.tracer
        (root,) = tracer.spans("execute-batch")
        feed_spans = tracer.spans("feed-scan")
        # One feed-scan per feed, in feed order, each on its own lane.
        assert [s.lane for s in feed_spans] == ["north", "south"]
        assert [s.attrs["feed"] for s in feed_spans] == ["north", "south"]
        assert all(s.parent_id == root.span_id for s in feed_spans)
        by_id = {s.span_id: s for s in tracer.spans()}
        for scan in tracer.spans("scan"):
            assert by_id[scan.parent_id].name == "feed-scan"
            assert by_id[scan.parent_id].lane == scan.lane

    def test_last_scan_stats_per_feed(self, zoo):
        session = MultiCameraSession(self.feeds(), zoo=zoo)
        assert session.last_scan_stats is None
        session.execute_many(batch())
        stats = session.last_scan_stats
        assert set(stats) == {"north", "south"}
        for per_feed in stats.values():
            assert per_feed["frames_scanned"] > 0

    def test_execute_over_exposes_trace_via_session(self, clip, zoo):
        session = QuerySession(clip, zoo=zoo, config=PlannerConfig(enable_tracing=True))
        session.execute_over({"other": camera_clip("banff", duration_s=6, seed=1)}, batch())
        assert session.last_trace is session.last_multi.last_obs.tracer
        assert "feed-scan" in {s.name for s in session.last_trace.spans()}

    def test_reid_link_span_and_decisions(self, zoo):
        config = PlannerConfig(enable_tracing=True, enable_cross_camera_reid=True)
        session = MultiCameraSession(self.feeds(), zoo=zoo, config=config)
        session.execute_many(batch())
        tracer = session.last_obs.tracer
        (link,) = tracer.spans("reid-link")
        assert link.virt_ms is not None
        summary = session.last_obs.decisions.summary()
        reid_actions = {a for a in summary if a.startswith("reid-")}
        assert "reid-unmatched" in reid_actions or "reid-excluded" in reid_actions
