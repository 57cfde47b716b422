"""Integration tests for engine-wide observability.

The contract under test: ``PlannerConfig(enable_tracing=True)`` yields
spans, metrics, decision records, and ``explain()`` — while leaving every
result byte-identical to an untraced run; ``enable_tracing=False`` (the
default) leaves the engine inert (every hook goes to the shared disabled
bundle, and every public obs handle stays None).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backend.live import LiveSession
from repro.backend.planner import PlannerConfig
from repro.backend.session import MultiCameraSession, QuerySession
from repro.common.config import FaultConfig, VideoSpec
from repro.faults import NO_FAULTS
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.query import Query
from repro.index.store import NO_INDEX
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
        session = MultiCameraSession(feeds, zoo=zoo, config=config, max_workers=2)
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
        session = MultiCameraSession(feeds, zoo=zoo, config=config, max_workers=2)
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

    def test_metrics_registry_counts_model_invocations(self, traced):
        session, _ = traced
        obs = session.last_obs
        ctx = session.last_context
        yolox_calls = ctx.clock.calls.get("yolox", 0)
        assert obs.metrics.counter("detector_invocations", model="yolox") == yolox_calls
        assert obs.metrics.histogram("gate_eval_ms", model="no_red_on_road").count > 0

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
        assert obs.metrics.histogram("stride_level").count > 0


# -- multi-camera -----------------------------------------------------------------


class TestMultiCamera:
    def feeds(self):
        return {
            "north": camera_clip("jackson", duration_s=6, seed=2),
            "south": camera_clip("banff", duration_s=6, seed=1),
        }

    def test_parallel_lanes_and_determinism(self, zoo):
        config = PlannerConfig(enable_tracing=True)
        par = MultiCameraSession(self.feeds(), zoo=zoo, config=config, max_workers=2)
        ser = MultiCameraSession(self.feeds(), zoo=zoo, config=config, max_workers=1)
        rp = par.execute_many(batch())
        rs = ser.execute_many(batch())
        for name in par.sessions:
            assert rp[0].camera(name) == rs[0].camera(name)
            assert rp[1].camera(name) == rs[1].camera(name)
        # virtual time is worker-count independent (wall time is not)
        assert par.last_obs.tracer.total_virt_ms("scan") == ser.last_obs.tracer.total_virt_ms("scan")
        assert set(par.last_obs.tracer.lanes()) == {"main", "north", "south"}

    def test_feed_spans_parent_under_the_batch_root(self, zoo):
        session = MultiCameraSession(
            self.feeds(), zoo=zoo, config=PlannerConfig(enable_tracing=True), max_workers=2
        )
        session.execute_many(batch())
        tracer = session.last_obs.tracer
        (root,) = tracer.spans("execute-batch")
        feed_spans = tracer.spans("feed-scan")
        assert {s.lane for s in feed_spans} == {"north", "south"}
        assert all(s.parent_id == root.span_id for s in feed_spans)

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
        session = MultiCameraSession(self.feeds(), zoo=zoo, config=config, max_workers=2)
        session.execute_many(batch())
        tracer = session.last_obs.tracer
        (link,) = tracer.spans("reid-link")
        assert link.virt_ms is not None
        summary = session.last_obs.decisions.summary()
        reid_actions = {a for a in summary if a.startswith("reid-")}
        assert "reid-unmatched" in reid_actions or "reid-excluded" in reid_actions
