"""Tests for live unbounded ingestion: standing queries, backpressure, recovery.

Covers the ``PlannerConfig.live`` opt-in (off = batch path untouched), the
replay-equality guarantee (a finite recording pushed through a
:class:`LiveSession` with no overload yields the batch path's event set),
exact shed/late-drop accounting under overload, accuracy-first degradation
(stride coarsening strictly before hard drops), the reorder window,
duplicate handling, the stall watchdog's reconnect machinery with
standing-query state surviving the outage, alert sinks, and the live hooks
on :class:`~repro.backend.scheduler.ScanScheduler`.
"""

from __future__ import annotations

import os

import pytest

from repro.backend.live import Alert, CallbackSink, LiveSession, QueueSink
from repro.backend.planner import PlannerConfig
from repro.backend.runtime import ExecutionContext
from repro.backend.scheduler import ScanScheduler
from repro.backend.session import QuerySession
from repro.common.clock import SimClock
from repro.common.config import LiveConfig, ObsConfig, StrideConfig, VideoSpec
from repro.common.errors import ExecutionError, FeedFailedError
from repro.frontend.builtin import Car, Person
from repro.frontend.higher_order import DurationQuery
from repro.frontend.query import Query
from repro.videosim.datasets import camera_clip
from repro.videosim.entities import ObjectSpec
from repro.videosim.livefeed import LiveFeed
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo

#: The CI overload-soak job sweeps this seed (11, 23, 47): every ingest
#: guarantee below must hold for *any* deterministic chaos schedule, not
#: just the one the default pins.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "5"))


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


def live_session_config(**live_kw) -> PlannerConfig:
    """A PlannerConfig with ``live=LiveConfig(**live_kw)``; the ``stride``,
    ``obs`` and ``faults`` keywords go to the PlannerConfig itself."""
    planner_kw = {key: live_kw.pop(key) for key in ("stride", "obs", "faults") if key in live_kw}
    return PlannerConfig(profile_plans=False, live=LiveConfig(**live_kw), **planner_kw)


@pytest.fixture(scope="module")
def red_car_video():
    """One red car and one person for 30 s: events exist for both queries."""
    spec = VideoSpec("livetest", fps=10, width=640, height=480, duration_s=30)
    car = ObjectSpec(
        object_id=1,
        class_name="car",
        trajectory=LinearTrajectory((50, 300), (2.0, 0.0)),
        size=(100, 50),
        attributes={
            "color": "red",
            "vehicle_type": "sedan",
            "license_plate": "ABC1245",
            "direction": "go_straight",
            "speeding": False,
        },
    )
    person = ObjectSpec(
        object_id=2,
        class_name="person",
        trajectory=StationaryTrajectory((400, 350)),
        size=(30, 80),
        attributes={"clothing": "jeans", "hair": "black"},
        default_action="standing",
    )
    return SyntheticVideo(spec, [car, person], seed=7)


def event_set(alerts):
    return sorted(
        (a.query_name, a.event.start_frame, a.event.end_frame, a.event.signature)
        for a in alerts
    )


def batch_event_set(video, zoo, queries):
    config = PlannerConfig(profile_plans=False)
    results = QuerySession(video, zoo=zoo, config=config).execute_many(
        queries, ensure_events=True
    )
    return sorted(
        (r.query_name, e.start_frame, e.end_frame, e.signature)
        for r in results
        for e in r.events
    )


class TestOptIn:
    def test_live_session_requires_a_live_config(self, red_car_video, zoo):
        with pytest.raises(ExecutionError, match=r"live=LiveConfig\(\)"):
            LiveSession(
                LiveFeed(red_car_video), zoo=zoo,
                config=PlannerConfig(profile_plans=False, live=None),
            )

    def test_live_config_does_not_perturb_batch_results(self, red_car_video, zoo):
        """A live config only gates LiveSession; batch execution is untouched."""
        batch = lambda: [RedCarQuery(), DurationQuery(RedCarQuery(), duration_s=1.0)]
        off = PlannerConfig(profile_plans=False, live=None)
        on = PlannerConfig(profile_plans=False, live=LiveConfig())
        res_off = QuerySession(red_car_video, zoo=zoo, config=off).execute_many(batch())
        res_on = QuerySession(red_car_video, zoo=zoo, config=on).execute_many(batch())
        for a, b in zip(res_off, res_on):
            assert a == b  # full dataclass equality, every field


class TestReplayEquality:
    def test_unloaded_replay_matches_batch_event_set(self, red_car_video, zoo):
        queries = [RedCarQuery(), PersonQuery()]
        session = LiveSession(LiveFeed(red_car_video), zoo=zoo, config=live_session_config())
        stats = session.run([RedCarQuery(), PersonQuery()])
        assert event_set(session.alerts()) == batch_event_set(
            red_car_video, zoo, queries
        )
        assert stats.frames_delivered == red_car_video.num_frames
        assert stats.frames_processed == stats.frames_delivered
        assert stats.frames_shed == 0 and stats.frames_late_dropped == 0

    def test_replay_with_reordering_within_window_matches_batch(self, red_car_video, zoo):
        """The reorder window re-sequences; the scan sees frames in order."""
        feed = LiveFeed(red_car_video, seed=CHAOS_SEED, reorder_rate=0.15)
        assert feed.reordered_frame_ids
        session = LiveSession(feed, zoo=zoo, config=live_session_config())
        stats = session.run([RedCarQuery()])
        assert stats.frames_reordered > 0
        assert stats.frames_late_dropped == 0  # window absorbed the disorder
        assert event_set(session.alerts()) == batch_event_set(
            red_car_video, zoo, [RedCarQuery()]
        )

    def test_duplicates_are_dropped_and_accounted(self, red_car_video, zoo):
        feed = LiveFeed(red_car_video, seed=CHAOS_SEED, duplicate_rate=0.1)
        session = LiveSession(feed, zoo=zoo, config=live_session_config(obs=ObsConfig()))
        stats = session.run([RedCarQuery()])
        assert stats.duplicates_delivered > 0
        assert stats.frames_late_dropped == stats.duplicates_delivered
        assert stats.frames_delivered == (
            stats.frames_processed + stats.frames_shed + stats.frames_late_dropped
        )
        decisions = session.last_obs.decisions
        assert decisions.count("late-frame-dropped", "duplicate-delivery") == (
            stats.duplicates_delivered
        )
        assert event_set(session.alerts()) == batch_event_set(
            red_car_video, zoo, [RedCarQuery()]
        )


class TestOverload:
    def test_sustained_overload_bounds_memory_and_accounts_exactly(
        self, red_car_video, zoo
    ):
        """10x ingest: the buffer cap holds and every frame is accounted."""
        feed = LiveFeed(red_car_video, fps=100, seed=CHAOS_SEED)
        config = live_session_config(obs=ObsConfig(), max_buffered_frames=32)
        session = LiveSession(feed, zoo=zoo, config=config)
        stats = session.run([RedCarQuery()])
        assert stats.peak_buffered <= 32
        assert stats.frames_shed > 0
        assert stats.frames_delivered == (
            stats.frames_processed + stats.frames_shed + stats.frames_late_dropped
        )
        # Alerts still flowed under overload.
        assert stats.alerts_emitted > 0
        # Shed frames are labelled into event provenance, not silently lost.
        decisions = session.last_obs.decisions
        assert decisions.count("frame-shed", "queue-over-cap") == stats.frames_shed

    def test_stride_coarsens_before_any_hard_drop(self, red_car_video, zoo):
        """Accuracy is shed first: pressure raises precede the first shed."""
        feed = LiveFeed(red_car_video, fps=100, seed=CHAOS_SEED)
        config = live_session_config(stride=StrideConfig(), obs=ObsConfig())
        session = LiveSession(feed, zoo=zoo, config=config)
        stats = session.run([RedCarQuery()])
        assert stats.pressure_raises > 0
        assert stats.peak_pressure_stride > 1
        records = session.last_obs.decisions.records()
        first_raise = next(
            i for i, d in enumerate(records) if d.action == "pressure-stride-raised"
        )
        sheds = [i for i, d in enumerate(records) if d.action == "frame-shed"]
        if sheds:
            assert first_raise < sheds[0]

    def test_pressure_stride_relaxes_when_queue_drains(self, red_car_video, zoo):
        """After a lag burst the stride floor returns toward 1."""
        feed = LiveFeed(red_car_video, lag_bursts=[(50, 99, 3000.0)], seed=CHAOS_SEED)
        config = live_session_config(stride=StrideConfig())
        session = LiveSession(feed, zoo=zoo, config=config)
        session.run([RedCarQuery()])
        # The session-side floor is private; observe via the scheduler.
        assert session._scheduler.pressure_stride == 1

    def test_shed_frames_label_event_provenance(self, zoo):
        """An event spanning shed frames lists them in skipped_frames."""
        spec = VideoSpec("shedlabel", fps=10, width=640, height=480, duration_s=30)
        car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=StationaryTrajectory((100, 300)),
            size=(100, 50),
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        video = SyntheticVideo(spec, [car], seed=7)
        feed = LiveFeed(video, fps=100, seed=CHAOS_SEED)
        session = LiveSession(
            feed, zoo=zoo, config=live_session_config(max_buffered_frames=16)
        )
        stats = session.run([RedCarQuery()])
        assert stats.frames_shed > 0
        skipped = {
            f for a in session.alerts() for f in a.event.skipped_frames
        }
        assert skipped, "shed frames inside events must be labelled"


class TestDecodeOnDemand:
    def test_shed_frames_are_never_rendered(self, zoo, renders):
        """Shed frames are never rendered; strided ones only when a model reads them."""
        clip = camera_clip("jackson", duration_s=8, seed=2)
        feed = LiveFeed(clip, fps=clip.fps * 3, seed=CHAOS_SEED)
        config = live_session_config(
            stride=StrideConfig(), obs=ObsConfig(), max_buffered_frames=16
        )
        session = LiveSession(feed, zoo=zoo, config=config)
        stats = session.run([RedCarQuery(), PersonQuery()])
        decisions = session.last_obs.decisions
        shed = {d.frame_id for d in decisions.records("frame-shed")}
        assert decisions.evicted == 0
        assert stats.frames_shed > 0 and len(shed) == stats.frames_shed
        rendered = [frame_id for _, frame_id in renders]
        assert len(rendered) == len(set(rendered))
        assert not shed & set(rendered)
        assert len(rendered) < stats.frames_processed


class TestWatchdog:
    def test_disconnect_recovers_with_standing_state_intact(self, red_car_video, zoo):
        """A mid-stream outage reconnects; the scan continues afterwards."""
        feed = LiveFeed(red_car_video, disconnects=[(1000.0, 1800.0)])
        config = live_session_config(stall_timeout_ms=300.0)
        session = LiveSession(feed, zoo=zoo, config=config)
        stats = session.run([RedCarQuery()])
        assert stats.stalls >= 1
        assert stats.reconnects >= 1
        assert stats.frames_lost == 8  # captures at 1000..1700 ms
        # Frames on both sides of the outage were processed by one scheduler.
        assert stats.frames_processed == red_car_video.num_frames - stats.frames_lost
        assert stats.frames_delivered == (
            stats.frames_processed + stats.frames_shed + stats.frames_late_dropped
        )

    def test_outage_spanning_event_is_labelled(self, zoo):
        """A short outage inside one long event lands in skipped_frames."""
        spec = VideoSpec("outage", fps=10, width=640, height=480, duration_s=20)
        car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=StationaryTrajectory((100, 300)),
            size=(100, 50),
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        video = SyntheticVideo(spec, [car], seed=7)
        # 4 lost frames < the grouper's max_gap of 5: the run stays open.
        feed = LiveFeed(video, disconnects=[(1000.0, 1400.0)])
        session = LiveSession(
            feed, zoo=zoo, config=live_session_config(stall_timeout_ms=200.0)
        )
        stats = session.run([RedCarQuery()])
        assert stats.frames_lost == 4
        spanning = [
            a for a in session.alerts()
            if a.event.start_frame < 10 and a.event.end_frame >= 14
        ]
        assert spanning, "the event must span the outage"
        for alert in spanning:
            assert {10, 11, 12, 13} <= set(alert.event.skipped_frames)

    def test_reconnect_exhaustion_raises_feed_failed(self, red_car_video, zoo):
        """An outage longer than every backoff kills the feed."""
        # Ends before the recording does, so frames remain scheduled and the
        # watchdog (not feed exhaustion) decides the session's fate.
        feed = LiveFeed(red_car_video, disconnects=[(1000.0, 25_000.0)])
        config = live_session_config(
            stall_timeout_ms=200.0,
            max_reconnect_attempts=3,
            reconnect_backoff_base_ms=10.0,
        )
        session = LiveSession(feed, zoo=zoo, config=config)
        with pytest.raises(FeedFailedError):
            session.run([RedCarQuery()])

    def test_runs_are_deterministic_across_repeats_and_seeds(self, red_car_video, zoo):
        """Same seed → identical stats and alerts; chaos seeds all recover."""

        def run(seed):
            feed = LiveFeed(
                red_car_video, seed=seed, jitter_ms=5.0, reorder_rate=0.1,
                disconnects=[(1500.0, 2100.0)],
            )
            session = LiveSession(
                feed, zoo=zoo, config=live_session_config(stall_timeout_ms=300.0)
            )
            stats = session.run([RedCarQuery()])
            return stats.as_dict(), event_set(session.alerts())

        for seed in (11, 23, 47):
            first = run(seed)
            second = run(seed)
            assert first == second
            stats, _ = first
            assert stats["reconnects"] >= 1
            assert stats["frames_delivered"] == (
                stats["frames_processed"]
                + stats["frames_shed"]
                + stats["frames_late_dropped"]
            )


class TestAlertSinks:
    def test_callback_sink_sees_every_alert(self, red_car_video, zoo):
        seen = []
        session = LiveSession(
            LiveFeed(red_car_video), zoo=zoo, config=live_session_config(),
            sinks=[CallbackSink(seen.append)],
        )
        stats = session.run([RedCarQuery(), PersonQuery()])
        assert len(seen) == stats.alerts_emitted > 0
        assert all(isinstance(a, Alert) for a in seen)
        assert event_set(seen) == event_set(session.alerts())

    def test_queue_sink_is_bounded_and_counts_eviction(self):
        sink = QueueSink(max_alerts=2)
        for i in range(5):
            sink.emit(Alert("cam", "q", event=None, emitted_at_ms=float(i)))
        assert len(sink) == 2
        assert sink.evicted == 3
        drained = sink.drain()
        assert [a.emitted_at_ms for a in drained] == [3.0, 4.0]
        assert len(sink) == 0

    def test_alert_timestamps_are_monotone(self, red_car_video, zoo):
        session = LiveSession(LiveFeed(red_car_video), zoo=zoo, config=live_session_config())
        session.run([PersonQuery()])
        alerts = session.alerts()
        assert alerts
        times = [a.emitted_at_ms for a in alerts]
        assert times == sorted(times)


class TestSchedulerLiveHooks:
    def _scheduler(self, video, zoo, config):
        session = QuerySession(video, zoo=zoo, config=config)
        session.planner.begin_batch([RedCarQuery()])
        stream = session.executor.compile(
            RedCarQuery(), video, session.planner, ensure_events=True
        )
        ctx = ExecutionContext(video, zoo, clock=SimClock())
        return ScanScheduler(
            [stream], ctx, early_exit=False, stride=config.stride
        ), stream, ctx

    def test_set_pressure_stride_requires_stride_machinery(self, red_car_video, zoo):
        config = PlannerConfig(profile_plans=False)
        scheduler, _, _ = self._scheduler(red_car_video, zoo, config)
        assert scheduler.set_pressure_stride(4) is False
        assert scheduler.pressure_stride == 1
        on = PlannerConfig(profile_plans=False, stride=StrideConfig())
        scheduler_on, _, _ = self._scheduler(red_car_video, zoo, on)
        assert scheduler_on.set_pressure_stride(4) is True
        assert scheduler_on.pressure_stride == 4

    def test_note_missing_frame_labels_without_processing(self, red_car_video, zoo):
        config = PlannerConfig(profile_plans=False)
        scheduler, stream, ctx = self._scheduler(red_car_video, zoo, config)
        scheduler.step(red_car_video.frame(0))
        scheduler.note_missing_frame(1)
        scheduler.step(red_car_video.frame(2))
        assert scheduler.stats.frames_scanned == 2  # the missing frame is not
        result = stream.finalize(red_car_video, ctx)
        for event in result.events:
            if event.start_frame <= 1 <= event.end_frame:
                assert 1 in event.skipped_frames


class TestExplain:
    def test_explain_renders_live_section(self, red_car_video, zoo):
        feed = LiveFeed(red_car_video, fps=50, seed=CHAOS_SEED)
        session = LiveSession(
            feed, zoo=zoo, config=live_session_config(obs=ObsConfig())
        )
        session.run([RedCarQuery()])
        report = session.explain()
        assert "Live ingestion:" in report
        assert "delivered=" in report and "shed=" in report
        assert "Decisions:" in report

    def test_explain_before_run_raises(self, red_car_video, zoo):
        session = LiveSession(LiveFeed(red_car_video), zoo=zoo, config=live_session_config())
        with pytest.raises(ExecutionError):
            session.explain()


class TestLiveConfigValidation:
    def test_live_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LiveConfig(max_buffered_frames=0)
        with pytest.raises(ValueError):
            LiveConfig(pressure_low=0.9, pressure_high=0.2)
        with pytest.raises(ValueError):
            LiveConfig(reorder_window=-1)
