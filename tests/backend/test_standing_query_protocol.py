"""Tests for the standing-query protocol: watermarks, trimming, live pruning.

A standing query never finalizes from history, so correctness of live mode
rests on three stream-level guarantees exercised here: the event grouper's
watermarks bound what may still close (and gate what history may be
released), ``trim_closed``/``prune_live`` keep memory bounded without
touching open runs, and the re-sequencer feeds the scan strictly in order
even when the wire delivers frames out of order or twice.
"""

from __future__ import annotations

import pytest

from repro.backend.live import LiveSession
from repro.backend.planner import PlannerConfig
from repro.backend.scheduler import ScanScheduler
from repro.backend.session import QuerySession
from repro.backend.streaming import OnlineEventGrouper
from repro.common.config import VideoSpec
from repro.frontend.builtin import Car
from repro.frontend.query import Query
from repro.videosim.entities import ObjectSpec
from repro.videosim.livefeed import LiveFeed
from repro.videosim.trajectory import StationaryTrajectory
from repro.videosim.video import SyntheticVideo

SIG_A = (("car", 1),)
SIG_B = (("car", 2),)


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id,)


def burst_video(bursts, duration_s=20, fps=10):
    """A red car present only during the given (enter, exit) frame windows."""
    spec = VideoSpec("bursts", fps=fps, width=640, height=480, duration_s=duration_s)
    objects = [
        ObjectSpec(
            object_id=i + 1,
            class_name="car",
            trajectory=StationaryTrajectory((100 + 60 * (i % 5), 300)),
            size=(100, 50),
            enter_frame=enter,
            exit_frame=exit_,
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        for i, (enter, exit_) in enumerate(bursts)
    ]
    return SyntheticVideo(spec, objects, seed=7)


class TestWatermarks:
    def test_watermarks_default_past_current_frame_when_nothing_open(self):
        grouper = OnlineEventGrouper(max_gap=3)
        assert grouper.start_watermark(10) == 11
        assert grouper.end_watermark(10) == 11

    def test_open_run_pins_both_watermarks(self):
        grouper = OnlineEventGrouper(max_gap=3)
        grouper.observe(5, [SIG_A])
        grouper.observe(8, [SIG_A])
        # Whatever closes next starts no earlier than 5, ends no earlier
        # than 8 — the run is still open and may extend.
        assert grouper.start_watermark(9) == 5
        assert grouper.end_watermark(9) == 8

    def test_watermark_is_min_over_open_runs(self):
        grouper = OnlineEventGrouper(max_gap=10)
        grouper.observe(2, [SIG_A])
        grouper.observe(6, [SIG_B])
        assert grouper.start_watermark(7) == 2
        grouper.observe(20, [SIG_B])  # gap 18 > 10 closes A (and old B)
        assert grouper.start_watermark(20) == 20

    def test_watermark_advances_as_runs_close(self):
        grouper = OnlineEventGrouper(max_gap=2)
        marks = []
        for fid in range(0, 20):
            grouper.observe(fid, [SIG_A] if fid % 7 < 3 else ())
            marks.append(grouper.start_watermark(fid))
        # Never retreats faster than runs allow: each mark bounds the next.
        for prev, cur in zip(marks, marks[1:]):
            assert cur >= prev


class TestTrimming:
    def _grouper_with_closed_runs(self, n_runs):
        grouper = OnlineEventGrouper(max_gap=1, min_length=1)
        fid = 0
        for _ in range(n_runs):
            grouper.observe(fid, [SIG_A])
            fid += 5  # gap of 5 > max_gap closes the run on the next observe
        grouper.observe(fid, ())
        return grouper

    def test_drain_hands_out_each_event_exactly_once(self):
        grouper = self._grouper_with_closed_runs(3)
        first = grouper.drain()
        assert len(first) == 3
        assert grouper.drain() == []

    def test_trim_drops_only_drained_events(self):
        grouper = self._grouper_with_closed_runs(4)
        drained = grouper.drain()
        assert len(drained) == 4
        # Close one more run without draining it.
        grouper.observe(100, [SIG_B])
        grouper.observe(110, ())
        dropped = grouper.trim_closed()
        assert dropped == 4
        # The undrained event survived the trim and still reaches drain().
        assert [e.signature for e in grouper.drain()] == [SIG_B]

    def test_num_closed_is_monotonic_across_trims(self):
        grouper = self._grouper_with_closed_runs(3)
        assert grouper.num_closed == 3
        grouper.drain()
        grouper.trim_closed()
        assert grouper.num_closed == 3  # trimming forgets events, not counts
        grouper.observe(200, [SIG_A])
        grouper.observe(210, ())
        assert grouper.num_closed == 4

    def test_trim_is_a_noop_with_nothing_drained(self):
        grouper = self._grouper_with_closed_runs(2)
        assert grouper.trim_closed() == 0
        assert len(grouper.drain()) == 2


class TestSkippedFramePruning:
    def test_skipped_frames_inside_open_run_survive_and_attach(self):
        grouper = OnlineEventGrouper(max_gap=5)
        grouper.observe(0, [SIG_A])
        grouper.mark_skipped(1)
        grouper.mark_skipped(2)
        for fid in range(3, 40):
            grouper.observe(fid, [SIG_A] if fid < 6 else ())
        (event,) = grouper.drain()
        assert event.skipped_frames == (1, 2)

    def test_dead_skipped_frames_are_pruned(self):
        grouper = OnlineEventGrouper(max_gap=3)
        grouper.mark_skipped(0)
        grouper.mark_skipped(1)
        # No run can reach back past frame_id - max_gap once nothing is open.
        grouper.observe(50, [SIG_A])
        assert all(f >= 47 for f in grouper._skipped)

    def test_skipped_horizon_respects_oldest_open_run(self):
        grouper = OnlineEventGrouper(max_gap=3)
        grouper.observe(0, [SIG_A])
        grouper.mark_skipped(1)
        grouper.observe(2, [SIG_A])
        grouper.observe(3, [SIG_A])
        # The open run started at 0: frame 1 must not be pruned even though
        # it is far behind the current frame's max_gap horizon.
        for fid in range(4, 30):
            grouper.observe(fid, [SIG_A])
        assert 1 in grouper._skipped


class TestPruneLive:
    def _compiled_stream(self, video, zoo):
        config = PlannerConfig(profile_plans=False)
        session = QuerySession(video, zoo=zoo, config=config)
        session.planner.begin_batch([RedCarQuery()])
        stream = session.executor.compile(
            RedCarQuery(), video, session.planner, ensure_events=True
        )
        from repro.backend.runtime import ExecutionContext
        from repro.common.clock import SimClock

        ctx = ExecutionContext(video, zoo, clock=SimClock())
        return stream, ctx

    def test_prune_releases_closed_history_keeps_open_run(self, zoo):
        video = burst_video([(0, 30), (60, None)], duration_s=12)
        stream, ctx = self._compiled_stream(video, zoo)
        scheduler = ScanScheduler([stream], ctx, early_exit=False)
        for fid in range(video.num_frames):
            scheduler.step(video.frame(fid))
            stream.drain_events()
            stream.prune_live(fid)
        # The first burst (frames 0..30) closed and was drained long ago;
        # its matches must be gone.  The second burst is an open run whose
        # history the watermark protects.
        kept = sorted(stream.result.matches)
        assert kept and kept[0] >= 60
        assert not stream.result.per_frame_ms

    def test_bounded_stream_never_prunes(self, zoo):
        video = burst_video([(0, 30)], duration_s=6)
        config = PlannerConfig(profile_plans=False)
        session = QuerySession(video, zoo=zoo, config=config)
        session.planner.begin_batch([RedCarQuery()])
        stream = session.executor.compile(
            RedCarQuery(), video, session.planner, ensure_events=True
        )
        stream.limit = 1  # bounded: finalize() replays result history
        from repro.backend.runtime import ExecutionContext
        from repro.common.clock import SimClock

        ctx = ExecutionContext(video, zoo, clock=SimClock())
        scheduler = ScanScheduler([stream], ctx, early_exit=False)
        for fid in range(video.num_frames):
            scheduler.step(video.frame(fid))
            stream.prune_live(fid)
        # finalize() replays history for bounded streams; it must survive.
        assert stream.result.matches

    def test_live_session_memory_stays_bounded(self, zoo):
        """Closed-run history does not accumulate across a long live run."""
        from dataclasses import replace

        bursts = [(i * 40, i * 40 + 10) for i in range(14)]
        video = burst_video(bursts, duration_s=60)
        config = PlannerConfig(profile_plans=False, enable_live=True)
        config = replace(
            config, live_config=replace(config.live_config, prune_interval_frames=16)
        )
        session = LiveSession(LiveFeed(video), zoo=zoo, config=config)
        session.run([RedCarQuery()])
        stream = session._streams[0]
        # 14 bursts × 11 frames matched ≈ 154 match records; bounded-memory
        # pruning must keep only the un-prunable tail.
        interval = config.live_config.prune_interval_frames
        assert len(stream.result.matches) <= 2 * interval
        # Cost samples refill between prunes; bounded by the interval, with
        # slack for the post-drain tail the shutdown path appends.
        assert len(stream.result.per_frame_ms) <= 3 * interval
        assert session.stats.alerts_emitted >= len(bursts) - 1


class TestDisorderedDelivery:
    def test_scan_sees_strictly_increasing_frame_ids(self, zoo, monkeypatch):
        """Reorder + duplicates on the wire; the scan still sees order."""
        video = burst_video([(0, None)], duration_s=20)
        seen = []
        original = ScanScheduler.step

        def spy(self, frame):
            seen.append(frame.frame_id)
            return original(self, frame)

        monkeypatch.setattr(ScanScheduler, "step", spy)
        feed = LiveFeed(video, seed=9, reorder_rate=0.25, duplicate_rate=0.15)
        config = PlannerConfig(profile_plans=False, enable_live=True)
        session = LiveSession(feed, zoo=zoo, config=config)
        stats = session.run([RedCarQuery()])
        assert stats.frames_reordered > 0 and stats.duplicates_delivered > 0
        assert seen == sorted(set(seen)), "dispatch must be in-order, dup-free"

    def test_duration_standing_query_matches_batch_under_disorder(self, zoo):
        from repro.frontend.higher_order import DurationQuery

        video = burst_video([(0, 25), (50, 90), (120, 130)], duration_s=20)
        batch = QuerySession(
            video, zoo=zoo, config=PlannerConfig(profile_plans=False)
        ).execute(DurationQuery(RedCarQuery(), duration_s=2.0))
        feed = LiveFeed(video, seed=9, reorder_rate=0.2, duplicate_rate=0.1)
        config = PlannerConfig(profile_plans=False, enable_live=True)
        session = LiveSession(feed, zoo=zoo, config=config)
        session.run([DurationQuery(RedCarQuery(), duration_s=2.0)])
        live_events = sorted(
            (a.event.start_frame, a.event.end_frame, a.event.signature)
            for a in session.alerts()
        )
        batch_events = sorted(
            (e.start_frame, e.end_frame, e.signature) for e in batch.events
        )
        assert live_events == batch_events

    def test_watermarks_hold_under_disordered_observation_replay(self):
        """Replaying a disordered wire through the re-sequencer keeps the
        grouper's watermark guarantee: no event ever closes with a start
        before the watermark reported at its close time."""
        grouper = OnlineEventGrouper(max_gap=4, min_length=1)
        pattern = [SIG_A if f % 11 < 4 else (SIG_B if f % 7 < 2 else None) for f in range(80)]
        drained = 0
        for fid, sig in enumerate(pattern):
            mark = grouper.start_watermark(fid - 1) if fid else 0
            grouper.observe(fid, [sig] if sig else ())
            for event in grouper.drain():
                drained += 1
                assert event.start_frame >= mark
        assert drained > 0
