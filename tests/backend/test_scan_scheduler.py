"""Tests for the adaptive scan scheduler.

Covers the four tentpole pieces — batch-level frame-filter gating,
early-exit streams, incremental temporal pairing, parallel multi-camera
execution — plus the retention-window frame release and the gate-skip
labelling of closed events.
"""

from collections import Counter

import pytest

from repro.backend.planner import PlannerConfig
from repro.backend.results import Event
from repro.backend.runtime import ExecutionContext
from repro.backend.session import MultiCameraSession, QuerySession
from repro.backend.streaming import OnlineEventGrouper, PlanStream
from repro.common.config import VideoSpec
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.query import Query, count_distinct
from repro.models.detector import GeneralObjectDetector
from repro.videosim.datasets import camera_clip
from repro.videosim.entities import ObjectSpec
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo


class RedCarQuery(Query):
    """Plain Car VObj: no registered filters, so the gate never rejects."""

    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


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


class CarCountQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def video_constraint(self):
        return self.car.score > 0.5

    def video_output(self):
        return (count_distinct(self.car.track_id, label="num_cars"),)


@pytest.fixture
def pr1_config():
    """The pre-scheduler behaviour: filters in-pipeline, exhaustive scan."""
    return PlannerConfig(profile_plans=False, enable_scan_gating=False, enable_early_exit=False)


@pytest.fixture(scope="module")
def phased_video():
    """A red car (frames 20-60), then a person (frames 70-110), in 300 frames.

    Most frames contain no red car, so the registered ``no_red_on_road``
    filter rejects them; the long empty tail is what early exit skips.
    """
    spec = VideoSpec("phased", fps=10, width=640, height=480, duration_s=30)
    car = ObjectSpec(
        object_id=1,
        class_name="car",
        trajectory=LinearTrajectory((50, 300), (3.0, 0.0)),
        size=(100, 50),
        enter_frame=20,
        exit_frame=60,
        attributes={"color": "red", "vehicle_type": "sedan"},
    )
    person = ObjectSpec(
        object_id=2,
        class_name="person",
        trajectory=StationaryTrajectory((400, 350)),
        size=(30, 80),
        enter_frame=70,
        exit_frame=110,
        default_action="standing",
    )
    return SyntheticVideo(spec, [car, person], seed=7)


def spy_on_detect(monkeypatch):
    calls = Counter()
    original = GeneralObjectDetector.detect

    def spy(self, frame, clock=None):
        calls[(self.name, frame.frame_id)] += 1
        return original(self, frame, clock)

    monkeypatch.setattr(GeneralObjectDetector, "detect", spy)
    return calls


class TestFrameFilterGating:
    def test_gate_skips_detector_on_rejected_frames(
        self, phased_video, zoo, fast_config, monkeypatch
    ):
        calls = spy_on_detect(monkeypatch)
        session = QuerySession(phased_video, zoo=zoo, config=fast_config)
        session.execute(GatedRedCarQuery())
        gated_frames = len(calls)
        assert gated_frames < phased_video.num_frames / 2
        stats = session.last_context.scan_stats
        assert stats.leaf_frames_gated > 0
        assert stats.leaf_frames_gated + stats.leaf_frames_processed == phased_video.num_frames

    def test_no_gating_runs_detector_everywhere(self, phased_video, zoo, monkeypatch):
        calls = spy_on_detect(monkeypatch)
        config = PlannerConfig(
            profile_plans=False,
            use_registered_filters=False,
            enable_scan_gating=False,
            enable_early_exit=False,
        )
        QuerySession(phased_video, zoo=zoo, config=config).execute(GatedRedCarQuery())
        assert len(calls) == phased_video.num_frames

    def test_gated_results_match_in_pipeline_filters(
        self, phased_video, zoo, fast_config, pr1_config
    ):
        """Hoisting the filters into the gate must not change any result."""
        gated = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(GatedRedCarQuery())
        piped = QuerySession(phased_video, zoo=zoo, config=pr1_config).execute(GatedRedCarQuery())
        assert gated.matched_frames == piped.matched_frames
        assert gated.matches == piped.matches
        assert gated.num_frames_processed == piped.num_frames_processed

    def test_shared_filter_model_evaluated_once_per_frame(
        self, phased_video, zoo, fast_config, pr1_config
    ):
        """Two queries sharing a filter pay for it once per frame, not twice."""
        batch = [GatedRedCarQuery(), GatedRedCarQuery()]
        gated = QuerySession(phased_video, zoo=zoo, config=fast_config)
        gated.execute_many(batch)
        assert gated.last_context.clock.calls["no_red_on_road"] == phased_video.num_frames
        assert gated.last_context.scan_stats.gate_cache_hits > 0

        piped = QuerySession(phased_video, zoo=zoo, config=pr1_config)
        piped.execute_many([GatedRedCarQuery(), GatedRedCarQuery()])
        assert piped.last_context.clock.calls["no_red_on_road"] == 2 * phased_video.num_frames

    def test_skip_masks_are_per_stream(self, phased_video, zoo, fast_config):
        """A stream without filters still sees every frame of a gated batch."""
        session = QuerySession(phased_video, zoo=zoo, config=fast_config)
        gated, ungated = session.execute_many([GatedRedCarQuery(), PersonQuery()])
        solo = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(PersonQuery())
        assert ungated.matched_frames == solo.matched_frames
        assert session.last_context.scan_stats.leaf_frames_gated > 0


class TestEarlyExit:
    def test_exists_stops_at_first_determining_frame(self, phased_video, zoo, fast_config):
        unbounded = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(RedCarQuery())
        first = unbounded.matched_frames[0]

        session = QuerySession(phased_video, zoo=zoo, config=fast_config)
        result = session.execute(RedCarQuery().exists())
        assert result.matched_frames == [first]
        assert session.last_context.clock.calls["video_reader"] == first + 1
        assert session.last_context.scan_stats.early_exit_frame == first

    def test_bounded_temporal_query_retires_mid_scan(self, phased_video, zoo, fast_config, pr1_config):
        """Incremental pairing makes `done` decidable for temporal queries."""
        unbounded = QuerySession(phased_video, zoo=zoo, config=pr1_config).execute(
            SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=3)
        )
        session = QuerySession(phased_video, zoo=zoo, config=fast_config)
        bounded = session.execute(
            SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=3).bounded(1)
        )
        assert bounded.events == unbounded.events[:1]
        assert session.last_context.clock.calls["video_reader"] < phased_video.num_frames

    def test_bounded_duration_query_stops_after_event_closes(self, phased_video, zoo, fast_config):
        session = QuerySession(phased_video, zoo=zoo, config=fast_config)
        result = session.execute(DurationQuery(RedCarQuery(), duration_s=2.0).bounded(1))
        assert len(result.events) == 1
        assert session.last_context.clock.calls["video_reader"] < phased_video.num_frames

    def test_aggregating_query_ignores_the_bound(self, phased_video, zoo, fast_config):
        """An aggregate needs the whole video; a declared bound must not truncate it."""
        full = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(CarCountQuery())
        session = QuerySession(phased_video, zoo=zoo, config=fast_config)
        bounded = session.execute(CarCountQuery().bounded(1))
        assert bounded.aggregates == full.aggregates
        assert session.last_context.clock.calls["video_reader"] == phased_video.num_frames

    def test_scan_continues_for_unbounded_streams(self, phased_video, zoo, fast_config):
        session = QuerySession(phased_video, zoo=zoo, config=fast_config)
        bounded, unbounded = session.execute_many([RedCarQuery().exists(), PersonQuery()])
        assert session.last_context.scan_stats.early_exit_frame is None
        assert session.last_context.scan_stats.streams_retired == 1
        solo = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(PersonQuery())
        assert unbounded.matched_frames == solo.matched_frames

    def test_bounded_rejects_non_positive_limits(self):
        from repro.common.errors import QueryDefinitionError

        with pytest.raises(QueryDefinitionError):
            RedCarQuery().bounded(0)
        with pytest.raises(QueryDefinitionError):
            RedCarQuery().bounded(True)  # bool is an int subclass; reject it

    def test_bound_truncates_even_with_early_exit_disabled(
        self, phased_video, zoo, pr1_config, fast_config
    ):
        """bounded(k) shapes the result; enable_early_exit only skips the scan."""
        exhaustive = QuerySession(phased_video, zoo=zoo, config=pr1_config).execute(
            RedCarQuery().bounded(3)
        )
        scheduled = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(
            RedCarQuery().bounded(3)
        )
        assert exhaustive.matched_frames == scheduled.matched_frames
        assert len(exhaustive.matched_frames) == 3

    def test_bounded_duration_reports_first_closed_runs(self, zoo, fast_config, pr1_config):
        """Regression: the limit-th run to CLOSE is the answer.

        An earlier-starting run still open at the early-exit frame gets
        force-closed by finalize with a truncated extent; a start-sorted
        [:limit] cut let it displace the completed run that made ``done()``
        fire, so the same query reported different events with early exit
        on vs off."""
        spec = VideoSpec("two_runs", fps=10, width=640, height=480, duration_s=30)
        long_car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=StationaryTrajectory((100, 300)),
            size=(100, 50),
            enter_frame=10,
            exit_frame=290,
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        short_car = ObjectSpec(
            object_id=2,
            class_name="car",
            trajectory=StationaryTrajectory((400, 300)),
            size=(100, 50),
            enter_frame=30,
            exit_frame=60,
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        video = SyntheticVideo(spec, [long_car, short_car], seed=7)
        query = lambda: DurationQuery(RedCarQuery(), duration_s=2.0).bounded(1)

        session = QuerySession(video, zoo=zoo, config=fast_config)
        adaptive = session.execute(query())
        exhaustive = QuerySession(video, zoo=zoo, config=pr1_config).execute(query())

        # The bound did stop the scan early, while the long run was open.
        assert session.last_context.clock.calls["video_reader"] < video.num_frames
        # Identical answer either way: the short run, with its full extent.
        assert adaptive.events == exhaustive.events
        (event,) = adaptive.events
        assert event.end_frame < 100
        assert adaptive.matched_frames == exhaustive.matched_frames
        assert adaptive.matches == exhaustive.matches

    def test_bounded_matches_stay_consistent_with_the_bound(
        self, phased_video, zoo, fast_config, pr1_config
    ):
        """result.matches must cover exactly the bounded matched_frames —
        without early exit the scan still sees the whole video, and records
        past the limit-th frame must not leak into num_matches."""
        adaptive = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(
            RedCarQuery().bounded(3)
        )
        exhaustive = QuerySession(phased_video, zoo=zoo, config=pr1_config).execute(
            RedCarQuery().bounded(3)
        )
        assert sorted(adaptive.matches) == adaptive.matched_frames
        assert adaptive.matches == exhaustive.matches
        assert adaptive.num_matches == exhaustive.num_matches

    def test_bounded_children_do_not_truncate_temporal_events(self, zoo, fast_config, pr1_config):
        """Regression: when both sub-queries are bounded, the temporal stream
        must NOT retire on their bounds — a child's matched-frame limit does
        not determine its event stream, and stopping there truncated the
        first event and fabricated a pair."""
        spec = VideoSpec("overlap", fps=10, width=640, height=480, duration_s=10)
        car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=StationaryTrajectory((100, 300)),
            size=(100, 50),
            enter_frame=20,
            exit_frame=60,
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        person = ObjectSpec(
            object_id=2,
            class_name="person",
            trajectory=StationaryTrajectory((400, 350)),
            size=(30, 80),
            enter_frame=30,
            exit_frame=90,
            default_action="standing",
        )
        video = SyntheticVideo(spec, [car, person], seed=7)
        query = lambda: SequentialQuery(RedCarQuery().exists(), PersonQuery().exists(), max_gap_s=3)
        adaptive = QuerySession(video, zoo=zoo, config=fast_config).execute(query())
        exhaustive = QuerySession(video, zoo=zoo, config=pr1_config).execute(query())
        # The person starts while the car is still present: no in-window gap
        # exists, so no pair may be reported under either configuration.
        assert adaptive.events == exhaustive.events == []


class TestIncrementalTemporalPairing:
    def test_pairing_matches_finalize_time_pairing(self, phased_video, zoo, fast_config, pr1_config):
        query = lambda: SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=3)
        incremental = QuerySession(phased_video, zoo=zoo, config=fast_config).execute(query())
        exhaustive = QuerySession(phased_video, zoo=zoo, config=pr1_config).execute(query())
        assert incremental.events == exhaustive.events
        assert incremental.matched_frames == exhaustive.matched_frames
        assert incremental.aggregates == exhaustive.aggregates

    def test_event_buffers_are_pruned(self, zoo, fast_config):
        """First-side events that can no longer pair must leave the buffer."""
        spec = VideoSpec("bursts", fps=10, width=640, height=480, duration_s=60)
        cars = [
            ObjectSpec(
                object_id=i + 1,
                class_name="car",
                trajectory=StationaryTrajectory((100 + 5 * i, 300)),
                size=(100, 50),
                enter_frame=i * 120,
                exit_frame=i * 120 + 20,
                attributes={"color": "red", "vehicle_type": "sedan"},
            )
            for i in range(5)
        ]
        video = SyntheticVideo(spec, cars, seed=3)
        session = QuerySession(video, zoo=zoo, config=fast_config)
        executor, planner = session.executor, session.planner
        stream = executor.compile(
            SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=2), video, planner
        )
        ctx = session._new_context()
        executor.execute_streams([stream], video, ctx)
        # Five separate car events closed, but none can pair with a person
        # event starting this late; the window is 20 frames, so at most the
        # most recent burst survives in the buffer.
        assert len(stream._first_buf) <= 1

    def test_lookback_window_spans_children_and_gap(self, tiny_video, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        stream = session.executor.compile(
            SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=2), tiny_video, session.planner
        )
        assert stream.lookback_frames() == max(5, int(2 * tiny_video.fps))


class TestRetentionRelease:
    def test_frames_released_only_after_lookback_window(
        self, tiny_video, zoo, fast_config, monkeypatch
    ):
        """With duration state in play, caches live until the run can't extend."""
        trace = []
        orig_release = ExecutionContext.release_frame
        orig_process = PlanStream.process_frame

        def release_spy(self, frame_id):
            trace.append(("release", frame_id))
            return orig_release(self, frame_id)

        def process_spy(self, frame, ctx):
            trace.append(("process", frame.frame_id))
            return orig_process(self, frame, ctx)

        monkeypatch.setattr(ExecutionContext, "release_frame", release_spy)
        monkeypatch.setattr(PlanStream, "process_frame", process_spy)

        query = DurationQuery(RedCarQuery(), duration_s=1.0, max_gap_frames=5)
        QuerySession(tiny_video, zoo=zoo, config=fast_config).execute(query)

        released = [f for kind, f in trace if kind == "release"]
        assert released == list(range(tiny_video.num_frames))  # all, once, in order
        last = tiny_video.num_frames - 1
        current = -1
        for kind, frame_id in trace:
            if kind == "process":
                current = frame_id
            elif current < last:  # mid-scan releases (the final drain is exempt)
                assert frame_id <= current - 5

    def test_immediate_release_without_lookback_state(self, tiny_video, zoo, fast_config, monkeypatch):
        trace = []
        orig_release = ExecutionContext.release_frame
        orig_process = PlanStream.process_frame
        monkeypatch.setattr(
            ExecutionContext,
            "release_frame",
            lambda self, fid: (trace.append(("release", fid)), orig_release(self, fid))[1],
        )
        monkeypatch.setattr(
            PlanStream,
            "process_frame",
            lambda self, frame, ctx: (trace.append(("process", frame.frame_id)), orig_process(self, frame, ctx))[1],
        )
        QuerySession(tiny_video, zoo=zoo, config=fast_config).execute(RedCarQuery())
        # A basic query has no lookback: frame f is released right after f runs.
        current = -1
        for kind, frame_id in trace:
            if kind == "process":
                current = frame_id
            else:
                assert frame_id == current


class TestGateSkipLabels:
    def test_closed_events_carry_gate_skipped_frames(self):
        grouper = OnlineEventGrouper(max_gap=3, min_length=1)
        grouper.observe(0, [(("car", 1),)])
        grouper.mark_skipped(1)
        grouper.observe(1, ())
        grouper.observe(2, [(("car", 1),)])
        for frame_id in range(3, 7):
            grouper.observe(frame_id, ())
        (event,) = grouper.finish()
        assert (event.start_frame, event.end_frame) == (0, 2)
        assert event.skipped_frames == (1,)
        assert event.num_frames == 3 and event.num_observed_frames == 2

    def test_skips_outside_the_run_are_not_attached(self):
        grouper = OnlineEventGrouper(max_gap=2, min_length=1)
        grouper.mark_skipped(0)  # before the run
        grouper.observe(0, ())
        grouper.observe(3, [(("car", 1),)])
        grouper.observe(4, [(("car", 1),)])
        grouper.mark_skipped(9)  # after the run closed
        for frame_id in range(5, 10):
            grouper.observe(frame_id, ())
        (event,) = grouper.finish()
        assert event.skipped_frames == ()

    def test_skip_buffer_is_pruned(self):
        grouper = OnlineEventGrouper(max_gap=2, min_length=1)
        for frame_id in range(100):
            grouper.mark_skipped(frame_id)
            grouper.observe(frame_id, ())
        assert len(grouper._skipped) <= 5

    def test_gated_scan_labels_events(self, zoo, fast_config, monkeypatch):
        """End to end: a gate false-negative inside a run shows up as a skip."""
        from repro.models.detector import BinaryClassifier

        # Make the registered classifier reject one specific in-run frame.
        original = BinaryClassifier.predict

        def flaky(self, frame, clock=None):
            if frame.frame_id == 25:
                self.charge(clock)
                return False
            return original(self, frame, clock)

        monkeypatch.setattr(BinaryClassifier, "predict", flaky)
        spec = VideoSpec("gated_run", fps=10, width=640, height=480, duration_s=5)
        car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=StationaryTrajectory((100, 300)),
            size=(100, 50),
            enter_frame=20,
            exit_frame=30,
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        video = SyntheticVideo(spec, [car], seed=11)
        result = QuerySession(video, zoo=zoo, config=fast_config).execute(
            DurationQuery(GatedRedCarQuery(), duration_s=0.5)
        )
        assert result.events
        assert any(25 in event.skipped_frames for event in result.events)


class TestMultiCameraFeedOrder:
    @pytest.fixture(scope="class")
    def feeds(self):
        return {
            "jackson": camera_clip("jackson", duration_s=6, seed=2),
            "banff": camera_clip("banff", duration_s=6, seed=1),
            "aux": camera_clip("jackson", duration_s=6, seed=9),
        }

    def _batch(self):
        return [
            RedCarQuery(),
            PersonQuery(),
            DurationQuery(RedCarQuery(), duration_s=1.0),
            SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=5),
        ]

    def test_merge_identical_across_feed_order(self, feeds, zoo, fast_config):
        forward = MultiCameraSession(feeds, zoo=zoo, config=fast_config)
        backward = MultiCameraSession(dict(reversed(feeds.items())), zoo=zoo, config=fast_config)
        got = forward.execute_many(self._batch())
        want = backward.execute_many(self._batch())
        assert [m.query_name for m in got] == [m.query_name for m in want]
        for mine, theirs in zip(got, want):
            assert mine.cameras == list(reversed(theirs.cameras))
            for name in feeds:
                # Full dataclass equality: matches, events, aggregates,
                # per-frame costs — each feed's result is byte-identical.
                assert mine.camera(name) == theirs.camera(name)
            assert sorted(mine.merged_events()) == sorted(theirs.merged_events())
        assert forward.last_scan_stats == backward.last_scan_stats
        for name in feeds:
            clock, other = (m.sessions[name].last_context.clock for m in (forward, backward))
            assert clock.by_account == other.by_account

    def test_execute_over_matches_a_multicamera_session(self, tiny_video, feeds, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        over = session.execute_over(feeds, [RedCarQuery()])
        multi = MultiCameraSession(
            {"tiny": tiny_video, **feeds}, zoo=zoo, config=fast_config
        ).execute_many([RedCarQuery()])
        assert over[0].cameras == multi[0].cameras == ["tiny", "jackson", "banff", "aux"]
        for name in over[0].cameras:
            assert over[0].camera(name) == multi[0].camera(name)


class TestCrossCameraWithScheduler:
    """Cross-camera re-id composed with frame-filter gating and early exit."""

    @pytest.fixture(scope="class")
    def handoff(self):
        from repro.videosim.multicam import CameraPlacement, handoff_scenario

        # Entity 0 is red (the gated query's target); entity 1 is blue, so
        # most frames on both feeds carry no red car and the gate bites.
        return handoff_scenario(
            cameras=(
                CameraPlacement("cam_a", fps=10),
                CameraPlacement("cam_b", fps=15, start_offset_s=2.0),
            ),
            num_entities=2,
            dwell_s=6.0,
            travel_gap_s=6.0,
            seed=11,
        )

    def _session(self, handoff, zoo, **kw):
        config = PlannerConfig(profile_plans=False, enable_cross_camera_reid=True, **kw)
        return MultiCameraSession(
            handoff.videos, zoo=zoo, config=config, start_offsets=handoff.start_offsets
        )

    def test_gating_composes_with_reid(self, handoff, zoo):
        """Gate-skipped frames reduce detector work per feed, yet the red
        entity still links across cameras and events stay wall-clock
        ordered."""
        multi = self._session(handoff, zoo)
        merged = multi.execute(GatedRedCarQuery())
        gated_somewhere = False
        for name, session in multi.sessions.items():
            gated_somewhere = gated_somewhere or session.last_scan_stats["leaf_frames_gated"] > 0
        assert gated_somewhere, "the no-red lead-ins must be gate-rejected"
        assert merged.links is not None
        assert multi.last_links.cross_camera_identities(), "the red car must link across feeds"
        intervals = [
            merged.timeline.event_interval(camera, event)
            for camera, event in merged.merged_events()
        ]
        assert intervals == sorted(intervals)

    def test_bounded_query_composes_with_reid(self, handoff, zoo):
        """Feeds that retire early still contribute their partial tracks —
        long enough to pass the quality gate — to the cross-camera link."""
        multi = self._session(handoff, zoo)
        merged = multi.execute(GatedRedCarQuery().bounded(40))
        exited = [
            name
            for name, session in multi.sessions.items()
            if session.last_scan_stats["early_exit_frame"] is not None
        ]
        assert exited, "a bounded query must stop some feed's scan early"
        assert merged.links is not None
        for name in exited:
            assert multi.last_links.profiles[name], (
                "an early-exited feed must still profile the tracks it saw"
            )
        assert multi.last_links.cross_camera_identities(), (
            "the red entity's partial tracks must still link across feeds"
        )

    def test_exists_tracks_fall_below_the_quality_gate(self, handoff, zoo):
        """An exists() scan stops after one matching frame, so its one-frame
        track slivers are (by design) excluded from linking by the re-id
        quality gate — linking still runs and reports no identities."""
        multi = self._session(handoff, zoo)
        merged = multi.execute(GatedRedCarQuery().exists())
        assert merged.links is not None
        assert all(not profiles for profiles in multi.last_links.profiles.values())
        assert multi.last_links.num_identities == 0
