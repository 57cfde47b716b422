"""Tests for adaptive frame-stride sampling with tracker interpolation.

Covers the stride controller's raise/reset policy, the interpolated fill of
skipped frames, the gap re-scan on prediction disagreement (event boundaries
stay frame-accurate), the detector-invocation budget, the off-switch
result-identity guarantee, the honesty of ``Event.skipped_frames`` when
gating and stride sampling both skip frames, the ``ScanStats`` round-trip,
and the gate/stride-aware planner cost model.
"""

from __future__ import annotations

import pytest

from repro.backend.planner import Planner, PlannerConfig
from repro.backend.scheduler import ScanStats
from repro.backend.session import QuerySession
from repro.common.config import ReidConfig, StrideConfig, VideoSpec
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.properties import vobj_filter
from repro.frontend.query import Query
from repro.models.kalman import KalmanBoxFilter
from repro.models.tracker import KalmanTracker, Track
from repro.models.base import Detection
from repro.common.geometry import BBox
from repro.videosim.entities import ObjectSpec
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo


class RedCarQuery(Query):
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


def sampling_config(stride: StrideConfig = StrideConfig(), **kw) -> PlannerConfig:
    return PlannerConfig(profile_plans=False, stride=stride, **kw)


@pytest.fixture
def off_config():
    """The PR-2 scheduler: gating + early exit, no stride sampling."""
    return PlannerConfig(profile_plans=False)


@pytest.fixture(scope="module")
def stable_video():
    """Two red cars drifting linearly for the whole clip: fully predictable."""
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


@pytest.fixture(scope="module")
def phase_change_video():
    """A stable car, then a person popping in mid-clip (a track birth).

    The birth lands inside a raised-stride gap, so sampling must detect the
    disagreement at the next sampled frame and re-scan the gap to recover
    the exact event boundary.
    """
    spec = VideoSpec("phase_change", fps=10, width=640, height=480, duration_s=30)
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
        enter_frame=157,
        exit_frame=220,
        default_action="standing",
    )
    return SyntheticVideo(spec, [car, person], seed=7)


def detector_calls(session: QuerySession) -> int:
    return session.last_context.clock.calls.get("yolox", 0)


class TestStrideSampling:
    def test_stable_scene_cuts_detector_invocations(self, stable_video, zoo, off_config):
        on = QuerySession(stable_video, zoo=zoo, config=sampling_config())
        result_on = on.execute(RedCarQuery())
        off = QuerySession(stable_video, zoo=zoo, config=off_config)
        result_off = off.execute(RedCarQuery())

        assert detector_calls(on) * 2 <= detector_calls(off)
        stats = on.last_scan_stats
        assert stats["peak_stride"] > 1
        assert stats["frames_interpolated"] > 0
        # Interpolation on a stable scene is lossless for the match set.
        assert result_on.matched_frames == result_off.matched_frames

    def test_stride_rises_and_caps_at_max(self, stable_video, zoo):
        config = sampling_config(StrideConfig(max_stride=4))
        session = QuerySession(stable_video, zoo=zoo, config=config)
        session.execute(RedCarQuery())
        stats = session.last_scan_stats
        assert stats["peak_stride"] == 4
        assert stats["stride_raises"] >= 2  # 1 -> 2 -> 4

    def test_budget_never_exceeds_stride_one(self, phase_change_video, zoo, off_config):
        """The CI invariant: sampling may only ever *save* detector calls."""
        on = QuerySession(phase_change_video, zoo=zoo, config=sampling_config())
        on.execute_many([RedCarQuery(), PersonQuery()])
        off = QuerySession(phase_change_video, zoo=zoo, config=off_config)
        off.execute_many([RedCarQuery(), PersonQuery()])
        assert detector_calls(on) <= detector_calls(off)

    def test_track_birth_triggers_rescan_with_exact_boundaries(
        self, phase_change_video, zoo, off_config
    ):
        """A mid-gap birth must not blur the event start: the gap is re-scanned."""
        query = lambda: DurationQuery(PersonQuery(), duration_s=2.0)
        on = QuerySession(phase_change_video, zoo=zoo, config=sampling_config())
        result_on = on.execute(query())
        off = QuerySession(phase_change_video, zoo=zoo, config=off_config)
        result_off = off.execute(query())

        stats = on.last_scan_stats
        assert stats["frames_rescanned"] > 0
        assert stats["stride_resets"] > 0
        # Track *ids* may renumber (false positives on sampled-out frames
        # never birth tracks), but every event boundary must be exact.
        ranges = lambda r: [(e.start_frame, e.end_frame) for e in r.events]
        assert ranges(result_on) == ranges(result_off)

    def test_untracked_streams_disable_sampling(self, stable_video, zoo):
        """A plan without a tracker has no identities to interpolate."""

        class UntrackedQuery(Query):
            def __init__(self):
                self.car = Car("car")

            def frame_constraint(self):
                return self.car.score > 0.5

            def frame_output(self):
                return (self.car.bbox,)

        config = sampling_config(enable_reuse=False)
        session = QuerySession(stable_video, zoo=zoo, config=config)
        session.execute(UntrackedQuery())
        stats = session.last_scan_stats
        assert stats["frames_deferred"] == 0
        assert stats["peak_stride"] == 1

    def test_sampling_off_is_byte_identical_to_pr2(self, phase_change_video, zoo, off_config):
        """stride=None must not perturb any result field."""
        batch = lambda: [
            RedCarQuery(),
            PersonQuery(),
            DurationQuery(RedCarQuery(), duration_s=2.0),
            SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=5),
        ]
        explicit_off = PlannerConfig(profile_plans=False, stride=None)
        a = QuerySession(phase_change_video, zoo=zoo, config=explicit_off).execute_many(batch())
        b = QuerySession(phase_change_video, zoo=zoo, config=off_config).execute_many(batch())
        for res_a, res_b in zip(a, b):
            assert res_a == res_b  # full dataclass equality, every field

    def test_early_exit_composes_with_sampling(self, zoo, off_config):
        """An exists() query still stops at its determining frame mid-gap."""
        spec = VideoSpec("late_car", fps=10, width=640, height=480, duration_s=30)
        car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=StationaryTrajectory((100, 300)),
            size=(100, 50),
            enter_frame=41,
            exit_frame=290,
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        video = SyntheticVideo(spec, [car], seed=11)
        on = QuerySession(video, zoo=zoo, config=sampling_config())
        result_on = on.execute(RedCarQuery().exists())
        off = QuerySession(video, zoo=zoo, config=off_config)
        result_off = off.execute(RedCarQuery().exists())
        assert result_on.matched_frames == result_off.matched_frames
        assert on.last_scan_stats["early_exit_frame"] == off.last_scan_stats["early_exit_frame"]
        assert detector_calls(on) <= detector_calls(off)

    def test_interpolated_frames_feed_events_and_stay_labelled(self, stable_video, zoo):
        """Events span interpolated frames, which appear in skipped_frames."""
        session = QuerySession(stable_video, zoo=zoo, config=sampling_config())
        result = session.execute(DurationQuery(RedCarQuery(), duration_s=2.0))
        assert result.events
        assert session.last_scan_stats["frames_interpolated"] > 0
        skipped = {f for event in result.events for f in event.skipped_frames}
        assert skipped, "interpolated frames must be labelled"
        for event in result.events:
            for frame_id in event.skipped_frames:
                assert event.start_frame <= frame_id <= event.end_frame
            assert event.num_observed_frames < event.num_frames


class TestGateAndStrideSkipLabels:
    def test_gating_and_sampling_skips_both_recorded(self, zoo):
        """When the gate and the stride sampler both skip frames, closed
        events stay honest about every frame the detector never saw."""
        spec = VideoSpec("gated_stable", fps=10, width=640, height=480, duration_s=40)
        car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=LinearTrajectory((30, 300), (0.8, 0.0)),
            size=(100, 50),
            enter_frame=50,
            exit_frame=350,
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        video = SyntheticVideo(spec, [car], seed=13)
        session = QuerySession(video, zoo=zoo, config=sampling_config())
        result = session.execute(DurationQuery(GatedRedCarQuery(), duration_s=2.0))

        stats = session.last_scan_stats
        assert stats["leaf_frames_gated"] > 0, "the frame filter must gate the empty lead-in"
        assert stats["frames_interpolated"] > 0, "the stable middle must be stride-sampled"
        assert result.events
        skipped = {f for event in result.events for f in event.skipped_frames}
        assert skipped
        # Every labelled skip sits inside its event's reported range.
        for event in result.events:
            assert all(event.start_frame <= f <= event.end_frame for f in event.skipped_frames)


class TestScanStatsRoundTrip:
    def test_as_dict_round_trip_empty(self):
        stats = ScanStats()
        assert ScanStats(**stats.as_dict()) == stats
        assert ScanStats.from_dict(stats.as_dict()) == stats

    def test_as_dict_round_trip_after_sampled_scan(self, stable_video, zoo):
        session = QuerySession(stable_video, zoo=zoo, config=sampling_config())
        session.execute(RedCarQuery())
        stats = session.last_context.scan_stats
        data = stats.as_dict()
        # Round trip preserves every counter, including the stride ones.
        assert ScanStats.from_dict(data) == stats
        for key in ("frames_deferred", "frames_interpolated", "frames_rescanned", "peak_stride"):
            assert key in data


class TestTrackInterpolation:
    def _track(self, frames_and_boxes):
        track = Track(track_id=1, class_name="car")
        for frame_id, bbox in frames_and_boxes:
            track.detections.append(
                Detection(class_name="car", bbox=bbox, score=0.9, frame_id=frame_id, track_id=1)
            )
        return track

    def test_lerp_between_endpoints(self):
        track = self._track([(10, BBox(0, 0, 10, 10))])
        mid = track.interpolate(15, future_bbox=BBox(10, 0, 20, 10), future_frame_id=20)
        assert mid.as_tuple() == (5.0, 0.0, 15.0, 10.0)

    def test_extrapolation_uses_per_frame_velocity(self):
        # Detections 4 frames apart moving +8px: velocity is 2 px/frame,
        # not 8 px/update — stride-sampled tracks must not over-shoot.
        track = self._track([(0, BBox(0, 0, 10, 10)), (4, BBox(8, 0, 18, 10))])
        predicted = track.interpolate(6)
        assert predicted.as_tuple() == (12.0, 0.0, 22.0, 10.0)

    def test_predict_ahead_does_not_mutate_filter(self):
        kalman = KalmanBoxFilter(BBox(0, 0, 10, 10))
        before = kalman.x.copy()
        kalman.predict_ahead(5)
        assert (kalman.x == before).all()
        assert kalman.age == 0

    def test_tracker_attaches_kalman_to_tracks(self):
        tracker = KalmanTracker()
        det = Detection(class_name="car", bbox=BBox(0, 0, 10, 10), score=0.9, frame_id=0)
        tracker.update([det])
        (track,) = tracker.active_tracks
        assert track.kalman is not None


class FilteredCar(Car):
    """A car VObj registering only a frame filter (no specialized detector)."""

    @vobj_filter(model="no_red_on_road")
    def red_presence(self, frame):
        ...


class FilteredRedCarQuery(Query):
    def __init__(self):
        self.car = FilteredCar("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id,)


class TestCrossCameraWithSampling:
    """Cross-camera re-id composed with stride sampling and early exit."""

    @pytest.fixture(scope="class")
    def handoff(self):
        from repro.videosim.multicam import CameraPlacement, handoff_scenario

        return handoff_scenario(
            cameras=(
                CameraPlacement("cam_a", fps=10),
                CameraPlacement("cam_b", fps=15, start_offset_s=2.0),
            ),
            num_entities=2,
            dwell_s=8.0,
            seed=9,
        )

    def _session(self, handoff, zoo, **kw):
        from repro.backend.session import MultiCameraSession

        config = PlannerConfig(profile_plans=False, reid=ReidConfig(), **kw)
        return MultiCameraSession(
            handoff.videos, zoo=zoo, config=config, start_offsets=handoff.start_offsets
        )

    def test_interpolated_frames_never_source_embeddings(self, handoff, zoo):
        """Re-id must only ever embed detector-observed crops: a track's
        source detection cannot come from an interpolation-seeded frame."""
        multi = self._session(handoff, zoo, stride=StrideConfig())
        multi.execute(RedCarQuery())
        sampled_somewhere = False
        for name, session in multi.sessions.items():
            stats = session.last_scan_stats
            ctx = session.last_context
            sampled_somewhere = sampled_somewhere or stats["frames_interpolated"] > 0
            assert len(ctx.seeded_frames) == stats["frames_interpolated"]
            for profile in multi.last_links.profiles[name]:
                assert profile.source.frame_id not in ctx.seeded_frames
        assert sampled_somewhere, "the stable handoff scene must stride-sample"

    def test_link_quality_unchanged_by_sampling(self, handoff, zoo):
        """Track ids may renumber under sampling, but the identity structure
        against ground truth must not degrade."""
        from repro.backend.crosscamera import reid_identity_scores

        sampled = self._session(handoff, zoo, stride=StrideConfig())
        sampled.execute(RedCarQuery())
        plain = self._session(handoff, zoo, stride=None)
        plain.execute(RedCarQuery())
        assert reid_identity_scores(sampled.last_links).f1 == pytest.approx(
            reid_identity_scores(plain.last_links).f1
        )
        assert (
            sampled.last_links.num_identities == plain.last_links.num_identities
        )

    def test_bounded_cross_camera_query_retires(self, handoff, zoo):
        """An exists() bound composed with sampling + re-id: every feed's
        scan stops at its determining frame, and linking still runs over
        the partial tracks."""
        multi = self._session(handoff, zoo, stride=StrideConfig())
        merged = multi.execute(RedCarQuery().exists())
        assert merged.links is not None
        for name, session in multi.sessions.items():
            stats = session.last_scan_stats
            result = merged.camera(name)
            if result.matched_frames:
                assert len(result.matched_frames) == 1
                assert stats["early_exit_frame"] is not None
                assert stats["early_exit_frame"] < session.video.num_frames - 1


class TestGateAwareCostModel:
    @pytest.fixture(scope="class")
    def busy_red_video(self):
        """A red car on screen in every frame: the filter rejects almost
        nothing, so paying it per plan is a loss while paying it once per
        batch is a win — the configuration where per-plan pricing misleads."""
        spec = VideoSpec("busy_red", fps=10, width=640, height=480, duration_s=30)
        car = ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=LinearTrajectory((50, 300), (1.0, 0.0)),
            size=(100, 50),
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        return SyntheticVideo(spec, [car], seed=21)

    def _plan_first_of(self, video, zoo, batch_size: int):
        config = PlannerConfig(canary_frames=200)
        planner = Planner(zoo, config)
        batch = [FilteredRedCarQuery() for _ in range(batch_size)]
        planner.begin_batch(batch)
        return planner.plan(batch[0], video)

    def test_batch_shared_filter_flips_candidate_selection(self, busy_red_video, zoo):
        """The acceptance scenario: pricing the hoisted filter once per batch
        selects a different (cheaper-under-gating) candidate than the same
        query planned solo, where no batch mate shares the filter."""
        solo = self._plan_first_of(busy_red_video, zoo, batch_size=1)
        batched = self._plan_first_of(busy_red_video, zoo, batch_size=4)
        assert solo.variant == "no_frame_filters"
        assert batched.variant == "base"
        assert batched.estimated_cost_ms < solo.estimated_cost_ms
        # The discount is recorded, never invented: measured cost unchanged.
        assert batched.estimated_cost_ms < batched.profiled_cost_ms

    def test_solo_query_gets_no_sharing_discount(self, busy_red_video, zoo):
        """With nobody to share with, the hoisted filter is priced at its
        full solo cost (k=1 -> zero discount)."""
        config = PlannerConfig(canary_frames=200)
        planner = Planner(zoo, config)
        query = FilteredRedCarQuery()
        planner.begin_batch([query])
        plan = planner.plan(query, busy_red_video)
        assert plan.variant == "no_frame_filters"

    def test_stride_discount_applies_to_tracked_plans(self, busy_red_video, zoo):
        config = PlannerConfig(canary_frames=100, stride=StrideConfig())
        planner = Planner(zoo, config)
        query = GatedRedCarQuery()  # multiple candidates -> profiling runs
        planner.begin_batch([query])
        plan = planner.plan(query, busy_red_video)
        # Every candidate is tracked (intrinsic colour), so the expected-
        # sampling discount bites: selection cost undercuts measured cost.
        assert plan.estimated_cost_ms < plan.profiled_cost_ms

    def test_variant_cache_is_batch_aware(self, busy_red_video, zoo):
        """A cached batch-priced choice must not leak into a solo plan.

        Selection is batch-dependent under gate-aware pricing, so the
        variant cache keys on the batch's filter multiplicities: the same
        planner must pick 'base' inside a 4-query batch and
        'no_frame_filters' for the same query planned alone afterwards."""
        config = PlannerConfig(canary_frames=200)
        planner = Planner(zoo, config)
        batch = [FilteredRedCarQuery() for _ in range(4)]
        planner.begin_batch(batch)
        assert planner.plan(batch[0], busy_red_video).variant == "base"
        solo = FilteredRedCarQuery()
        planner.begin_batch([solo])
        assert planner.plan(solo, busy_red_video).variant == "no_frame_filters"

    def test_solo_costs_equal_measurement(self, busy_red_video, zoo):
        """With stride sampling off and nobody to share the filter with,
        nothing is discounted: the price is the measured canary cost."""
        config = PlannerConfig(canary_frames=100)
        planner = Planner(zoo, config)
        query = FilteredRedCarQuery()
        planner.begin_batch([query])
        plan = planner.plan(query, busy_red_video)
        assert plan.estimated_cost_ms == plan.profiled_cost_ms


class NorfairPerson(Person):
    """Person tracked by the IoU tracker: a distinct (tracker, detector) pair."""

    tracker = "norfair_tracker"


class NorfairPersonQuery(Query):
    def __init__(self):
        self.person = NorfairPerson("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


class TestStrideCohorts:
    """Per-stream deferral: streams defer by cohort, not by batch consensus."""

    def test_disjoint_pairs_form_separate_cohorts(self, phase_change_video, zoo):
        config = sampling_config()
        session = QuerySession(phase_change_video, zoo=zoo, config=config)
        results = session.execute_many([RedCarQuery(), NorfairPersonQuery()])
        stats = session.last_scan_stats
        # The stable car cohort keeps sampling while the person cohort (whose
        # track births mid-clip) resets: frames processed for one cohort but
        # deferred for the other are partial deferrals.
        assert stats["partial_deferrals"] > 0
        assert stats["peak_stride"] > 1
        assert results[0].events is not None

    def test_unstable_cohort_does_not_pin_stable_one(self, phase_change_video, zoo):
        """The stable cohort's detector savings survive the unstable sibling."""
        config = sampling_config(enable_reuse=False)
        together = QuerySession(phase_change_video, zoo=zoo, config=config)
        together.execute_many([RedCarQuery(), NorfairPersonQuery()])
        assert together.last_scan_stats["frames_deferred"] > 0 or (
            together.last_scan_stats["partial_deferrals"] > 0
        )
        # Results must equal a stride-off run (accuracy preserved per cohort).
        off = QuerySession(
            phase_change_video, zoo=zoo,
            config=PlannerConfig(profile_plans=False, enable_reuse=False),
        )
        results_off = off.execute_many([RedCarQuery(), NorfairPersonQuery()])
        results_on = QuerySession(
            phase_change_video, zoo=zoo, config=sampling_config(enable_reuse=False)
        ).execute_many([RedCarQuery(), NorfairPersonQuery()])
        ranges = lambda r: [(e.start_frame, e.end_frame) for e in r.events]
        for a, b in zip(results_on, results_off):
            assert ranges(a) == ranges(b)

    def test_untracked_stream_pins_only_its_own_cohort(self, stable_video, zoo):
        """An untracked stream no longer disables sampling batch-wide."""

        class UntrackedCarQuery(Query):
            def __init__(self):
                self.car = Car("car")

            def frame_constraint(self):
                return self.car.score > 0.5

            def frame_output(self):
                return (self.car.bbox,)

        config = sampling_config(enable_reuse=False)
        session = QuerySession(stable_video, zoo=zoo, config=config)
        session.execute_many([RedCarQuery(), UntrackedCarQuery()])
        stats = session.last_scan_stats
        # The tracked red-car cohort still strides; every one of its
        # deferrals is partial because the untracked cohort samples on.
        assert stats["peak_stride"] > 1
        assert stats["partial_deferrals"] > 0
        assert stats["frames_deferred"] == 0

    def test_partial_deferrals_round_trip(self):
        stats = ScanStats(partial_deferrals=7)
        assert ScanStats.from_dict(stats.as_dict()) == stats
        assert stats.as_dict()["partial_deferrals"] == 7
