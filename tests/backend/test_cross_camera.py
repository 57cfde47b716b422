"""Tests for cross-camera re-identification and global timelines.

Covers the :class:`GlobalTimeline` wall-clock mapping, the
:class:`ReidMatcher` assignment semantics (threshold edges, one-to-one
within a camera, class guard, hungarian vs greedy), the session-level
integration (identity F1 against videosim ground truth, embedding cache
reuse, determinism across feed order), the wall-clock ordering of
merged events over mixed-fps feeds, global-event stitching, and the
cross-camera temporal operator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.crosscamera import (
    CrossCameraLinks,
    CrossCameraSequence,
    GlobalTimeline,
    ReidMatcher,
    TrackProfile,
    reid_identity_scores,
    stitch_global_events,
)
from repro.backend.planner import PlannerConfig
from repro.backend.results import Event
from repro.backend.session import MultiCameraSession
from repro.common.clock import SimClock
from repro.common.config import ReidConfig
from repro.common.errors import ExecutionError
from repro.frontend.builtin import Car, Person
from repro.frontend.query import Query
from repro.videosim.multicam import CameraPlacement, handoff_scenario


class CarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id,)


class PersonReidQuery(Query):
    """Outputs the feature_vector intrinsic, filling the reuse cache."""

    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id, self.person.feature_vector)


def reid_config(**kw) -> PlannerConfig:
    return PlannerConfig(profile_plans=False, reid=ReidConfig(), **kw)


MIXED_FPS_CAMERAS = (
    CameraPlacement("cam_a", fps=10, start_offset_s=0.0),
    CameraPlacement("cam_b", fps=15, start_offset_s=3.0),
    CameraPlacement("cam_c", fps=20, start_offset_s=6.0),
)


@pytest.fixture(scope="module")
def scenario():
    """Four entities crossing three mixed-fps feeds, with distractors."""
    return handoff_scenario(
        cameras=MIXED_FPS_CAMERAS,
        num_entities=4,
        background_vehicles_per_minute=4.0,
        seed=0,
    )


def run(scenario, zoo, query=None, config=None, **kw) -> MultiCameraSession:
    session = MultiCameraSession(
        scenario.videos,
        zoo=zoo,
        config=config or reid_config(),
        start_offsets=scenario.start_offsets,
        **kw,
    )
    session.execute(query or CarQuery())
    return session


# ---------------------------------------------------------------------------
# GlobalTimeline
# ---------------------------------------------------------------------------


class TestGlobalTimeline:
    def test_wall_clock_honours_fps_and_offsets(self):
        timeline = GlobalTimeline({"a": 10, "b": 20}, {"b": 3.0})
        assert timeline.wall_clock("a", 50) == pytest.approx(5.0)
        assert timeline.wall_clock("b", 50) == pytest.approx(3.0 + 2.5)
        # The same wall-clock instant lands on different local frames.
        assert timeline.frame_at("a", 5.0) == 50
        assert timeline.frame_at("b", 5.0) == 40

    def test_frame_at_round_trip_and_clamping(self):
        timeline = GlobalTimeline({"a": 15}, {"a": 2.0})
        for frame_id in (0, 7, 150):
            assert timeline.frame_at("a", timeline.wall_clock("a", frame_id)) == frame_id
        # Instants before the camera started recording clamp to frame 0.
        assert timeline.frame_at("a", 0.5) == 0

    def test_unknown_cameras_are_rejected(self):
        timeline = GlobalTimeline({"a": 10})
        with pytest.raises(KeyError):
            timeline.wall_clock("ghost", 0)
        with pytest.raises(ValueError):
            GlobalTimeline({"a": 10}, {"ghost": 1.0})
        with pytest.raises(ValueError):
            GlobalTimeline({"a": 0})
        with pytest.raises(ValueError):
            GlobalTimeline({})

    def test_order_events_interleaves_mixed_fps(self):
        timeline = GlobalTimeline({"slow": 10, "fast": 30}, {"fast": 1.0})
        early_fast = Event(start_frame=0, end_frame=30)    # 1.0s - 2.0s
        late_slow = Event(start_frame=25, end_frame=40)    # 2.5s - 4.0s
        first_slow = Event(start_frame=0, end_frame=5)     # 0.0s - 0.5s
        ordered = timeline.order_events(
            [("slow", late_slow), ("fast", early_fast), ("slow", first_slow)]
        )
        assert ordered == [("slow", first_slow), ("fast", early_fast), ("slow", late_slow)]


# ---------------------------------------------------------------------------
# ReidMatcher (unit level, synthetic embeddings)
# ---------------------------------------------------------------------------


def _unit(*coords: float) -> np.ndarray:
    v = np.zeros(8)
    for i, c in enumerate(coords):
        v[i] = c
    norm = np.linalg.norm(v)
    return v / norm if norm else v


def _profile(camera: str, track_id: int, embedding: np.ndarray, class_name: str = "car") -> TrackProfile:
    return TrackProfile(
        camera=camera,
        track_id=track_id,
        class_name=class_name,
        embedding=embedding,
        first_frame=0,
        last_frame=10,
    )


class TestReidMatcher:
    def test_same_embedding_links_across_cameras(self):
        matcher = ReidMatcher(ReidConfig())
        links = matcher.link(
            {
                "a": [_profile("a", 1, _unit(1.0)), _profile("a", 2, _unit(0.0, 1.0))],
                "b": [_profile("b", 7, _unit(1.0))],
            }
        )
        assert links.global_id("a", 1) == links.global_id("b", 7)
        assert links.global_id("a", 2) != links.global_id("a", 1)
        assert links.num_identities == 2
        assert links.cross_camera_identities() == {0: [("a", 1), ("b", 7)]}

    def test_threshold_edges(self):
        # cos(e1, cos_t*e1 + sin_t*e2) == cos_t exactly.
        at = _unit(0.7, np.sqrt(1 - 0.49))
        below = _unit(0.69, np.sqrt(1 - 0.69**2))
        matcher = ReidMatcher(ReidConfig(threshold=0.7))
        links = matcher.link({"a": [_profile("a", 1, _unit(1.0))], "b": [_profile("b", 1, at)]})
        assert links.global_id("a", 1) == links.global_id("b", 1)  # >= is a match
        links = matcher.link({"a": [_profile("a", 1, _unit(1.0))], "b": [_profile("b", 1, below)]})
        assert links.global_id("a", 1) != links.global_id("b", 1)

    def test_same_camera_tracks_never_share_an_identity(self):
        matcher = ReidMatcher(ReidConfig())
        # Two near-identical tracks on ONE camera (a fragmented entity).
        links = matcher.link(
            {"a": [_profile("a", 1, _unit(1.0)), _profile("a", 2, _unit(0.999, 0.04))]}
        )
        assert links.global_id("a", 1) != links.global_id("a", 2)

    def test_class_mismatch_blocks_linking(self):
        matcher = ReidMatcher(ReidConfig())
        links = matcher.link(
            {
                "a": [_profile("a", 1, _unit(1.0), class_name="car")],
                "b": [_profile("b", 1, _unit(1.0), class_name="person")],
            }
        )
        assert links.global_id("a", 1) != links.global_id("b", 1)

    def test_hungarian_beats_greedy_under_contention(self):
        """sims = [[.80, .55], [.75, .10]]: greedy takes (t0, g0) first and
        strands t1 below threshold; hungarian assigns (t0, g1), (t1, g0)
        and links both contenders."""
        g0, g1 = _unit(1.0), _unit(0.0, 1.0)
        # A unit vector a*g0 + b*g1 + c*e2 has cos a against g0 and cos b
        # against g1, so similarity rows are controlled exactly.
        t0 = _unit(0.80, 0.55, np.sqrt(1 - 0.80**2 - 0.55**2))
        t1 = _unit(0.75, 0.10, np.sqrt(1 - 0.75**2 - 0.10**2))

        gallery_feed = {"a": [_profile("a", 1, g0), _profile("a", 2, g1)]}
        contenders = [_profile("b", 1, t0), _profile("b", 2, t1)]

        hungarian = ReidMatcher(ReidConfig(threshold=0.5)).link(
            {**gallery_feed, "b": contenders}
        )
        greedy = ReidMatcher(ReidConfig(threshold=0.5, assignment="greedy")).link(
            {**gallery_feed, "b": contenders}
        )
        assert hungarian.num_identities == 2  # both contenders linked
        assert greedy.num_identities == 3     # greedy strands one

    def test_matching_work_is_charged_to_the_clock(self):
        clock = SimClock()
        matcher = ReidMatcher(ReidConfig(), clock=clock)
        matcher.link(
            {
                "a": [_profile("a", 1, _unit(1.0))],
                "b": [_profile("b", 1, _unit(1.0))],
            }
        )
        assert clock.by_account["reid_matcher"] > 0

    def test_scores_record_founder_and_member_similarity(self):
        matcher = ReidMatcher(ReidConfig(threshold=0.7))
        links = matcher.link(
            {
                "a": [_profile("a", 1, _unit(1.0))],
                "b": [_profile("b", 1, _unit(0.95, np.sqrt(1 - 0.95**2)))],
            }
        )
        assert links.scores[("a", 1)] == 1.0
        assert links.scores[("b", 1)] == pytest.approx(0.95)
        assert links.threshold == 0.7


# ---------------------------------------------------------------------------
# Session-level integration
# ---------------------------------------------------------------------------


class TestCrossCameraSession:
    def test_identity_f1_against_ground_truth(self, scenario, zoo):
        session = run(scenario, zoo)
        scores = reid_identity_scores(session.last_links)
        assert scores.precision >= 0.9
        assert scores.recall >= 0.9
        assert scores.f1 >= 0.9

    def test_entities_link_across_every_camera(self, scenario, zoo):
        session = run(scenario, zoo)
        cross = session.last_links.cross_camera_identities()
        # Every scripted entity visits all three cameras; at least one
        # identity per entity must span all of them.
        full_spans = [m for m in cross.values() if {c for c, _ in m} == set(scenario.cameras)]
        assert len(full_spans) >= len(scenario.entity_ids)

    def test_disabled_is_byte_identical_and_unlinked(self, scenario, zoo):
        defaults = MultiCameraSession(scenario.videos, zoo=zoo, config=PlannerConfig(profile_plans=False))
        explicit = MultiCameraSession(
            scenario.videos,
            zoo=zoo,
            config=PlannerConfig(profile_plans=False, reid=None),
        )
        a = defaults.execute_many([CarQuery(), RedCarQuery()])
        b = explicit.execute_many([CarQuery(), RedCarQuery()])
        for res_a, res_b in zip(a, b):
            assert res_a.links is None and res_a.timeline is None
            for camera in res_a.cameras:
                assert res_a.camera(camera) == res_b.camera(camera)  # every field
        assert defaults.last_links is None
        assert defaults.link_clock.elapsed_ms == 0.0

    def test_enabling_reid_preserves_per_feed_matches(self, scenario, zoo):
        """Linking is read-only over the scans: matches must not move."""
        on = MultiCameraSession(
            scenario.videos, zoo=zoo, config=reid_config(), start_offsets=scenario.start_offsets
        ).execute(RedCarQuery())
        off = MultiCameraSession(
            scenario.videos, zoo=zoo, config=PlannerConfig(profile_plans=False)
        ).execute(RedCarQuery())
        for camera in off.cameras:
            assert on.camera(camera).matched_frames == off.camera(camera).matched_frames
            assert on.camera(camera).matches == off.camera(camera).matches

    def test_determinism_across_feed_order(self, scenario, zoo):
        first = run(scenario, zoo)
        again = run(scenario, zoo)
        assert first.last_links.identities == again.last_links.identities
        assert first.last_links.scores == again.last_links.scores
        # Reversed feeds scan the same: linking sees the same per-feed tracks.
        backward = MultiCameraSession(
            dict(reversed(scenario.videos.items())),
            zoo=zoo,
            config=reid_config(),
            start_offsets=scenario.start_offsets,
        )
        backward.execute(CarQuery())
        for name, session in first.sessions.items():
            other = backward.sessions[name]
            assert session.last_context.clock.by_account == other.last_context.clock.by_account
            assert session.last_scan_stats == other.last_scan_stats
        assert sorted(first.last_links.identities) == sorted(backward.last_links.identities)

    def test_merged_events_are_wall_clock_ordered(self, scenario, zoo):
        session = MultiCameraSession(
            scenario.videos, zoo=zoo, config=reid_config(), start_offsets=scenario.start_offsets
        )
        merged = session.execute(CarQuery())
        tagged = merged.merged_events()
        assert tagged, "the handoff scenario must produce events"
        intervals = [merged.timeline.event_interval(c, e) for c, e in tagged]
        assert intervals == sorted(intervals)
        # Mixed fps + offsets make local frame ids interleave: wall-clock
        # order must genuinely differ from the frame-ordered PR-4 merge.
        frame_ids = [e.start_frame for _, e in tagged]
        assert frame_ids != sorted(frame_ids)

    def test_global_tracks_restricted_to_query_matches(self, scenario, zoo):
        session = MultiCameraSession(
            scenario.videos, zoo=zoo, config=reid_config(), start_offsets=scenario.start_offsets
        )
        red = session.execute(RedCarQuery())
        everything = session.last_links.global_tracks()
        red_tracks = red.global_tracks()
        assert red_tracks  # the red entity was seen
        # The query-level view is a subset of the session-wide assignment.
        for gid, members in red_tracks.items():
            assert set(members) <= set(everything[gid])
        assert len(red_tracks) < len(everything)

    def test_global_events_stitch_and_split(self, scenario, zoo):
        session = MultiCameraSession(
            scenario.videos, zoo=zoo, config=reid_config(), start_offsets=scenario.start_offsets
        )
        merged = session.execute(CarQuery())
        arcs = merged.global_events()
        cross = [s for s in arcs if s.is_cross_camera]
        assert cross, "entities crossing cameras must stitch into arcs"
        span = cross[0]
        assert span.start_ts <= span.end_ts
        assert [s for s in span.segments] == sorted(
            span.segments, key=lambda seg: merged.timeline.event_interval(*seg)
        )
        # The travel gap between cameras (4s) exceeds 1s: a tight max_gap_s
        # must split each arc into per-camera spans.
        tight = merged.global_events(max_gap_s=1.0)
        assert len(tight) > len(arcs)
        assert all(len(s.cameras) == 1 for s in tight if s.global_id is not None)

    def test_cross_camera_views_require_reid(self, scenario, zoo):
        merged = MultiCameraSession(
            scenario.videos, zoo=zoo, config=PlannerConfig(profile_plans=False)
        ).execute(CarQuery())
        with pytest.raises(ExecutionError):
            merged.global_tracks()
        with pytest.raises(ExecutionError):
            merged.global_events()

    def test_link_tracks_requires_a_prior_execution(self, scenario, zoo):
        session = MultiCameraSession(
            scenario.videos, zoo=zoo, config=reid_config(), start_offsets=scenario.start_offsets
        )
        with pytest.raises(ExecutionError):
            session.link_tracks()

    def test_sliver_tracks_are_quality_gated(self, scenario, zoo):
        session = run(scenario, zoo)
        for profiles in session.last_links.profiles.values():
            for profile in profiles:
                assert profile.last_frame - profile.first_frame + 1 >= 3

    def test_embedding_cache_reuse_skips_the_model(self, zoo):
        """A query that computes feature_vector in-pipeline fills the
        intrinsic cache; linking must reuse it, not re-invoke the model."""
        people = handoff_scenario(
            cameras=(
                CameraPlacement("cam_a", fps=10),
                CameraPlacement("cam_b", fps=15, start_offset_s=2.0),
            ),
            num_entities=2,
            entity_class="person",
            seed=5,
        )
        session = MultiCameraSession(
            people.videos, zoo=zoo, config=reid_config(), start_offsets=people.start_offsets
        )
        session.execute(PersonReidQuery())
        links = session.last_links
        assert links.identities, "people must have been tracked and linked"
        # Every linked track had a cached embedding: zero model invocations
        # on the link clock, only the matcher itself.
        assert session.link_clock.calls.get("reid_feature", 0) == 0
        assert session.link_clock.by_account["reid_matcher"] > 0
        assert reid_identity_scores(links).f1 >= 0.9

    def test_start_offsets_for_unknown_feeds_rejected(self, scenario, zoo):
        with pytest.raises(ValueError):
            MultiCameraSession(
                scenario.videos, zoo=zoo, config=reid_config(), start_offsets={"ghost": 1.0}
            )

    def test_cross_camera_cost_appears_in_breakdown(self, scenario, zoo):
        session = run(scenario, zoo)
        breakdown = session.cost_breakdown()
        assert "<cross-camera>" in breakdown
        assert breakdown["<cross-camera>"].get("reid_matcher", 0) > 0

    def test_link_cost_reports_the_last_execution_only(self, scenario, zoo):
        """Like the per-feed clocks, link_clock must not accumulate across
        executions on the same session."""
        session = run(scenario, zoo)
        first_run_ms = session.link_clock.elapsed_ms
        session.execute(CarQuery())
        assert session.link_clock.elapsed_ms == pytest.approx(first_run_ms)

    def test_bounded_query_events_honour_the_bound(self, scenario, zoo):
        """With re-id attaching groupers to basic queries, a bounded query's
        events must describe the bounded matches — identically with early
        exit on or off (a pure performance knob must not move results)."""
        def merged_with(early_exit: bool):
            return MultiCameraSession(
                scenario.videos,
                zoo=zoo,
                config=reid_config(enable_early_exit=early_exit),
                start_offsets=scenario.start_offsets,
            ).execute(CarQuery().bounded(3))

        eager, lazy = merged_with(True), merged_with(False)
        for camera in eager.cameras:
            a, b = eager.camera(camera), lazy.camera(camera)
            assert a.matched_frames == b.matched_frames
            assert a.events == b.events
            # Event boundaries come from the kept matches only (the grouper
            # may bridge small non-matching gaps inside the range).
            kept = set(a.matched_frames)
            for event in a.events:
                assert event.start_frame in kept and event.end_frame in kept

    def test_cross_pair_track_ids_never_collide(self, scenario, zoo):
        """Two plans on different detectors number their tracks from 1
        independently; per-pair global namespacing keeps their ids apart, so
        every id is attributable to exactly one pair, and tracks from both
        plans participate in linking."""

        class FastCar(Car):
            model = "yolov5s"

        class FastCarQuery(Query):
            def __init__(self):
                self.car = FastCar("car")

            def frame_constraint(self):
                return self.car.score > 0.5

            def frame_output(self):
                return (self.car.track_id,)

        session = MultiCameraSession(
            scenario.videos, zoo=zoo, config=reid_config(), start_offsets=scenario.start_offsets
        )
        session.execute_many([CarQuery(), FastCarQuery()])
        links = session.last_links
        for name, feed_session in session.sessions.items():
            ctx = feed_session.last_context
            profile_pairs = {
                ctx.track_pair(profile.track_id) for profile in links.profiles[name]
            }
            assert None not in profile_pairs, "a linked id lost its pair attribution"
            # Both detector plans' tracks survive into the linking gallery.
            assert {pair[1] for pair in profile_pairs} == {"yolox", "yolov5s"}

    def test_seeded_frame_intrinsics_are_not_reused_as_embeddings(self, scenario, zoo):
        """A cached feature_vector computed over an interpolation-seeded
        detection is not a real observation; linking must bypass it."""
        from repro.backend.runtime import ExecutionContext
        from repro.frontend.builtin import Person

        video = next(iter(scenario.videos.values()))
        ctx = ExecutionContext(video, zoo)
        state = ctx.track_state(Person, 1)
        state.intrinsic_values["feature_vector"] = np.ones(4)
        state.intrinsic_frames["feature_vector"] = 5
        assert 1 in ctx.intrinsic_track_values("feature_vector")
        ctx.seeded_frames.add(5)
        assert (
            ctx.intrinsic_track_values("feature_vector", exclude_frames=ctx.seeded_frames)
            == {}
        )


# ---------------------------------------------------------------------------
# The cross-camera temporal operator
# ---------------------------------------------------------------------------


class TestCrossCameraSequence:
    @pytest.fixture(scope="class")
    def chase(self):
        return handoff_scenario(
            cameras=(
                CameraPlacement("cam_a", fps=10),
                CameraPlacement("cam_b", fps=15, start_offset_s=3.0),
            ),
            num_entities=2,
            background_vehicles_per_minute=3.0,
            seed=3,
        )

    def test_same_car_then_other_camera_within_window(self, chase, zoo):
        session = MultiCameraSession(
            chase.videos, zoo=zoo, config=reid_config(), start_offsets=chase.start_offsets
        )
        pairs = session.execute_sequence(
            CrossCameraSequence(
                RedCarQuery(), first_camera="cam_a", second_camera="cam_b", max_gap_s=30.0
            )
        )
        assert pairs, "the red entity crosses cam_a then cam_b"
        pair = pairs[0]
        assert pair.cameras == ("cam_a", "cam_b")
        assert pair.global_id is not None
        (cam_a, ev_a), (cam_b, ev_b) = pair.segments
        timeline = session.timeline()
        gap = timeline.event_interval(cam_b, ev_b)[0] - timeline.event_interval(cam_a, ev_a)[1]
        assert 0 <= gap <= 30.0 + timeline.max_clock_skew_s

    def test_window_excludes_out_of_range_gaps(self, chase, zoo):
        session = MultiCameraSession(
            chase.videos, zoo=zoo, config=reid_config(), start_offsets=chase.start_offsets
        )
        # The scripted travel gap is ~4s; a [20, 30]s window excludes it.
        pairs = session.execute_sequence(
            CrossCameraSequence(
                RedCarQuery(),
                first_camera="cam_a",
                second_camera="cam_b",
                min_gap_s=20.0,
                max_gap_s=30.0,
            )
        )
        assert pairs == []

    def test_requires_reid_enabled(self, chase, zoo):
        session = MultiCameraSession(chase.videos, zoo=zoo, config=PlannerConfig(profile_plans=False))
        with pytest.raises(ExecutionError):
            session.execute_sequence(CrossCameraSequence(RedCarQuery()))

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            CrossCameraSequence(RedCarQuery(), min_gap_s=10.0, max_gap_s=5.0)

    def test_identity_requirement_can_be_relaxed(self, chase, zoo):
        session = MultiCameraSession(
            chase.videos, zoo=zoo, config=reid_config(), start_offsets=chase.start_offsets
        )
        strict = session.execute_sequence(
            CrossCameraSequence(CarQuery(), max_gap_s=10.0, same_identity=True)
        )
        relaxed = session.execute_sequence(
            CrossCameraSequence(CarQuery(), max_gap_s=10.0, same_identity=False)
        )
        # Dropping the identity constraint can only add pairs.
        assert len(relaxed) >= len(strict)
        assert all(p.global_id is not None for p in strict)


# ---------------------------------------------------------------------------
# Stitching unit coverage
# ---------------------------------------------------------------------------


class TestStitching:
    def test_untracked_events_become_standalone_spans(self):
        timeline = GlobalTimeline({"a": 10})
        links = CrossCameraLinks()
        event = Event(start_frame=0, end_frame=9, signature=(("x", "@3"),))
        (span,) = stitch_global_events([("a", event)], links, timeline)
        assert span.global_id is None
        assert span.segments == (("a", event),)
        assert span.start_ts == 0.0 and span.end_ts == pytest.approx(0.9)
