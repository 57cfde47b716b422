"""Tests for the frame graph and the lazy runtime state (incl. reuse)."""

import pytest

from repro.backend.graph import FrameGraph
from repro.backend.planner import PlannerConfig
from repro.backend.runtime import ExecutionContext, TrackState, VObjState
from repro.backend.session import QuerySession
from repro.common.clock import SimClock
from repro.common.config import FaultConfig, ObsConfig, StrideConfig
from repro.common.errors import ExecutionError
from repro.frontend.builtin import Ball, Car, CloseTo, Person, PersonBallInteraction
from repro.frontend.query import Query
from repro.models.base import Detection
from repro.videosim.datasets import camera_clip


@pytest.fixture
def ctx(tiny_video, zoo):
    return ExecutionContext(tiny_video, zoo, clock=SimClock(), reuse_enabled=True)


def tracked_detection(ctx, frame, object_id, track_id):
    inst = frame.instance_by_id(object_id)
    return Detection(inst.class_name, inst.bbox, 0.95, frame.frame_id, gt_object_id=object_id, track_id=track_id)


class TestFrameGraph:
    def test_add_and_remove_nodes(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        graph = FrameGraph(frame)
        car_var = Car("c")
        det = tracked_detection(ctx, frame, 1, 1)
        node = graph.add_node(car_var, ctx.vobj_state(Car, det, frame))
        assert graph.nodes(car_var) == [node]
        graph.remove_node(node)
        assert graph.nodes(car_var) == []

    def test_bindings_product(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        graph = FrameGraph(frame)
        car_var, person_var = Car("c"), Person("p")
        for track in (1, 2):
            graph.add_node(car_var, ctx.vobj_state(Car, tracked_detection(ctx, frame, 1, track), frame))
        graph.add_node(person_var, ctx.vobj_state(Person, tracked_detection(ctx, frame, 2, 3), frame))
        bindings = list(graph.bindings([car_var, person_var]))
        assert len(bindings) == 2

    def test_bindings_empty_when_variable_unmatched(self, ctx, tiny_video):
        graph = FrameGraph(tiny_video.frame(0))
        assert list(graph.bindings([Car("c")])) == []


class TestVObjState:
    def test_builtin_properties(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        det = tracked_detection(ctx, frame, 1, 7)
        state = ctx.vobj_state(Car, det, frame)
        assert state.get("bbox") == det.bbox
        assert state.get("track_id") == 7
        assert state.get("class_name") == "car"
        assert state.get("frame_rate") == tiny_video.fps
        assert state.get("center") == det.bbox.center

    def test_model_backed_property_charges_once(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        state = ctx.vobj_state(Car, tracked_detection(ctx, frame, 1, 7), frame)
        before = ctx.clock.elapsed_ms
        color1 = state.get("color")
        cost_first = ctx.clock.elapsed_ms - before
        color2 = state.get("color")
        assert color1 == color2 == "red"
        assert ctx.clock.elapsed_ms - before == cost_first  # cached within the frame

    def test_intrinsic_reuse_across_frames(self, ctx, tiny_video):
        frame0, frame1 = tiny_video.frame(0), tiny_video.frame(1)
        s0 = ctx.vobj_state(Car, tracked_detection(ctx, frame0, 1, 7), frame0)
        assert s0.get("color") == "red"
        cost_after_first = ctx.clock.elapsed_ms
        s1 = ctx.vobj_state(Car, tracked_detection(ctx, frame1, 1, 7), frame1)
        assert s1.get("color") == "red"
        assert ctx.clock.elapsed_ms == cost_after_first  # reused, no new model charge
        assert ctx.reuse_stats.total_hits == 1

    def test_reuse_disabled_recomputes(self, tiny_video, zoo):
        ctx = ExecutionContext(tiny_video, zoo, reuse_enabled=False)
        frame0, frame1 = tiny_video.frame(0), tiny_video.frame(1)
        ctx.vobj_state(Car, tracked_detection(ctx, frame0, 1, 7), frame0).get("color")
        first = ctx.clock.elapsed_ms
        ctx.vobj_state(Car, tracked_detection(ctx, frame1, 1, 7), frame1).get("color")
        assert ctx.clock.elapsed_ms > first

    def test_python_property(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        state = ctx.vobj_state(Car, tracked_detection(ctx, frame, 1, 7), frame)
        assert state.get("center") == state.get("bbox").center

    def test_stateful_property_uses_history(self, ctx, tiny_video):
        # Feed two consecutive frames through states sharing the track state.
        for frame_id in (0, 1):
            frame = tiny_video.frame(frame_id)
            state = ctx.vobj_state(Car, tracked_detection(ctx, frame, 1, 7), frame)
            speed = state.get("speed")
        assert speed == pytest.approx(6.0, abs=1.0)  # the tiny car moves 6 px/frame

    def test_stateful_without_track_raises(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        det = Detection("car", frame.instance_by_id(1).bbox, 0.9, 0, gt_object_id=1, track_id=None)
        state = VObjState(Car, det, frame, ctx, track_state=None)
        with pytest.raises(ExecutionError):
            state.get("speed")

    def test_unknown_property_raises(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        state = ctx.vobj_state(Car, tracked_detection(ctx, frame, 1, 7), frame)
        with pytest.raises(ExecutionError):
            state.get("altitude")


class TestTrackState:
    def test_record_once_per_frame(self):
        ts = TrackState(Car, 1)
        ts.record("center", 0, (0, 0), window=3)
        ts.record("center", 0, (1, 1), window=3)  # same frame overwrites
        ts.record("center", 1, (2, 2), window=3)
        assert ts.history("center") == [(1, 1), (2, 2)]

    def test_window_bounded(self):
        ts = TrackState(Car, 1)
        for f in range(10):
            ts.record("center", f, (f, f), window=3)
        assert len(ts.history("center")) == 3
        assert ts.history("center")[-1] == (9, 9)

    def test_window_grow_preserves_history(self):
        ts = TrackState(Car, 1)
        for f in range(3):
            ts.record("center", f, (f, f), window=2)
        assert ts.history("center") == [(1, 1), (2, 2)]
        # A property asking for a larger window keeps what was recorded.
        ts.record("center", 3, (3, 3), window=4)
        assert ts.history("center") == [(1, 1), (2, 2), (3, 3)]
        ts.record("center", 4, (4, 4), window=4)
        assert ts.history("center") == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_window_shrink_keeps_most_recent(self):
        ts = TrackState(Car, 1)
        for f in range(4):
            ts.record("center", f, (f, f), window=4)
        ts.record("center", 4, (4, 4), window=2)
        assert ts.history("center") == [(3, 3), (4, 4)]

    def test_resize_on_same_frame_still_overwrites(self):
        ts = TrackState(Car, 1)
        ts.record("center", 0, (0, 0), window=2)
        ts.record("center", 0, (9, 9), window=5)  # same frame, new window
        assert ts.history("center") == [(9, 9)]


class TestRelationState:
    def test_builtin_relation_properties(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        car_state = ctx.vobj_state(Car, tracked_detection(ctx, frame, 1, 1), frame)
        person_state = ctx.vobj_state(Person, tracked_detection(ctx, frame, 2, 2), frame)
        rel_state = ctx.relation_state(PersonBallInteraction, person_state, car_state, frame)
        assert rel_state.get("distance") > 0
        assert 0 <= rel_state.get("iou") <= 1
        assert rel_state.get("frame_id") == 0

    def test_interaction_property_via_model(self, zoo, suspect_clip):
        ctx = ExecutionContext(suspect_clip, zoo)
        event = next(e for e in suspect_clip.events if e.kind == "get_into")
        frame = suspect_clip.frame(event.start_frame + 1)
        person_inst = frame.instance_by_id(event.subject_id)
        car_inst = frame.instance_by_id(event.object_id)
        p_state = ctx.vobj_state(Person, Detection("person", person_inst.bbox, 0.9, frame.frame_id, gt_object_id=event.subject_id, track_id=1), frame)
        c_state = ctx.vobj_state(Car, Detection("car", car_inst.bbox, 0.9, frame.frame_id, gt_object_id=event.object_id, track_id=2), frame)
        from repro.frontend.builtin import GetsInto

        rel_state = ctx.relation_state(GetsInto, p_state, c_state, frame)
        assert rel_state.get("interaction") in ("get_into", None)


class TightCloseTo(CloseTo):
    threshold = 10.0


class WideCloseTo(CloseTo):
    threshold = 400.0


class CloseQuery(Query):
    """Person/car pairs; ``relation=None`` keeps every pair (the reference)."""

    def __init__(self, relation=None):
        self.person = Person("person")
        self.car = Car("car")
        self.close = (relation or CloseTo)(self.person, self.car, "close")
        self.constrained = relation is not None

    def frame_constraint(self):
        if self.constrained:
            return self.close.is_close == True  # noqa: E712
        return self.close.distance >= 0

    def frame_output(self):
        return (self.close.distance,)


def close_pairs(result):
    return {
        (frame_id, record.binding): record.outputs[0]
        for frame_id, records in result.matches.items()
        for record in records
    }


class TestRelationBodies:
    """A relation body reads its declared class's attributes as ``self.x``."""

    @pytest.fixture(scope="class")
    def street(self):
        return camera_clip("jackson", 20, seed=12)

    def run(self, video, query):
        return QuerySession(video, config=PlannerConfig(profile_plans=False)).execute(query)

    @pytest.mark.parametrize("relation", [CloseTo, TightCloseTo, WideCloseTo])
    def test_is_close_honours_the_relation_threshold(self, street, relation):
        every_pair = close_pairs(self.run(street, CloseQuery()))
        close = close_pairs(self.run(street, CloseQuery(relation)))
        expected = {k: d for k, d in every_pair.items() if d < relation.threshold}
        assert close == expected
        if relation is WideCloseTo:
            assert close, "the wide threshold should keep some pairs"
            assert len(close) < len(every_pair)


class TestExecutionContextSharing:
    def test_detection_cache_shared(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        a = ctx.detect("yolox", frame)
        cost = ctx.clock.elapsed_ms
        b = ctx.detect("yolox", frame)
        assert a is b
        assert ctx.clock.elapsed_ms == cost

    def test_release_frame_clears_cache(self, ctx, tiny_video):
        frame = tiny_video.frame(0)
        ctx.detect("yolox", frame)
        ctx.release_frame(0)
        cost = ctx.clock.elapsed_ms
        ctx.detect("yolox", frame)
        assert ctx.clock.elapsed_ms > cost

    def test_track_state_identity(self, ctx):
        assert ctx.track_state(Car, 5) is ctx.track_state(Car, 5)
        assert ctx.track_state(Car, 5) is not ctx.track_state(Person, 5)
        assert ctx.track_state(Car, None) is None

    def test_release_frame_keeps_other_frames(self, ctx, tiny_video):
        f0, f1 = tiny_video.frame(0), tiny_video.frame(1)
        ctx.detect("yolox", f0)
        ctx.detect("yolox", f1)
        cost = ctx.clock.elapsed_ms
        ctx.release_frame(0)
        ctx.detect("yolox", f1)  # the other frame's cache survives eviction
        assert ctx.clock.elapsed_ms == cost
        ctx.detect("yolox", f0)  # the released frame is recomputed
        assert ctx.clock.elapsed_ms > cost

    def test_release_unknown_frame_is_a_noop(self, ctx):
        ctx.release_frame(12345)


class TestSceneState:
    def test_scene_state_cached_per_frame(self, ctx, tiny_video):
        from repro.frontend.builtin import TrafficScene

        frame = tiny_video.frame(0)
        state = ctx.scene_state(TrafficScene, frame)
        assert ctx.scene_state(TrafficScene, frame) is state
        assert ctx.scene_state(TrafficScene, tiny_video.frame(1)) is not state
        ctx.release_frame(0)
        assert ctx.scene_state(TrafficScene, frame) is not state

    def test_scene_property_charged_once_per_frame(self, ctx, tiny_video):
        from repro.frontend.builtin import TrafficScene
        from repro.frontend.properties import stateless

        class CrowdScene(TrafficScene):
            @stateless(inputs=("num_objects",))
            def crowded(self, num_objects):
                return num_objects > 1

        frame = tiny_video.frame(0)
        state = ctx.scene_state(CrowdScene, frame)
        first = state.get("crowded")
        cost = ctx.clock.elapsed_ms
        assert cost > 0
        assert state.get("crowded") == first
        assert ctx.clock.elapsed_ms == cost  # memoised: no second python charge
        # Every binding enumerated on the frame sees the same memoised state.
        assert ctx.scene_state(CrowdScene, frame).get("crowded") == first
        assert ctx.clock.elapsed_ms == cost


class CarTrackQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class PersonTrackQuery(Query):
    def __init__(self, vobj_type=Person):
        self.person = vobj_type("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


class NorfairPerson(Person):
    """Person tracked by the IoU tracker: a second pair on the same detector."""

    tracker = "norfair_tracker"


def record_track_ids(result):
    """frame id -> the identity of every sink binding of ``result``."""
    return {
        frame_id: [identity for record in records for _var, identity in record.binding]
        for frame_id, records in result.matches.items()
    }


class TestTrackedBranchNodes:
    """A tracked branch builds its nodes once, from the tracker's output."""

    def test_one_vobj_state_per_tracked_detection(self, jackson_clip, zoo, monkeypatch):
        tracked_cars = []
        states = []
        track, vobj_state = ExecutionContext.track, ExecutionContext.vobj_state

        def spy_track(self, *args):
            out = track(self, *args)
            tracked_cars.append(sum(det.class_name == "car" for det in out))
            return out

        def spy_vobj_state(self, *args):
            states.append(args)
            return vobj_state(self, *args)

        monkeypatch.setattr(ExecutionContext, "track", spy_track)
        monkeypatch.setattr(ExecutionContext, "vobj_state", spy_vobj_state)
        session = QuerySession(jackson_clip, zoo=zoo, config=PlannerConfig(profile_plans=False))
        result = session.execute(CarTrackQuery())
        assert result.matched_frames
        assert len(tracked_cars) == jackson_clip.num_frames
        assert len(states) == sum(tracked_cars)
        assert all(det.track_id is not None for _type, det, _frame in states)

    def test_stride_filled_frames_bind_track_ids(self, jackson_clip, zoo):
        config = PlannerConfig(profile_plans=False, stride=StrideConfig())
        session = QuerySession(jackson_clip, zoo=zoo, config=config)
        result = session.execute(CarTrackQuery())
        filled = session.last_context.seeded_frames & set(result.matches)
        assert filled
        ids = record_track_ids(result)
        assert all(isinstance(i, int) for frame_id in filled for i in ids[frame_id])

    def test_model_unavailable_frames_bind_track_ids(self, jackson_clip, zoo):
        config = PlannerConfig(
            profile_plans=False,
            obs=ObsConfig(),
            faults=FaultConfig(seed=1, dead_models=(("yolox", 100),)),
        )
        session = QuerySession(jackson_clip, zoo=zoo, config=config)
        result = session.execute(CarTrackQuery())
        degraded = {
            d.frame_id
            for d in session.last_obs.decisions.records("frame-degraded", "model-unavailable")
        }
        filled = degraded & set(result.matches)
        assert filled
        ids = record_track_ids(result)
        assert all(isinstance(i, int) for frame_id in filled for i in ids[frame_id])

    def test_two_trackers_on_one_detector_bind_their_own_tracks(self, zoo):
        """Two stride cohorts whose pairs share a detector: on a gap one
        cohort fills, the other may already have cached real detections.
        Each plan's nodes come from its own pair's tracker output, so every
        binding carries a track id of that pair, and the stateful ``speed``
        of a filled frame has its track state."""

        class MovingPersonQuery(PersonTrackQuery):
            def frame_constraint(self):
                return (self.person.score > 0.5) & (self.person.speed < 50.0)

        video = camera_clip("jackson", duration_s=20, seed=12)
        config = PlannerConfig(profile_plans=False, stride=StrideConfig())
        session = QuerySession(video, zoo=zoo, config=config)
        queries = [CarTrackQuery(), PersonTrackQuery(NorfairPerson), MovingPersonQuery()]
        results = session.execute_many(queries)
        ctx = session.last_context
        assert session.last_scan_stats["partial_deferrals"] > 0
        pairs = [("kalman_tracker", "yolox"), ("norfair_tracker", "yolox"), ("kalman_tracker", "yolox")]
        for result, pair in zip(results, pairs):
            ids = record_track_ids(result)
            assert ids
            for frame_ids in ids.values():
                assert all(isinstance(i, int) and ctx.track_pair(i) == pair for i in frame_ids)
