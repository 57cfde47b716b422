"""Tests for ground-truth entities, lazy frame handles, and video reading."""

import copy
import pickle
import sys
import threading

import pytest

from repro.common.clock import SimClock
from repro.common.geometry import BBox
from repro.common.config import FaultConfig, VideoSpec
from repro.faults.injection import FaultInjector
from repro.videosim.entities import GTInstance, InteractionEvent, ObjectSpec
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import Frame, SyntheticVideo, VideoReader


def make_spec(**kw):
    defaults = dict(object_id=1, class_name="car", trajectory=LinearTrajectory((100, 100), (1, 0)), size=(50, 30))
    defaults.update(kw)
    return ObjectSpec(**defaults)


class TestObjectSpec:
    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            make_spec(class_name="dragon")

    def test_exit_before_enter_rejected(self):
        with pytest.raises(ValueError):
            make_spec(enter_frame=10, exit_frame=5)

    def test_alive_at(self):
        spec = make_spec(enter_frame=5, exit_frame=10)
        assert not spec.alive_at(4)
        assert spec.alive_at(5) and spec.alive_at(10)
        assert not spec.alive_at(11)

    def test_action_schedule_overrides_default(self):
        spec = make_spec(class_name="person", default_action="walking", action_schedule={7: "fallen"})
        assert spec.action_at(6) == "walking"
        assert spec.action_at(7) == "fallen"

    def test_bbox_follows_trajectory(self):
        spec = make_spec()
        assert spec.bbox_at(0).center == (100, 100)
        assert spec.bbox_at(10).center == (110, 100)


class TestInteractionEvent:
    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            InteractionEvent(1, 2, "hit", 10, 5)

    def test_active_at(self):
        event = InteractionEvent(1, 2, "hit", 5, 8)
        assert not event.active_at(4)
        assert event.active_at(5) and event.active_at(8)
        assert not event.active_at(9)


class TestSyntheticVideo:
    def test_duplicate_ids_rejected(self):
        spec = VideoSpec("v", 10, 640, 480, 2)
        with pytest.raises(ValueError):
            SyntheticVideo(spec, [make_spec(object_id=1), make_spec(object_id=1)])

    def test_num_frames_from_spec(self, tiny_video):
        assert tiny_video.num_frames == 50
        assert len(tiny_video) == 50

    def test_frame_out_of_range(self, tiny_video):
        with pytest.raises(IndexError):
            tiny_video.frame(50)

    def test_frame_contains_visible_objects(self, tiny_video):
        frame = tiny_video.frame(0)
        assert isinstance(frame, Frame)
        assert {i.class_name for i in frame.instances} == {"car", "person"}
        assert frame.timestamp == 0.0

    def test_objects_leave_the_frame(self, tiny_video):
        # The car drives right at 6 px/frame from x=50; it eventually exits.
        last = tiny_video.frame(tiny_video.num_frames - 1)
        assert last.instances_of("car") == [] or last.instances_of("car")[0].bbox.x2 <= 640

    def test_instance_by_id(self, tiny_video):
        frame = tiny_video.frame(0)
        assert frame.instance_by_id(2).class_name == "person"
        assert frame.instance_by_id(99) is None

    def test_interactions_attached(self):
        spec = VideoSpec("v", 10, 640, 480, 2)
        a = make_spec(object_id=1, class_name="person", trajectory=StationaryTrajectory((100, 100)))
        b = make_spec(object_id=2, class_name="ball", trajectory=StationaryTrajectory((120, 100)), size=(10, 10))
        video = SyntheticVideo(spec, [a, b], events=[InteractionEvent(1, 2, "hit", 0, 5)])
        inst = video.frame(3).instance_by_id(1)
        assert inst.interacts("hit")
        other = video.frame(3).instance_by_id(2)
        assert other.interactions == (("hit", 1, False),)
        assert not video.frame(10).instance_by_id(1).interacts("hit")

    def test_canary_is_prefix(self, tiny_video):
        canary = tiny_video.canary(10)
        assert canary.num_frames == 10
        assert canary.frame(3).instances == tiny_video.frame(3).instances

    def test_ground_truth_tracks_filter(self, tiny_video):
        assert len(tiny_video.ground_truth_tracks("car")) == 1
        assert len(tiny_video.ground_truth_tracks()) == 2


class TestLazyFrame:
    def test_handle_renders_once_on_first_read(self, tiny_video, renders):
        frame = tiny_video.frame(3)
        assert renders == []
        assert frame.num_objects == 2
        assert frame.instance_by_id(1) is frame.instances_of("car")[0]
        assert renders == [(tiny_video, 3)]

    def test_rendered_frame_equals_a_fresh_handle(self, tiny_video):
        rendered = tiny_video.frame(3)
        rendered.instances
        fresh = tiny_video.frame(3)
        assert repr(fresh) == repr(rendered)  # fresh is not rendered yet
        assert fresh == rendered and hash(fresh) == hash(rendered)
        assert fresh.num_objects == rendered.num_objects
        assert fresh.instances == rendered.instances
        assert repr(fresh) == repr(rendered)  # now both are

    def test_equality_compares_ground_truth_across_videos(self, tiny_video):
        assert tiny_video.canary(10).frame(3) == tiny_video.frame(3)
        empty = SyntheticVideo(tiny_video.spec, [], scene_attributes=tiny_video.scene_attributes)
        assert empty.frame(3) != tiny_video.frame(3)
        assert tiny_video.frame(3) != tiny_video.frame(4)

    def test_deepcopy_returns_the_frame_itself(self, tiny_video):
        frame = tiny_video.frame(3)
        assert copy.deepcopy(frame) is frame
        frame.instances
        assert copy.deepcopy(frame) is frame

    def test_reader_hook_tags_without_rendering(self, tiny_video, renders):
        injector = FaultInjector(FaultConfig(seed=1, corrupt_frame_rate=1.0))
        tagged = injector.reader_hook(tiny_video.frame(3))
        assert tagged.scene_attributes["fault"] == "corrupted"
        assert renders == []
        assert tagged.instances == tiny_video.frame(3).instances

    def test_concurrent_first_reads_agree(self, tiny_video):
        """Threads racing to fill one memo each see the frame's ground truth."""
        expected = [tiny_video._render(i) for i in range(tiny_video.num_frames)]
        frames = [tiny_video.frame(i) for i in range(tiny_video.num_frames)]
        seen = [[] for _ in range(4)]

        def read(out):
            out.extend(frame.instances for frame in frames)

        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == expected for out in seen)
        assert [frame.instances for frame in frames] == expected

    def test_pickle_round_trip_keeps_ground_truth(self, tiny_video):
        rendered = tiny_video.frame(3)
        rendered.instances
        for frame in (rendered, tiny_video.frame(4)):
            copied = pickle.loads(pickle.dumps(frame))
            assert copied.instances == frame.instances
            assert copied == frame


class TestGTInstance:
    def test_speed_property(self):
        inst = GTInstance(1, "car", BBox(0, 0, 10, 10), 0, {}, velocity=(3, 4))
        assert inst.speed == pytest.approx(5.0)

    def test_attribute_default(self, tiny_video):
        inst = tiny_video.frame(0).instance_by_id(1)
        assert inst.attribute("color") == "red"
        assert inst.attribute("missing", "fallback") == "fallback"


class TestVideoReader:
    def test_reader_yields_all_frames(self, tiny_video):
        frames = list(VideoReader(tiny_video))
        assert len(frames) == tiny_video.num_frames

    def test_reader_charges_decode_cost(self, tiny_video):
        clock = SimClock()
        list(VideoReader(tiny_video, clock=clock))
        assert clock.by_account["video_reader"] > 0

    def test_batches(self, tiny_video):
        batches = list(VideoReader(tiny_video, batch_size=8).batches())
        assert sum(len(b) for b in batches) == tiny_video.num_frames
        assert all(len(b) == 8 for b in batches[:-1])

    def test_invalid_batch_size(self, tiny_video):
        with pytest.raises(ValueError):
            VideoReader(tiny_video, batch_size=0)
