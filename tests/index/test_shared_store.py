"""One index store shared by every feed of a multi-camera session.

A :class:`MultiCameraSession` shares ONE :class:`VideoIndexStore` across
all of its feeds, which run one after another and write into the same
tables.  The store's canonical serialization is key-sorted, so the
resulting index must be *identical* whatever the feed order.  An on-disk
store is saved once per execution (plus once more if re-id linking
embedded something new), and the pid-tagged temporary file keeps two
processes saving one index file apart.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.backend.planner import PlannerConfig
from repro.backend.session import MultiCameraSession
from repro.common.config import IndexConfig
from repro.frontend.builtin import Car, Person
from repro.frontend.query import Query
from repro.index.schema import video_key
from repro.index.store import VideoIndexStore
from repro.videosim.multicam import CameraPlacement, handoff_scenario


class CarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


FOUR_FEEDS = (
    CameraPlacement("cam_a", fps=10, start_offset_s=0.0),
    CameraPlacement("cam_b", fps=15, start_offset_s=2.0),
    CameraPlacement("cam_c", fps=10, start_offset_s=4.0),
    CameraPlacement("cam_d", fps=20, start_offset_s=6.0),
)


@pytest.fixture(scope="module")
def scenario():
    return handoff_scenario(
        cameras=FOUR_FEEDS,
        num_entities=3,
        background_pedestrians_per_minute=4.0,
        seed=0,
    )


def reid_index_config(path=None):
    return PlannerConfig(
        profile_plans=False,
        enable_cross_camera_reid=True,
        enable_video_index=True,
        index_config=IndexConfig(path=path),
    )


def run_and_dump(scenario, videos=None, path=None):
    session = MultiCameraSession(
        videos or scenario.videos,
        config=reid_index_config(path),
        start_offsets=scenario.start_offsets,
    )
    results = session.execute_many([CarQuery(), PersonQuery()])
    return session, results, session.index_store.to_json()


def save_repeatedly(path, worker, rounds):
    store = VideoIndexStore(path)
    for i in range(rounds):
        store.record("video", "detections", "yolox", "v1", f"{worker}:{i}", [worker, i])
        store.save()


class TestProcessSaves:
    def test_processes_saving_one_file_never_collide(self, tmp_path):
        # Two processes saving one index file each write their own
        # pid-tagged temporary file, so every rename lands a whole snapshot.
        path = str(tmp_path / "index.json")
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=save_repeatedly, args=(path, w, 25)) for w in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert not proc.is_alive()
            assert proc.exitcode == 0
        entries = json.loads(open(path, encoding="utf-8").read())["videos"]["video"]
        assert entries["kinds"]["detections"]["yolox"]["entries"]
        assert VideoIndexStore(path).to_json() == open(path, encoding="utf-8").read()
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]


class TestSharedWrites:
    def test_index_is_identical_across_feed_order(self, scenario):
        _, forward_results, forward_dump = run_and_dump(scenario)
        backward = dict(reversed(scenario.videos.items()))
        session, results, dump = run_and_dump(scenario, videos=backward)
        assert dump == forward_dump
        for got, want in zip(results, forward_results):
            assert got.per_camera == want.per_camera

    def test_cold_scan_is_complete(self, scenario):
        # The feeds' writes must not lose entries: every feed's scanned
        # frames are present for its detector.
        session, _, dump = run_and_dump(scenario)
        payload = json.loads(dump)
        for name, feed in session.sessions.items():
            kinds = payload["videos"][video_key(feed.video)]["kinds"]
            frames = set()
            for bucket in kinds["detections"].values():
                frames.update(int(f) for f in bucket["entries"])
            scanned = feed.last_context.scan_stats.frames_scanned
            seeded = len(feed.last_context.seeded_frames)
            assert len(frames) == scanned - seeded, f"feed {name} lost index writes"

    def test_warm_multicamera_run_skips_every_detector(self, scenario):
        session, cold_results, _ = run_and_dump(scenario)
        cold_calls = {
            name: feed.last_context.clock.calls.get("yolox", 0)
            for name, feed in session.sessions.items()
        }
        assert sum(cold_calls.values()) > 0
        warm_results = session.execute_many([CarQuery(), PersonQuery()])
        for name, feed in session.sessions.items():
            assert feed.last_context.clock.calls.get("yolox", 0) == 0, name
        # The warm pass is cheaper (that is the point) but semantically
        # identical: same matches, same events, per feed and per query.
        for got, want in zip(warm_results, cold_results):
            assert set(got.per_camera) == set(want.per_camera)
            for name in got.per_camera:
                g, w = got.per_camera[name], want.per_camera[name]
                assert (g.matched_frames, g.matches, g.events, g.aggregates) == (
                    w.matched_frames,
                    w.matches,
                    w.events,
                    w.aggregates,
                ), name


def model_calls(session, model):
    clocks = [feed.last_context.clock for feed in session.sessions.values()]
    return sum(clock.calls.get(model, 0) for clock in clocks + [session.link_clock])


class TestSaveOncePerExecution:
    def test_four_feed_run_saves_at_most_twice(self, scenario, tmp_path, monkeypatch):
        path = str(tmp_path / "index.json")
        replaced = []
        real_replace = os.replace

        def spy(src, dst):
            replaced.append(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        session, cold_results, dump = run_and_dump(scenario, path=path)
        assert len(session.sessions) == 4
        # One save after the feeds, one more only if linking embedded.
        assert 1 <= len(replaced) <= 2
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == dump
        # The file holds what an in-memory run of the same batch holds.
        assert run_and_dump(scenario)[2] == dump

        replaced.clear()
        warm, warm_results, _ = run_and_dump(scenario, path=path)
        assert model_calls(warm, "yolox") == 0
        assert model_calls(warm, "reid_feature") == 0
        assert replaced == []
        for got, want in zip(warm_results, cold_results):
            for name in got.per_camera:
                assert got.per_camera[name].matches == want.per_camera[name].matches

    def test_failed_batch_still_saves_the_survivors(self, scenario, tmp_path, monkeypatch):
        from repro.common.errors import ExecutionError

        path = str(tmp_path / "index.json")
        session = MultiCameraSession(
            scenario.videos, config=reid_index_config(path), start_offsets=scenario.start_offsets
        )
        first = next(iter(session.sessions.values()))

        def boom(*args, **kwargs):
            raise RuntimeError("injected feed failure")

        monkeypatch.setattr(first, "execute_many", boom)
        with pytest.raises(ExecutionError):
            session.execute_many([CarQuery()])
        saved = json.loads(open(path, encoding="utf-8").read())["videos"]
        survivors = [feed for feed in session.sessions.values() if feed is not first]
        assert {video_key(feed.video) for feed in survivors} <= set(saved)
