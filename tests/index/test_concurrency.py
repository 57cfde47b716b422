"""Index write-path safety under thread-pooled multi-camera scans.

A :class:`MultiCameraSession` shares ONE :class:`VideoIndexStore` across
all of its feeds, and the feeds scan concurrently on a thread pool — every
index write from every feed interleaves on the same tables.  The store's
write path is serialized by a re-entrant lock and its canonical
serialization is key-sorted, so the resulting index must be *identical*
whatever ``max_workers`` was, and identical to the bytes a serial run
produces.
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend.planner import PlannerConfig
from repro.backend.session import MultiCameraSession
from repro.frontend.builtin import Car, Person
from repro.frontend.query import Query
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


def run_and_dump(scenario, max_workers):
    session = MultiCameraSession(
        scenario.videos,
        config=PlannerConfig(
            profile_plans=False,
            enable_cross_camera_reid=True,
            enable_video_index=True,
        ),
        max_workers=max_workers,
        start_offsets=scenario.start_offsets,
    )
    results = session.execute_many([CarQuery(), PersonQuery()])
    return session, results, session.index_store.to_json()


class TestConcurrentSaves:
    def test_threads_saving_one_store_never_collide(self, tmp_path):
        # Every feed of a multi-camera session saves the shared store after
        # its scan; saves racing on one temp file used to lose the rename.
        path = tmp_path / "index.json"
        store = VideoIndexStore(str(path))
        threads, rounds = 4, 25
        barrier = threading.Barrier(threads)

        def save_repeatedly(worker):
            barrier.wait()
            for i in range(rounds):
                store.record("video", "detections", "yolox", "v1", f"{worker}:{i}", [worker, i])
                store.save()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often to widen the race
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(save_repeatedly, w) for w in range(threads)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert path.read_text(encoding="utf-8") == store.to_json()
        assert VideoIndexStore(str(path)).to_json() == store.to_json()
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]


class TestConcurrentWrites:
    def test_index_is_identical_across_worker_counts(self, scenario):
        _, serial_results, serial_dump = run_and_dump(scenario, max_workers=1)
        for workers in (2, 4):
            _, results, dump = run_and_dump(scenario, max_workers=workers)
            assert dump == serial_dump, f"index diverged at max_workers={workers}"
            for got, want in zip(results, serial_results):
                assert got.per_camera == want.per_camera

    def test_concurrent_cold_scan_is_complete(self, scenario):
        # The interleaved writes must not lose entries: every feed's scanned
        # frames are present for its detector.
        session, _, dump = run_and_dump(scenario, max_workers=4)
        payload = json.loads(dump)
        for name, feed in session.sessions.items():
            from repro.index.schema import video_key

            kinds = payload["videos"][video_key(feed.video)]["kinds"]
            frames = set()
            for bucket in kinds["detections"].values():
                frames.update(int(f) for f in bucket["entries"])
            scanned = feed.last_context.scan_stats.frames_scanned
            seeded = len(feed.last_context.seeded_frames)
            assert len(frames) == scanned - seeded, f"feed {name} lost index writes"

    def test_warm_multicamera_run_skips_every_detector(self, scenario):
        session, cold_results, _ = run_and_dump(scenario, max_workers=4)
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
