"""Tests for the persistent video index (:mod:`repro.index`).

Covers the store primitives (versioned lookup/record, canonical
serialization, corruption recovery, keys and values that survive the
file), the session-level contract (a re-query over an indexed video serves
detector outputs / filter verdicts / re-id embeddings / property and
interaction model outputs from the index with identical results, a stale
model version falls back to live invocation, seeded frames and failed calls
are never persisted, the disabled path is byte-identical), decode on demand
(a warm scan renders only the frames a live model reads, and a fully
indexed one renders none), tracker replay from the ``track_ids``
table (a warm scan serves tracker output and rebuilds the live tracker at
the first divergence), the planner's consumption of observed
per-video statistics (``enable_video_index`` replacing the
``stride_stable_fraction`` prior), and the observability surface
(the index view's counters, decisions, explain section).
"""

from __future__ import annotations

import json
import os
from functools import partial

import numpy as np
import pytest

from repro.backend.planner import Planner, PlannerConfig
from repro.backend.session import MultiCameraSession, QuerySession
from repro.common.config import FaultConfig, IndexConfig, VideoSpec
from repro.common.geometry import BBox
from repro.faults.resilience import InertFaults
from repro.frontend.builtin import Car, GetsInto, Person, RedCar
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.properties import vobj_filter
from repro.frontend.query import Query
from repro.index.schema import (
    KIND_PROPERTY,
    KIND_TRACK_IDS,
    detection_from_record,
    detection_key,
    detection_to_record,
    interaction_key,
    model_version,
    video_key,
)
from repro.index.store import NO_INDEX, VideoIndexStore
from repro.models.base import Detection
from repro.models.properties import ColorModel
from repro.models.zoo import default_zoo
from repro.videosim.datasets import camera_clip, hit_and_run_clip
from repro.videosim.entities import ObjectSpec
from repro.videosim.multicam import CameraPlacement, handoff_scenario
from repro.videosim.trajectory import LinearTrajectory
from repro.videosim.video import SyntheticVideo


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


class CarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class GatedRedCarQuery(Query):
    """RedCar VObj: carries the registered ``no_red_on_road`` frame filter."""

    def __init__(self):
        self.car = RedCar("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


@pytest.fixture(scope="module")
def video():
    return camera_clip("banff", duration_s=10, seed=1)


def indexed_config(**kw):
    return PlannerConfig(profile_plans=False, enable_video_index=True, **kw)


def detector_calls(session, model="yolox"):
    return session.last_context.clock.calls.get(model, 0)


def tracker_calls(session):
    return detector_calls(session, "kalman_tracker")


def result_signature(result):
    return (result.matched_frames, result.matches, result.events, result.aggregates)


# ---------------------------------------------------------------------------
# Store primitives
# ---------------------------------------------------------------------------


class TestVideoIndexStore:
    def test_lookup_record_round_trip(self):
        store = VideoIndexStore()
        assert store.lookup("v", "detections", "yolox", "D@0", "3") == ("miss", None)
        store.record("v", "detections", "yolox", "D@0", "3", [1, 2])
        assert store.lookup("v", "detections", "yolox", "D@0", "3") == ("hit", [1, 2])

    def test_version_mismatch_is_stale_and_superseded_on_write(self):
        store = VideoIndexStore()
        store.record("v", "detections", "yolox", "D@0", "3", "old")
        assert store.lookup("v", "detections", "yolox", "D@1", "3")[0] == "stale"
        # A fresh-version write replaces the whole stale bucket.
        store.record("v", "detections", "yolox", "D@1", "4", "new")
        assert store.lookup("v", "detections", "yolox", "D@1", "3") == ("miss", None)
        assert store.lookup("v", "detections", "yolox", "D@1", "4") == ("hit", "new")

    def test_canonical_json_is_write_order_independent(self):
        a, b = VideoIndexStore(), VideoIndexStore()
        a.record("v", "filter", "m1", "V", "1", True)
        a.record("v", "filter", "m2", "V", "2", False)
        b.record("v", "filter", "m2", "V", "2", False)
        b.record("v", "filter", "m1", "V", "1", True)
        assert a.to_json() == b.to_json()

    def test_save_and_reload_round_trip(self, tmp_path):
        path = str(tmp_path / "index.json")
        store = VideoIndexStore(path)
        store.record("v", "detections", "yolox", "D@0", "3", [{"x": 1.5}])
        store.save()
        reloaded = VideoIndexStore(path)
        assert reloaded.to_json() == store.to_json()

    def test_corrupt_file_warns_and_starts_empty(self, tmp_path):
        path = str(tmp_path / "index.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"schema_version": 1, "videos": [truncated')
        with pytest.warns(UserWarning, match="unreadable"):
            store = VideoIndexStore(path)
        assert store.lookup("v", "detections", "yolox", "D@0", "0") == ("miss", None)
        # The rebuilt index saves over the corpse and reloads cleanly.
        store.record("v", "detections", "yolox", "D@0", "0", [])
        store.save()
        assert VideoIndexStore(path).lookup("v", "detections", "yolox", "D@0", "0") == ("hit", [])

    def test_file_with_a_track_summary_table_still_loads(self, tmp_path, recwarn):
        # Older stores wrote per-pair track summaries; nothing reads them
        # any more, but their files must stay valid.
        path = str(tmp_path / "index.json")
        bucket = {
            "kinds": {"detections": {"yolox": {"version": "D@0", "entries": {"0": []}}}},
            "tracks": {"sort|yolox": {"version": "D@0", "tracks": {"1": {"class_name": "car"}}}},
            "stats": {"frames_scanned": 1},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, "videos": {"v": bucket}}, fh)
        store = VideoIndexStore(path)
        assert not recwarn.list
        assert store.lookup("v", "detections", "yolox", "D@0", "0") == ("hit", [])

    def test_wrong_schema_version_is_treated_as_corrupt(self, tmp_path):
        path = str(tmp_path / "index.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 999, "videos": {}}, fh)
        with pytest.warns(UserWarning, match="schema version"):
            VideoIndexStore(path)

    def test_model_version_tracks_class_and_seed(self):
        zoo0, zoo5 = default_zoo(seed=0), default_zoo(seed=5)
        assert model_version(zoo0.get("yolox")) != model_version(zoo5.get("yolox"))
        assert model_version(zoo0.get("yolox")) == model_version(default_zoo(seed=0).get("yolox"))

    def test_detection_key_is_content_addressed(self):
        det = Detection("car", BBox(1.0, 2.0, 3.0, 4.0), 0.9, frame_id=7, track_id=3)
        relabeled = det.with_track(99)
        assert detection_key(det) == detection_key(relabeled)
        moved = Detection("car", BBox(1.0, 2.0, 3.0, 4.5), 0.9, frame_id=7)
        assert detection_key(det) != detection_key(moved)

    def test_detection_key_survives_a_json_round_trip(self):
        # Live boxes carry numpy coordinates; boxes read back from an index
        # file carry plain floats.  Both must key the same detection.
        coords = np.array([618.2134567891234, 2.5, 700.1, 90.0]) / 1.0
        det = Detection("car", BBox(*coords), 0.9, frame_id=7, gt_object_id=4)
        assert type(det.bbox.x1) is np.float64
        loaded = detection_from_record(json.loads(json.dumps(detection_to_record(det))))
        assert type(loaded.bbox.x1) is float
        assert detection_key(loaded) == detection_key(det)
        assert interaction_key(loaded, det) == interaction_key(det, loaded)

    def test_only_json_exact_property_values_are_recorded(self, video):
        view = VideoIndexStore().view(video, default_zoo())
        exact = [None, True, 3, 1.5, "red"]
        inexact = [np.float64(1.5), np.str_("red"), float("nan"), [1], (1,), np.zeros(2)]
        dets = [
            Detection("car", BBox(1.0, 2.0, 3.0, 4.0), 0.9, frame_id=i)
            for i in range(len(exact + inexact))
        ]
        for det, value in zip(dets, exact + inexact):
            view.record_property("color_detect", det, value)
        assert view.counters["written"] == len(exact)
        for det, value in zip(dets, exact):
            hit, got = view.lookup_property("color_detect", det)
            assert hit and got == value and type(got) is type(value)
        for det in dets[len(exact):]:
            assert view.lookup_property("color_detect", det) == (False, None)

    def test_interaction_kinds_round_trip_as_a_tuple(self, video, tmp_path):
        path = str(tmp_path / "index.json")
        store = VideoIndexStore(path)
        subject = Detection("person", BBox(1.0, 2.0, 3.0, 4.0), 0.9, frame_id=7)
        object_ = Detection("car", BBox(5.0, 6.0, 7.0, 8.0), 0.8, frame_id=7)
        view = store.view(video, default_zoo())
        assert view.lookup_interaction("upt", subject, object_) is None
        view.record_interaction("upt", subject, object_, ("get_into",))
        view.record_interaction("upt", object_, subject, ())
        store.save()
        reloaded = VideoIndexStore(path).view(video, default_zoo())
        assert reloaded.lookup_interaction("upt", subject, object_) == ("get_into",)
        assert reloaded.lookup_interaction("upt", object_, subject) == ()


# ---------------------------------------------------------------------------
# Session-level contract
# ---------------------------------------------------------------------------


class TestRequery:
    def test_warm_requery_serves_detections_from_index(self, video):
        store = VideoIndexStore()
        cold = QuerySession(video, config=indexed_config(), index_store=store)
        cold_result = cold.execute(RedCarQuery())
        cold_calls = detector_calls(cold)
        assert cold_calls > 0
        assert cold.last_context.index.counters["written"] > 0

        warm = QuerySession(video, config=indexed_config(), index_store=store)
        warm_result = warm.execute(RedCarQuery())
        # The warm scan re-invokes the detector on (far fewer than 5% of)
        # the cold invocations — here: zero — with identical results.
        assert detector_calls(warm) <= 0.05 * cold_calls
        assert result_signature(warm_result) == result_signature(cold_result)
        counters = warm.last_context.index.counters
        assert counters["hits"] > 0 and counters["misses"] == 0

    def test_warm_requery_with_different_query_still_hits(self, video):
        store = VideoIndexStore()
        cold = QuerySession(video, config=indexed_config(), index_store=store)
        cold.execute(CarQuery())
        cold_calls = detector_calls(cold)
        # A *different* query over the same video reuses the same detector
        # results: indexing is per (video, model), not per query.
        warm = QuerySession(video, config=indexed_config(), index_store=store)
        baseline = QuerySession(video, config=PlannerConfig(profile_plans=False))
        assert result_signature(warm.execute(RedCarQuery())) == result_signature(
            baseline.execute(RedCarQuery())
        )
        assert detector_calls(warm) <= 0.05 * cold_calls

    def test_disabled_mode_is_byte_identical_and_index_free(self, video):
        plain = QuerySession(video, config=PlannerConfig(profile_plans=False))
        plain_result = plain.execute(RedCarQuery())
        assert plain.last_context.index is NO_INDEX
        assert plain.index_store is None
        # Enabling the index changes nothing about a cold run but the
        # persistence side effect: identical results, identical clock.
        indexed = QuerySession(video, config=indexed_config())
        indexed_result = indexed.execute(RedCarQuery())
        assert result_signature(indexed_result) == result_signature(plain_result)
        assert indexed.last_context.clock.breakdown() == plain.last_context.clock.breakdown()
        # index_config alone (switch off) builds no per-execution view.
        off = QuerySession(
            video, config=PlannerConfig(profile_plans=False, index_config=IndexConfig())
        )
        off.execute(RedCarQuery())
        assert off.last_context.index is NO_INDEX

    def test_stale_model_version_falls_back_to_live_invocation(self, video):
        store = VideoIndexStore()
        cold = QuerySession(video, config=indexed_config(), index_store=store)
        cold.execute(RedCarQuery())
        assert detector_calls(cold) > 0

        # A retrained zoo (new seed => new model version) must not be served
        # the old version's entries: every lookup is stale, the models run
        # live, and results match an index-free session with the same zoo.
        retrained = default_zoo(seed=5)
        stale = QuerySession(
            video, zoo=retrained, config=indexed_config(enable_tracing=True), index_store=store
        )
        stale_result = stale.execute(RedCarQuery())
        assert detector_calls(stale) == detector_calls(cold)
        counters = stale.last_context.index.counters
        assert counters["stale"] > 0 and counters["hits"] == 0
        summary = stale.last_obs.decisions.summary()
        assert "model-version-mismatch" in summary.get("index-stale", {})

        reference = QuerySession(
            video, zoo=default_zoo(seed=5), config=PlannerConfig(profile_plans=False)
        )
        assert result_signature(stale_result) == result_signature(
            reference.execute(RedCarQuery())
        )

    def test_seeded_frames_are_never_persisted(self, video):
        config = indexed_config(enable_stride_sampling=True)
        store = VideoIndexStore()
        cold = QuerySession(video, config=config, index_store=store)
        cold_result = cold.execute(RedCarQuery())
        seeded = cold.last_context.seeded_frames
        assert seeded, "scenario must exercise stride interpolation"
        payload = json.loads(store.to_json())
        buckets = payload["videos"][video_key(video)]["kinds"]["detections"]
        recorded = {
            int(frame_id)
            for bucket in buckets.values()
            for frame_id in bucket["entries"]
        }
        assert recorded, "real detections must be persisted"
        assert not (recorded & seeded), "interpolation-seeded frames leaked into the index"
        # The warm stride run is still equivalent.
        warm = QuerySession(video, config=config, index_store=store)
        assert result_signature(warm.execute(RedCarQuery())) == result_signature(cold_result)

    def test_corrupted_index_file_triggers_full_rescan(self, tmp_path, video):
        path = str(tmp_path / "index.json")
        config = indexed_config(index_config=IndexConfig(path=path))
        cold = QuerySession(video, config=config)
        cold.execute(RedCarQuery())
        cold_calls = detector_calls(cold)

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not an index at all")
        with pytest.warns(UserWarning, match="unreadable"):
            rebuilt = QuerySession(video, config=config)
        rebuilt.execute(RedCarQuery())
        assert detector_calls(rebuilt) == cold_calls, "corrupt index must rescan in full"
        # ... and the rescan rebuilt the file: the next session is warm again.
        warm = QuerySession(video, config=config)
        warm.execute(RedCarQuery())
        assert detector_calls(warm) == 0


class TestGateVerdicts:
    def test_filter_verdicts_served_from_index(self, video):
        store = VideoIndexStore()
        config = indexed_config()
        cold = QuerySession(video, config=config, index_store=store)
        cold_result = cold.execute(GatedRedCarQuery())
        cold_evals = cold.last_context.scan_stats.gate_evaluations
        assert cold_evals > 0, "GatedRedCarQuery must register a frame filter"

        warm = QuerySession(video, config=config, index_store=store)
        warm_result = warm.execute(GatedRedCarQuery())
        assert warm.last_context.scan_stats.gate_evaluations == 0
        assert result_signature(warm_result) == result_signature(cold_result)


    def test_ungated_filter_verdicts_use_the_index(self, video):
        """With the gate off the in-pipeline FrameFilterOp writes verdicts
        through and a warm re-query serves them without running the filter."""
        store = VideoIndexStore()
        config = indexed_config(enable_scan_gating=False)
        cold = QuerySession(video, config=config, index_store=store)
        cold_result = cold.execute(GatedRedCarQuery())
        assert cold.last_context.clock.calls.get("no_red_on_road", 0) > 0
        assert cold.last_context.index.counters["written"] > 0

        warm = QuerySession(video, config=config, index_store=store)
        warm_result = warm.execute(GatedRedCarQuery())
        assert warm.last_context.clock.calls.get("no_red_on_road", 0) == 0
        assert result_signature(warm_result) == result_signature(cold_result)


class TestEmbeddings:
    @pytest.fixture(scope="class")
    def scenario(self):
        return handoff_scenario(
            cameras=(
                CameraPlacement("cam_a", fps=10, start_offset_s=0.0),
                CameraPlacement("cam_b", fps=15, start_offset_s=3.0),
            ),
            num_entities=3,
            seed=0,
        )

    def test_reid_embeddings_reused_across_executions(self, scenario):
        config = PlannerConfig(
            profile_plans=False,
            enable_cross_camera_reid=True,
            enable_video_index=True,
        )
        session = MultiCameraSession(
            scenario.videos, config=config, start_offsets=scenario.start_offsets
        )
        first = session.execute(CarQuery())
        cold_reid = session.link_clock.calls.get("reid_feature", 0)
        assert cold_reid > 0, "cold linking must embed at least one track"

        second = session.execute(CarQuery())
        # The second execution re-links from indexed embeddings: zero re-id
        # model invocations, identical identity assignment.
        assert session.link_clock.calls.get("reid_feature", 0) == 0
        assert second.global_tracks() == first.global_tracks()

    def test_reid_embeddings_reused_from_an_index_file(self, scenario, tmp_path):
        # Embeddings are keyed by their source detection; a detection read
        # back from the file must key like the live one the cold run saw.
        config = PlannerConfig(
            profile_plans=False,
            enable_cross_camera_reid=True,
            enable_video_index=True,
            index_config=IndexConfig(path=str(tmp_path / "index.json")),
        )
        cold = MultiCameraSession(
            scenario.videos, config=config, start_offsets=scenario.start_offsets
        )
        first = cold.execute(CarQuery())
        assert cold.link_clock.calls.get("reid_feature", 0) > 0
        # A new session loads the file the first one saved.
        warm = MultiCameraSession(
            scenario.videos, config=config, start_offsets=scenario.start_offsets
        )
        second = warm.execute(CarQuery())
        assert sum(detector_calls(feed) for feed in warm.sessions.values()) == 0
        assert warm.link_clock.calls.get("reid_feature", 0) == 0
        assert second.global_tracks() == first.global_tracks()


# ---------------------------------------------------------------------------
# Property and interaction model outputs
# ---------------------------------------------------------------------------


class TextureCar(Car):
    """A car behind the ``texture_car_filter`` gate (3% false negatives)."""

    @vobj_filter(model="texture_car_filter")
    def has_car(self, frame):
        ...


class ColorCarQuery(Query):
    def __init__(self, color, vobj_type=Car):
        self.car = vobj_type("car")
        self.color = color

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == self.color)

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class GetsIntoQuery(Query):
    """A relation query over the ``upt`` interaction model."""

    def __init__(self):
        self.person = Person("person")
        self.car = Car("car")
        self.gets_into = GetsInto(self.person, self.car, "gets_into")

    def frame_constraint(self):
        return (self.person.score > 0.5) & (self.gets_into.interaction == "get_into")

    def frame_output(self):
        return (self.person.track_id, self.car.track_id)


@pytest.fixture(scope="module")
def color_clip():
    """Black cars from frame 25, silver ones from frame 178: a batch of
    ``color_batch`` retires one leaf early and stops the scan at 180."""
    return camera_clip("jackson", duration_s=20, seed=1)


def color_batch():
    return [
        ColorCarQuery("black").bounded(3),
        ColorCarQuery("silver", TextureCar).bounded(3),
    ]


def property_calls(session, model="color_detect"):
    return session.last_context.clock.calls.get(model, 0)


def property_frames(store, video, model="color_detect"):
    """Frame ids of every stored ``property`` entry of ``model``."""
    kinds = json.loads(store.to_json())["videos"][video_key(video)]["kinds"]
    entries = kinds.get(KIND_PROPERTY, {}).get(model, {}).get("entries", {})
    return {int(key.split("|", 1)[0]) for key in entries}


def retrained_color_zoo():
    """The default zoo with ``color_detect`` retrained (another seed)."""
    zoo = default_zoo()
    zoo.register("color_detect", partial(ColorModel, seed=7), **zoo.metadata("color_detect"))
    return zoo


FAULTS = {
    "none": {},
    "transient": dict(
        enable_fault_tolerance=True,
        fault_config=FaultConfig(transient_rate=0.1),
    ),
    "dead": dict(
        enable_fault_tolerance=True,
        fault_config=FaultConfig(dead_models=(("color_detect", 60),)),
    ),
}


class TestPropertyIndex:
    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @pytest.mark.parametrize("early_exit", [False, True], ids=["no-exit", "exit"])
    @pytest.mark.parametrize("gating", [False, True], ids=["ungated", "gated"])
    @pytest.mark.parametrize("stride", [False, True], ids=["stride-1", "stride"])
    def test_warm_equals_cold_without_property_calls(
        self, color_clip, stride, gating, early_exit, faults
    ):
        config = indexed_config(
            enable_stride_sampling=stride,
            enable_scan_gating=gating,
            enable_early_exit=early_exit,
            **FAULTS[faults],
        )
        store = VideoIndexStore()
        cold, want = run_batch(color_clip, config, store, color_batch())
        assert property_calls(cold) > 0
        warm, got = run_batch(color_clip, config, store, color_batch())
        assert got == want
        assert property_calls(warm) == 0
        # A served value lands on the track state like a live one.
        assert warm.last_context.reuse_stats == cold.last_context.reuse_stats
        cold_stats = cold.last_context.scan_stats
        assert warm.last_context.scan_stats.frames_degraded == cold_stats.frames_degraded

    def test_seeded_frame_values_are_not_recorded(self, video, model_frames):
        # Without reuse the colour model also runs on interpolation-seeded
        # detections; those values must stay out of the index.
        config = indexed_config(enable_stride_sampling=True, enable_reuse=False)
        store = VideoIndexStore()
        cold, want = run_batch(video, config, store, [RedCarQuery()])
        seeded = cold.last_context.seeded_frames
        assert set(model_frames) & seeded, "a property model must run on a seeded frame"
        recorded = property_frames(store, video)
        assert recorded and not (recorded & seeded)
        del model_frames[:]

        warm, got = run_batch(video, config, store, [RedCarQuery()])
        assert got == want
        # Only the seeded frames' values are computed again.
        assert model_frames and set(model_frames) <= warm.last_context.seeded_frames

    def test_failed_call_records_nothing_and_warm_retries_live(self, color_clip):
        dead = indexed_config(
            enable_fault_tolerance=True,
            fault_config=FaultConfig(dead_models=(("color_detect", 60),)),
        )
        store = VideoIndexStore()
        cold, want = run_batch(color_clip, dead, store, color_batch())
        failures = cold.last_context.scan_stats.model_failures
        assert failures > 0
        assert property_frames(store, color_clip) and max(property_frames(store, color_clip)) < 60

        warm, got = run_batch(color_clip, dead, store, color_batch())
        assert got == want
        assert warm.last_context.scan_stats.model_failures == failures
        # A healthy model answers what failed, live; the rest is served.
        healthy, got = run_batch(color_clip, indexed_config(), store, color_batch())
        fresh, want = run_batch(color_clip, indexed_config(), VideoIndexStore(), color_batch())
        assert got == want
        assert 0 < property_calls(healthy) < property_calls(fresh)

    def test_retrained_color_model_is_stale_and_runs_live(self, color_clip):
        store = VideoIndexStore()
        run_batch(color_clip, indexed_config(), store, color_batch())
        config = indexed_config(enable_tracing=True)
        stale = QuerySession(
            color_clip, zoo=retrained_color_zoo(), config=config, index_store=store
        )
        got = batch_signature(stale.execute_many(color_batch()))
        reference = QuerySession(
            color_clip, zoo=retrained_color_zoo(), config=PlannerConfig(profile_plans=False)
        )
        assert got == batch_signature(reference.execute_many(color_batch()))
        assert detector_calls(stale) == 0
        # Car and TextureCar track states each ask for a detection's colour;
        # without the index both run the model, with it the second is a hit.
        assert 0 < property_calls(stale) <= property_calls(reference)
        # The first live value supersedes the stale bucket; later lookups
        # of the new version miss.  Each of those ran the model.
        counters = stale.last_context.index.counters
        assert counters["stale"] == 1
        assert counters["stale"] + counters["misses"] == property_calls(stale)
        (record,) = stale.last_obs.decisions.records(action="index-stale")
        assert record.reason == "model-version-mismatch"
        assert dict(record.attrs)["model"] == "color_detect"

    def test_relation_warm_rerun_makes_no_interaction_calls(self):
        clip = hit_and_run_clip(duration_s=10)
        store = VideoIndexStore()
        cold, want = run_batch(clip, indexed_config(), store, [GetsIntoQuery()])
        assert property_calls(cold, "upt") > 0
        warm, got = run_batch(clip, indexed_config(), store, [GetsIntoQuery()])
        assert got == want
        assert property_calls(warm, "upt") == 0
        assert warm.last_context.index.counters["misses"] == 0


# ---------------------------------------------------------------------------
# Planner consumption of observed statistics
# ---------------------------------------------------------------------------


class TestObservedStats:
    def test_stride_scan_records_stable_fraction_and_planner_consumes_it(self, video):
        store = VideoIndexStore()
        config = indexed_config(enable_stride_sampling=True)
        session = QuerySession(video, config=config, index_store=store)
        session.execute(RedCarQuery())

        observed = store.observed_stable_fraction(video_key(video), min_frames=1)
        assert observed is not None and 0.0 < observed <= 1.0
        stats = session.last_context.scan_stats
        assert observed == stats.frames_interpolated / stats.frames_scanned
        # The session's planner sees the same number through its store...
        assert session.planner._observed_stable_fraction(video) == observed
        # ...and an index-free planner keeps the configured prior.
        assert Planner(session.zoo, config)._observed_stable_fraction(video) is None

    def test_observed_fraction_shifts_the_stride_discount(self, video):
        store = VideoIndexStore()
        config = indexed_config(enable_stride_sampling=True, stride_stable_fraction=0.5)
        session = QuerySession(video, config=config, index_store=store)
        session.execute(RedCarQuery())
        observed = store.observed_stable_fraction(video_key(video), min_frames=1)
        assert observed != config.stride_stable_fraction

        planner = session.planner
        plan = planner.plan(RedCarQuery(), video)
        breakdown = {name: 100.0 for name in plan.detector_models()}
        with_prior = planner._stride_detector_discount_ms(plan, breakdown, video=None)
        with_observed = planner._stride_detector_discount_ms(plan, breakdown, video)
        assert with_observed == pytest.approx(with_prior * observed / 0.5)

    def test_unindexed_scan_never_records_stable_fraction(self, video):
        # Without stride sampling there is no stability observation: the
        # prior must survive (a recorded 0.0 would zero the discount).
        store = VideoIndexStore()
        session = QuerySession(video, config=indexed_config(), index_store=store)
        session.execute(RedCarQuery())
        assert store.observed_stable_fraction(video_key(video), min_frames=1) is None
        assert "frames_scanned" in store.video_stats(video_key(video))

    def test_noisy_short_observations_are_distrusted(self, video):
        store = VideoIndexStore()
        config = indexed_config(
            enable_stride_sampling=True,
            index_config=IndexConfig(stats_min_frames=10_000),
        )
        session = QuerySession(video, config=config, index_store=store)
        session.execute(RedCarQuery())
        assert session.planner._observed_stable_fraction(video) is None


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_metrics_decisions_and_explain_section(self, video):
        store = VideoIndexStore()
        config = indexed_config(enable_tracing=True)
        cold = QuerySession(video, config=config, index_store=store)
        cold.execute(RedCarQuery())
        cold_counters = cold.last_context.index.counters
        assert cold_counters["misses"] > 0
        assert cold_counters["written"] > 0
        assert cold.last_obs.decisions.count("index-miss") == cold_counters["misses"]
        # The per-video statistics count as one more written record.
        assert cold.last_obs.decisions.count("index-written") == cold_counters["written"]
        assert cold.last_obs.decisions.count("index-written", "video-stats") == 1

        warm = QuerySession(video, config=config, index_store=store)
        result = warm.execute(RedCarQuery())
        warm_counters = warm.last_context.index.counters
        assert warm_counters["hits"] > 0
        assert warm.last_obs.decisions.count("index-hit") == warm_counters["hits"]
        summary = warm.last_obs.decisions.summary()
        assert "index-hit" in summary
        text = result.explain()
        assert "Index:" in text and "hits=" in text

    def test_disabled_explain_has_no_index_section(self, video):
        session = QuerySession(
            video, config=PlannerConfig(profile_plans=False, enable_tracing=True)
        )
        result = session.execute(RedCarQuery())
        assert "Index:" not in result.explain()


# ---------------------------------------------------------------------------
# Tracker replay
# ---------------------------------------------------------------------------


class TextureCarQuery(CarQuery):
    def __init__(self):
        self.car = TextureCar("car")


def two_car_clip():
    """Two cars in view from frame 0: the texture gate admits frame 0 and
    rejects a few later frames (its false negatives)."""
    spec = VideoSpec("two-cars", fps=10, width=640, height=480, duration_s=20)
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
    return [RedCarQuery(), CarQuery(), PersonQuery()]


def batch_signature(results):
    return [result_signature(r) for r in results]


def run_batch(video, config, store=None, queries=None):
    session = QuerySession(video, config=config, index_store=store)
    results = session.execute_many(queries if queries is not None else batch())
    return session, batch_signature(results)


def track_id_frames(store, video):
    """Frame ids of every ``track_ids`` entry, per pair bucket."""
    kinds = json.loads(store.to_json())["videos"][video_key(video)]["kinds"]
    return {
        name: sorted(int(frame_id) for frame_id in bucket["entries"])
        for name, bucket in kinds.get(KIND_TRACK_IDS, {}).items()
    }


def rebuilds(session):
    return session.last_obs.decisions.records(action="index-replay-rebuild")


@pytest.fixture(scope="module")
def full_index(video):
    """A store populated by a full stride-1 cold scan of the batch."""
    store = VideoIndexStore()
    session, cold = run_batch(video, indexed_config(), store)
    return store.to_json(), cold, session


def warm_store(full_index):
    store = VideoIndexStore()
    store._payload = json.loads(full_index[0])
    return store


class TestTrackerReplay:
    def test_cold_scan_records_every_frame(self, video, full_index):
        frames = track_id_frames(warm_store(full_index), video)
        assert frames == {"kalman_tracker|yolox": list(range(video.num_frames))}

    def test_warm_equals_cold_without_detector_or_tracker(self, video, full_index):
        _, cold, cold_session = full_index
        store = warm_store(full_index)
        warm, got = run_batch(video, indexed_config(enable_tracing=True), store)
        # Results carry track ids, so this also checks the replayed ids.
        assert got == cold
        assert detector_calls(warm) == 0 and tracker_calls(warm) == 0
        assert not rebuilds(warm)
        assert warm.last_context._trackers == {}, "a served frame creates no tracker"
        assert "kalman_tracker" not in warm.last_context.clock.by_account
        # Global-id bookkeeping comes out unchanged.
        cold_ctx, warm_ctx = cold_session.last_context, warm.last_context
        assert warm_ctx.track_sources() == cold_ctx.track_sources()
        assert warm_ctx._track_first_seen == cold_ctx._track_first_seen
        assert warm.last_obs.decisions.summary()["index-hit"][KIND_TRACK_IDS] == video.num_frames

    def test_bounded_cold_run_indexes_a_prefix_that_warm_replays(self, video, full_index):
        store = VideoIndexStore()
        bounded = QuerySession(video, config=indexed_config(), index_store=store)
        bounded.execute(CarQuery().bounded(3))
        prefix = track_id_frames(store, video)["kalman_tracker|yolox"]
        assert prefix == list(range(len(prefix))) and 0 < len(prefix) < video.num_frames

        warm, got = run_batch(video, indexed_config(enable_tracing=True), store)
        assert got == full_index[1]
        (rebuild,) = rebuilds(warm)
        assert rebuild.reason == "table-miss"
        assert dict(rebuild.attrs)["replayed"] == len(prefix)
        # The rebuild re-charges the prefix; the rest of the scan runs live.
        assert tracker_calls(warm) == video.num_frames
        # Live output past the prefix was written through: now complete.
        assert track_id_frames(store, video)["kalman_tracker|yolox"] == list(range(video.num_frames))

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(enable_stride_sampling=True),
            dict(
                enable_fault_tolerance=True,
                fault_config=FaultConfig(dead_models=(("color_detect", 60),)),
            ),
            dict(
                enable_fault_tolerance=True,
                fault_config=FaultConfig(
                    crash_frames=(("banff", 70),), checkpoint_interval=25
                ),
            ),
        ],
        ids=["stride", "degraded", "crash-resume"],
    )
    def test_divergent_warm_run_equals_the_same_config_cold(self, video, full_index, knobs):
        _, cold = run_batch(video, indexed_config(**knobs), VideoIndexStore())
        warm, got = run_batch(video, indexed_config(**knobs), warm_store(full_index))
        assert got == cold
        assert detector_calls(warm) == 0

    def test_crash_during_replay_resumes_the_replay(self, video, full_index):
        config = indexed_config(
            enable_fault_tolerance=True,
            fault_config=FaultConfig(crash_frames=(("banff", 70),), checkpoint_interval=25),
        )
        warm, got = run_batch(video, config, warm_store(full_index))
        assert warm.last_context.scan_stats.scan_resumes == 1
        assert got == full_index[1]
        assert tracker_calls(warm) == 0

    def test_degraded_frame_rebuilds_for_extrapolation(self, video, full_index):
        config = indexed_config(
            enable_tracing=True,
            enable_fault_tolerance=True,
            fault_config=FaultConfig(dead_models=(("color_detect", 60),)),
        )
        # The index answers every colour of the full scan; a retrained colour
        # model makes that bucket stale, so colour runs live, fails from
        # frame 60 and degrades the frame.
        warm = QuerySession(
            video, zoo=retrained_color_zoo(), config=config, index_store=warm_store(full_index)
        )
        warm.execute_many(batch())
        assert warm.last_context.scan_stats.frames_degraded > 0
        (rebuild,) = rebuilds(warm)
        assert rebuild.reason == "tracker-state-read"
        assert dict(rebuild.attrs)["replayed"] >= 60

    def test_gate_keeping_a_frame_from_the_tracker(self):
        clip = two_car_clip()
        store = VideoIndexStore()
        ungated = indexed_config(enable_scan_gating=False)
        run_batch(clip, ungated, store, [TextureCarQuery()])
        gated = indexed_config(enable_tracing=True)
        _, cold = run_batch(clip, gated, VideoIndexStore(), [TextureCarQuery()])
        warm, got = run_batch(clip, gated, store, [TextureCarQuery()])
        assert got == cold
        (rebuild,) = rebuilds(warm)
        assert rebuild.reason == "frame-gap" and dict(rebuild.attrs)["replayed"] > 0
        assert warm.last_context.scan_stats.leaf_frames_gated > 0

    def test_strided_cold_run_stops_recording_at_the_first_gap(self, video, full_index):
        store = VideoIndexStore()
        strided = QuerySession(
            video, config=indexed_config(enable_stride_sampling=True), index_store=store
        )
        strided.execute_many(batch())
        seeded = strided.last_context.seeded_frames
        assert seeded, "scenario must exercise stride interpolation"
        prefix = track_id_frames(store, video)["kalman_tracker|yolox"]
        assert prefix == list(range(len(prefix))) and len(prefix) <= min(seeded)

        warm, got = run_batch(video, indexed_config(enable_tracing=True), store)
        assert got == full_index[1]
        (rebuild,) = rebuilds(warm)
        assert dict(rebuild.attrs)["replayed"] == len(prefix)
        # The stride-1 warm run extended the table: a third run replays all.
        again, got = run_batch(video, indexed_config(), store)
        assert got == full_index[1] and tracker_calls(again) == 0

    def test_index_bytes_identical_across_feed_order(self):
        scenario = handoff_scenario(
            cameras=(
                CameraPlacement("cam_a", fps=10, start_offset_s=0.0),
                CameraPlacement("cam_b", fps=15, start_offset_s=3.0),
            ),
            num_entities=3,
            seed=0,
        )
        config = PlannerConfig(
            profile_plans=False, enable_cross_camera_reid=True, enable_video_index=True
        )
        payloads = []
        for videos in (scenario.videos, dict(reversed(scenario.videos.items()))):
            session = MultiCameraSession(
                videos, config=config, start_offsets=scenario.start_offsets
            )
            session.execute(CarQuery())
            payloads.append(session.index_store.to_json())
        assert payloads[0] == payloads[1]
        videos = json.loads(payloads[0])["videos"].values()
        assert all(KIND_TRACK_IDS in bucket["kinds"] for bucket in videos)


class TestSaveSkipsCleanStore:
    def test_unchanged_store_is_not_rewritten(self, tmp_path, video):
        path = str(tmp_path / "index.json")
        config = indexed_config(index_config=IndexConfig(path=path))
        QuerySession(video, config=config).execute(RedCarQuery())
        before = os.stat(path).st_mtime_ns
        os.utime(path, ns=(before - 10**9, before - 10**9))
        QuerySession(video, config=config).execute(RedCarQuery())
        assert os.stat(path).st_mtime_ns == before - 10**9

    def test_changed_value_is_written(self, tmp_path):
        path = str(tmp_path / "index.json")
        store = VideoIndexStore(path)
        store.record("v", "filter", "m", "V", "1", True)
        store.save()
        store = VideoIndexStore(path)
        store.record("v", "filter", "m", "V", "1", True)
        store.record_stats("v", {})
        assert not store._dirty
        store.record_stats("v", {"frames_scanned": 3})
        store.save()
        assert VideoIndexStore(path).video_stats("v") == {"frames_scanned": 3}

    def test_missing_file_is_written_even_when_clean(self, tmp_path):
        path = str(tmp_path / "index.json")
        VideoIndexStore(path).save()
        assert os.path.exists(path)


# ---------------------------------------------------------------------------
# Decode on demand
# ---------------------------------------------------------------------------


@pytest.fixture
def model_frames(monkeypatch):
    """Frame id of every live model call: each one goes through the fault layer."""
    frames = []
    real = InertFaults.invoke

    def spy(self, model_name, frame_id, fn):
        frames.append(frame_id)
        return real(self, model_name, frame_id, fn)

    monkeypatch.setattr(InertFaults, "invoke", spy)
    return frames


def rendered_frames(renders, video):
    return [frame_id for rendered_video, frame_id in renders if rendered_video is video]


class TestDecodeOnDemand:
    def test_warm_scan_renders_only_frames_a_live_model_reads(self, renders, model_frames):
        clip = camera_clip("jackson", duration_s=20, seed=1)
        queries = lambda: [
            RedCarQuery(),
            PersonQuery(),
            DurationQuery(RedCarQuery(), duration_s=2.0),
            SequentialQuery(RedCarQuery(), PersonQuery(), max_gap_s=10),
        ]
        store = VideoIndexStore()
        _, cold = run_batch(clip, indexed_config(), store, queries())
        assert sorted(rendered_frames(renders, clip)) == list(range(clip.num_frames))
        del renders[:], model_frames[:]

        warm, signature = run_batch(clip, indexed_config(), store, queries())
        assert signature == cold
        # The index answers every model call, so no frame is decoded.
        assert detector_calls(warm) == 0
        assert model_frames == [] and rendered_frames(renders, clip) == []

        # A retrained colour model makes the colour bucket stale: colour
        # runs live, and only the frames it reads are decoded.
        stale = QuerySession(
            clip, zoo=retrained_color_zoo(), config=indexed_config(), index_store=store
        )
        stale.execute_many(queries())
        assert detector_calls(stale) == 0
        rendered = rendered_frames(renders, clip)
        assert model_frames, "the stale colour bucket is evaluated live"
        assert len(rendered) == len(set(rendered))
        assert set(rendered) <= set(model_frames)
        assert len(rendered) < clip.num_frames // 4

    def test_gate_and_detector_share_one_render(self, video, renders):
        session, _ = run_batch(video, indexed_config(), VideoIndexStore(), [GatedRedCarQuery()])
        stats = session.last_context.scan_stats
        assert stats.gate_evaluations == video.num_frames
        assert 0 < detector_calls(session) < video.num_frames
        assert sorted(rendered_frames(renders, video)) == list(range(video.num_frames))
