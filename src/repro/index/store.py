"""The persistent video index store and its per-execution views.

One :class:`VideoIndexStore` holds every indexed video, keyed by
:func:`~repro.index.schema.video_key`; under each video, per-frame model
results live in ``(model, version)`` buckets, so a retrained model (new
version) invalidates exactly its own entries and nothing else.  One store
is shared by every feed of a multi-camera session, whose feeds run one
after another on one thread; the store holds no lock, so it serves one
thread at a time.  Its canonical JSON serialization is deterministic
regardless of write order (``sort_keys=True``), so the feed order does not
change the saved bytes.  Separate processes may still save one file: each
writes its own pid-tagged temporary file and renames it into place.

Sessions never touch the store directly during a scan; they go through an
:class:`IndexView` bound to one ``(video, zoo, obs)`` triple, which owns
the model-version resolution, the hit/miss/stale/written counters that
``explain()`` reports, and the observability hooks.  Each value kind
(:mod:`repro.index.schema`) has one ``lookup_*``/``record_*`` pair on the
view.  A scan without the index goes through :data:`NO_INDEX`, whose
lookups always miss.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.index import schema
from repro.models.base import Detection
from repro.obs.core import DISABLED, Obs

#: Lookup outcomes (the store's vocabulary; the view translates to obs).
_HIT = "hit"
_MISS = "miss"
_STALE = "stale"
#: Marks an entry the store does not hold (no stored value equals it).
_ABSENT = object()


class VideoIndexStore:
    """JSON-backed persistent store of per-frame model results.

    ``path=None`` keeps the index in memory only: it persists across
    executions within one process (every session handed the store shares
    it) but is not written to disk.  A readable-but-corrupt file — truncated
    write, foreign JSON, schema drift — is *not* an error: the store warns
    and starts empty, so the affected videos are simply rescanned in full
    and the index rebuilt.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._payload: Dict[str, Any] = schema.empty_payload()
        #: True while the payload holds something the file does not: a
        #: stored value changed since the last load or save.
        self._dirty = False
        if path is not None and os.path.exists(path):
            self._load(path)

    # ------------------------------------------------------------ persistence --
    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            defect = schema.validate_payload(payload)
        except (OSError, ValueError) as exc:
            defect = str(exc)
            payload = None
        if defect is not None:
            warnings.warn(
                f"video index at {path!r} is unreadable ({defect}); "
                "starting from an empty index — affected videos will be "
                "rescanned in full and the index rebuilt",
                stacklevel=3,
            )
            # The empty payload must replace the corrupt file on save.
            self._dirty = True
            return
        self._payload = payload

    def save(self) -> None:
        """Atomically write the canonical serialization (no-op in memory).

        A store whose file exists and which recorded no new or changed value
        since it was loaded or last saved skips the write: a warm re-query
        leaves the file as it is.  Otherwise the snapshot goes to a temp
        file next to the target (``os.replace`` stays a same-filesystem
        atomic rename), so the file always holds a whole snapshot.  The
        temp file's name carries the process and thread ids, so two
        processes (or two stores on other threads) saving one index file
        never share it.
        """
        if self.path is None:
            return
        if not self._dirty and os.path.exists(self.path):
            return
        data = self.to_json()
        tmp = f"{self.path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp, self.path)
            self._dirty = False
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, so equal contents serialize equally."""
        return json.dumps(self._payload, sort_keys=True)

    # ------------------------------------------------------------------ views --
    def view(self, video: Any, zoo: Any, obs: Obs = DISABLED) -> "IndexView":
        """A per-execution view bound to one video's entries."""
        return IndexView(self, video, zoo, obs=obs)

    # ------------------------------------------------------------- raw access --
    def _video(self, video_key: str) -> Dict[str, Any]:
        """The video's bucket, created on demand."""
        return self._payload["videos"].setdefault(
            video_key, {"kinds": {}, "stats": {}}
        )

    def lookup(
        self, video_key: str, kind: str, model_name: str, version: str, entry_key: str
    ) -> Tuple[str, Any]:
        """``(status, value)`` for one entry; status is hit / miss / stale.

        Stale means the bucket exists but was recorded under a different
        model version: the caller must invoke the model live (its fresh
        result then supersedes the whole stale bucket on the next write).
        """
        bucket = (
            self._payload["videos"]
            .get(video_key, {})
            .get("kinds", {})
            .get(kind, {})
            .get(model_name)
        )
        if bucket is None:
            return _MISS, None
        if bucket.get("version") != version:
            return _STALE, None
        entries = bucket.get("entries", {})
        if entry_key not in entries:
            return _MISS, None
        return _HIT, entries[entry_key]

    def record(
        self, video_key: str, kind: str, model_name: str, version: str, entry_key: str, value: Any
    ) -> None:
        """Store one entry, replacing any stale (other-version) bucket."""
        kinds = self._video(video_key)["kinds"].setdefault(kind, {})
        bucket = kinds.get(model_name)
        if bucket is None or bucket.get("version") != version:
            bucket = {"version": version, "entries": {}}
            kinds[model_name] = bucket
        entries = bucket["entries"]
        if entries.get(entry_key, _ABSENT) != value:
            entries[entry_key] = value
            self._dirty = True

    def record_stats(self, video_key: str, stats: Dict[str, Any]) -> None:
        """Merge observed per-video scan statistics."""
        stored = self._video(video_key)["stats"]
        for name, value in stats.items():
            if stored.get(name, _ABSENT) != value:
                stored[name] = value
                self._dirty = True

    def video_stats(self, video_key: str) -> Dict[str, Any]:
        return dict(self._payload["videos"].get(video_key, {}).get("stats", {}))

    def observed_stable_fraction(
        self, video_key: str, min_frames: int = 1
    ) -> Optional[float]:
        """The video's observed tracker-predictable fraction, if trustworthy.

        None until a stride-sampling scan observed at least ``min_frames``
        frames of the video — a short canary must not override the
        configured prior with a noisy measurement.
        """
        stats = self.video_stats(video_key)
        fraction = stats.get("stable_fraction")
        if fraction is None:
            return None
        if int(stats.get("frames_scanned", 0)) < min_frames:
            return None
        return float(fraction)


class IndexView:
    """One execution's window onto the store, bound to a (video, zoo) pair.

    The view resolves model versions against the zoo it was created with,
    translates store lookups into the engine's vocabulary (decisions and
    the explain counters), and owns the post-scan finalization that
    records per-video statistics.
    """

    def __init__(self, store: VideoIndexStore, video: Any, zoo: Any, obs: Obs = DISABLED) -> None:
        self.store = store
        self.video_key = schema.video_key(video)
        self.zoo = zoo
        self.obs = obs
        #: Counters surfaced by ``explain()``'s Index section.
        self.counters: Dict[str, int] = {"hits": 0, "misses": 0, "stale": 0, "written": 0}
        self._versions: Dict[str, str] = {}
        #: (kind, model) pairs whose staleness was already logged — one
        #: decision record per stale bucket, not one per frame.
        self._stale_noted: set = set()

    # -------------------------------------------------------------- internals --
    def _version(self, model_name: str) -> str:
        version = self._versions.get(model_name)
        if version is None:
            version = schema.model_version(self.zoo.get(model_name))
            self._versions[model_name] = version
        return version

    def _count_hit(self, kind: str, model_name: str, frame_id: Optional[int]) -> None:
        self.counters["hits"] += 1
        self.obs.decisions.record("index-hit", kind, model=model_name, frame_id=frame_id)

    def _lookup(self, kind: str, model_name: str, entry_key: str, frame_id: Optional[int]) -> Tuple[str, Any]:
        status, value = self.store.lookup(
            self.video_key, kind, model_name, self._version(model_name), entry_key
        )
        obs = self.obs
        if status == _HIT:
            self._count_hit(kind, model_name, frame_id)
        elif status == _STALE:
            self.counters["stale"] += 1
            if (kind, model_name) not in self._stale_noted:
                self._stale_noted.add((kind, model_name))
                obs.decisions.record(
                    "index-stale",
                    "model-version-mismatch",
                    model=model_name,
                    frame_id=frame_id,
                    expected=self._version(model_name),
                )
        else:
            self.counters["misses"] += 1
            obs.decisions.record("index-miss", kind, model=model_name, frame_id=frame_id)
        return status, value

    def _record(
        self,
        kind: str,
        model_name: str,
        entry_key: str,
        value: Any,
        frame_id: Optional[int],
        version: Optional[str] = None,
    ) -> None:
        if version is None:
            version = self._version(model_name)
        self.store.record(self.video_key, kind, model_name, version, entry_key, value)
        self.counters["written"] += 1
        self.obs.decisions.record("index-written", kind, model=model_name, frame_id=frame_id)

    # ------------------------------------------------------------- detections --
    def lookup_detections(self, model_name: str, frame_id: int) -> Optional[List[Detection]]:
        status, value = self._lookup(schema.KIND_DETECTIONS, model_name, str(frame_id), frame_id)
        if status != _HIT:
            return None
        return schema.detections_from_value(value)

    def record_detections(self, model_name: str, frame_id: int, detections: List[Detection]) -> None:
        self._record(
            schema.KIND_DETECTIONS,
            model_name,
            str(frame_id),
            schema.detections_to_value(detections),
            frame_id,
        )

    def replay_detections(self, model_name: str, frame_id: int) -> Optional[List[Detection]]:
        """The frame's stored detections, read without counting a lookup.

        Rebuilding a tracker from a replayed prefix re-reads detections the
        scan was already served (and counted) once.
        """
        status, value = self.store.lookup(
            self.video_key, schema.KIND_DETECTIONS, model_name, self._version(model_name), str(frame_id)
        )
        return schema.detections_from_value(value) if status == _HIT else None

    # --------------------------------------------------------- tracker output --
    def _pair(self, tracker_name: str, detector_name: str) -> Tuple[str, str]:
        return (
            schema.pair_name(tracker_name, detector_name),
            schema.pair_version(self._version(tracker_name), self._version(detector_name)),
        )

    def lookup_track_ids(
        self, tracker_name: str, detector_name: str, frame_id: int, count: int
    ) -> Optional[List[Optional[int]]]:
        """The pair's tracker-local ids for the frame's ``count`` detections.

        Only a usable hit is counted.  No entry, a bucket of another pair
        version, or ids that do not match ``count`` send the scan to the
        live tracker it would have run anyway, so none of them is an index
        miss or stale; the context records an ``index-replay-rebuild``
        decision when a replayed prefix must be fed to that tracker.
        """
        name, version = self._pair(tracker_name, detector_name)
        status, value = self.store.lookup(
            self.video_key, schema.KIND_TRACK_IDS, name, version, str(frame_id)
        )
        if status != _HIT or len(value) != count:
            return None
        self._count_hit(schema.KIND_TRACK_IDS, name, frame_id)
        return value

    def record_track_ids(
        self, tracker_name: str, detector_name: str, frame_id: int, tracked: List[Detection]
    ) -> None:
        name, version = self._pair(tracker_name, detector_name)
        self._record(
            schema.KIND_TRACK_IDS,
            name,
            str(frame_id),
            [det.track_id for det in tracked],
            frame_id,
            version=version,
        )

    # -------------------------------------------------------- filter verdicts --
    def lookup_filter_verdict(self, model_name: str, frame_id: int) -> Optional[bool]:
        status, value = self._lookup(schema.KIND_FILTER, model_name, str(frame_id), frame_id)
        if status != _HIT:
            return None
        return bool(value)

    def record_filter_verdict(self, model_name: str, frame_id: int, verdict: bool) -> None:
        self._record(schema.KIND_FILTER, model_name, str(frame_id), bool(verdict), frame_id)

    # -------------------------------------------------------------- embeddings --
    def lookup_embedding(self, model_name: str, detection: Detection) -> Optional[np.ndarray]:
        status, value = self._lookup(
            schema.KIND_EMBEDDING, model_name, schema.detection_key(detection), detection.frame_id
        )
        if status != _HIT:
            return None
        return schema.embedding_from_value(value)

    def record_embedding(self, model_name: str, detection: Detection, embedding: Any) -> None:
        self._record(
            schema.KIND_EMBEDDING,
            model_name,
            schema.detection_key(detection),
            schema.embedding_to_value(embedding),
            detection.frame_id,
        )

    # ------------------------------------------------- property model outputs --
    def lookup_property(self, model_name: str, detection: Detection) -> Tuple[bool, Any]:
        """``(hit, value)``: a stored value may itself be None."""
        status, value = self._lookup(
            schema.KIND_PROPERTY, model_name, schema.detection_key(detection), detection.frame_id
        )
        return status == _HIT, value

    def record_property(self, model_name: str, detection: Detection, value: Any) -> None:
        """Store the value if it is JSON-exact (:func:`schema.json_exact`).

        Any other value is not persisted, so every run computes it live.
        """
        if schema.json_exact(value):
            self._record(
                schema.KIND_PROPERTY,
                model_name,
                schema.detection_key(detection),
                value,
                detection.frame_id,
            )

    # ---------------------------------------------- interaction model outputs --
    def lookup_interaction(
        self, model_name: str, subject: Detection, object_: Detection
    ) -> Optional[Tuple[Any, ...]]:
        status, value = self._lookup(
            schema.KIND_INTERACTION,
            model_name,
            schema.interaction_key(subject, object_),
            subject.frame_id,
        )
        return tuple(value) if status == _HIT else None

    def record_interaction(
        self, model_name: str, subject: Detection, object_: Detection, kinds: Tuple[Any, ...]
    ) -> None:
        """Store the pair's predicted kinds as a list if each is JSON-exact."""
        if all(schema.json_exact(kind) for kind in kinds):
            self._record(
                schema.KIND_INTERACTION,
                model_name,
                schema.interaction_key(subject, object_),
                list(kinds),
                subject.frame_id,
            )

    # ------------------------------------------------------------ finalization --
    def finalize(self, ctx: Any, observe_stability: bool = False) -> None:
        """Record the finished scan's per-video statistics.

        ``observe_stability`` must be True only when stride sampling drove
        the scan: without sampling no frame is ever tracker-predicted, and
        recording the resulting 0.0 would poison the planner's stable-
        fraction prior for every later query over this video.
        """
        stats = ctx.scan_stats
        payload: Dict[str, Any] = {"frames_scanned": stats.frames_scanned}
        if observe_stability and stats.frames_scanned > 0:
            payload["stable_fraction"] = stats.frames_interpolated / stats.frames_scanned
        self.store.record_stats(self.video_key, payload)
        self.counters["written"] += 1
        self.obs.decisions.record("index-written", "video-stats", video=self.video_key)

    def summary(self) -> Dict[str, Any]:
        """The counters ``explain()`` renders in its Index section."""
        return {"video": self.video_key, **self.counters}


class InertIndexView:
    """The index view of a scan without the index: nothing is persisted.

    Every lookup misses, every record is dropped, ``counters`` are all zero
    and ``summary()`` is None.  Since ``lookup_track_ids`` never serves a
    frame, no tracker is ever rebuilt from it, so it has no
    ``replay_detections``.  It holds no state, so every execution and
    thread shares :data:`NO_INDEX`.
    """

    __slots__ = ()

    counters: Mapping[str, int] = MappingProxyType(
        {"hits": 0, "misses": 0, "stale": 0, "written": 0}
    )

    def lookup_detections(self, model_name: str, frame_id: int) -> None:
        return None

    def record_detections(self, model_name: str, frame_id: int, detections: List[Detection]) -> None:
        pass

    def lookup_track_ids(
        self, tracker_name: str, detector_name: str, frame_id: int, count: int
    ) -> None:
        return None

    def record_track_ids(
        self, tracker_name: str, detector_name: str, frame_id: int, tracked: List[Detection]
    ) -> None:
        pass

    def lookup_filter_verdict(self, model_name: str, frame_id: int) -> None:
        return None

    def record_filter_verdict(self, model_name: str, frame_id: int, verdict: bool) -> None:
        pass

    def lookup_embedding(self, model_name: str, detection: Detection) -> None:
        return None

    def record_embedding(self, model_name: str, detection: Detection, embedding: Any) -> None:
        pass

    def lookup_property(self, model_name: str, detection: Detection) -> Tuple[bool, Any]:
        return False, None

    def record_property(self, model_name: str, detection: Detection, value: Any) -> None:
        pass

    def lookup_interaction(self, model_name: str, subject: Detection, object_: Detection) -> None:
        return None

    def record_interaction(
        self, model_name: str, subject: Detection, object_: Detection, kinds: Tuple[Any, ...]
    ) -> None:
        pass

    def finalize(self, ctx: Any, observe_stability: bool = False) -> None:
        pass

    def summary(self) -> None:
        return None


#: The shared index view of every execution that runs without the index.
NO_INDEX = InertIndexView()
