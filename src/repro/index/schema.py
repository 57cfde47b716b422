"""Index schema: keys, versions, and (de)serialization of stored values.

Everything the index persists must survive a JSON round trip *exactly*:
a warm run that reads a detection back must behave byte-identically to the
cold run that produced it.  Python's ``json`` round-trips floats via
``repr``, so bbox coordinates and scores come back bit-equal; embeddings
are stored as plain float lists and rebuilt as float64 arrays.  Property
and interaction model outputs are stored only when they are JSON-exact
scalars (:func:`json_exact`); anything else is never persisted.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.common.geometry import BBox
from repro.models.base import Detection

#: Bumped whenever the on-disk layout changes incompatibly; a file with a
#: different schema version is treated like a corrupt file (warn + rescan).
SCHEMA_VERSION = 1

#: The value kinds one ``(video, model, version)`` bucket may hold.
KIND_DETECTIONS = "detections"
KIND_FILTER = "filter"
KIND_EMBEDDING = "embedding"
#: Tracker output: per frame, the tracker-local ids of that frame's cached
#: detection list, in list order.  Its buckets are keyed by the
#: (tracker, detector) pair (:func:`pair_name`, :func:`pair_version`).
#: Distinct from the legacy per-video ``tracks`` table, which old files may
#: still carry and nothing reads.
KIND_TRACK_IDS = "track_ids"
#: A stateless property model's output on one detection, keyed by
#: :func:`detection_key`.
KIND_PROPERTY = "property"
#: An interaction model's predicted kinds for one (subject, object) pair,
#: keyed by :func:`interaction_key` and stored as a list.
KIND_INTERACTION = "interaction"


def video_key(video: Any) -> str:
    """The identity of a video's *content* for indexing purposes.

    Synthetic videos are fully determined by their spec and seed; the frame
    count is folded in so a re-cut of the same camera (different duration)
    never aliases the original clip's entries.
    """
    return f"{video.spec.name}#s{video.seed}#f{video.num_frames}"


def model_version(model: Any) -> str:
    """The identity of a model's *behaviour* for indexing purposes.

    Simulated models are pure functions of their class and seed, so those
    two are the version: retraining (a new seed) or swapping the
    implementation (a new class) invalidates every entry recorded under the
    old version — the reader sees a mismatch and falls back to a live
    invocation.
    """
    return f"{type(model).__name__}@{getattr(model, 'seed', 0)}"


def pair_name(tracker_name: str, detector_name: str) -> str:
    """The bucket name of one (tracker, detector) pair's ``track_ids``."""
    return f"{tracker_name}|{detector_name}"


def pair_version(tracker_version: str, detector_version: str) -> str:
    """A pair's version: tracker ids change if either model changes."""
    return f"{tracker_version}+{detector_version}"


def detection_key(detection: Detection) -> str:
    """Content key of one detection (for values attached to a detection).

    Embeddings are keyed by the *source detection* they were computed on,
    not by track id: track ids are allocated per execution batch, so the
    same physical track can carry different ids in different sessions,
    while its source detection (frame, class, box) is reproducible.
    ``repr`` keeps full float precision, so equal detections — and only
    equal detections — share a key.  Each coordinate is keyed as a plain
    ``float``: a live box may carry ``np.float64`` coordinates, whose
    ``repr`` is ``np.float64(...)`` under numpy 2, while the same box read
    back from JSON carries ``float`` ones.
    """
    b = detection.bbox
    return (
        f"{detection.frame_id}|{detection.class_name}|"
        f"{float(b.x1)!r}|{float(b.y1)!r}|{float(b.x2)!r}|{float(b.y2)!r}"
    )


def interaction_key(subject: Detection, object_: Detection) -> str:
    """Content key of one ordered (subject, object) detection pair."""
    return f"{detection_key(subject)}>{detection_key(object_)}"


#: Scalar types whose JSON round trip returns an equal value of the same type.
_JSON_EXACT_TYPES = (type(None), bool, int, float, str)


def json_exact(value: Any) -> bool:
    """True when ``json`` returns ``value`` unchanged: same type, equal value.

    Only such values may be stored as model outputs, so a warm run reads
    back exactly what the model returned.  Subclasses (``np.float64``,
    ``np.str_``) and non-finite floats (``nan != nan``) do not qualify.
    """
    if type(value) not in _JSON_EXACT_TYPES:
        return False
    return type(value) is not float or math.isfinite(value)


def detection_to_record(detection: Detection) -> Dict[str, Any]:
    """One detection as a JSON-safe record (full fidelity round trip)."""
    return {
        "class_name": detection.class_name,
        "bbox": [detection.bbox.x1, detection.bbox.y1, detection.bbox.x2, detection.bbox.y2],
        "score": detection.score,
        "frame_id": detection.frame_id,
        "gt_object_id": detection.gt_object_id,
        "track_id": detection.track_id,
    }


def detection_from_record(record: Dict[str, Any]) -> Detection:
    x1, y1, x2, y2 = record["bbox"]
    return Detection(
        class_name=record["class_name"],
        bbox=BBox(x1, y1, x2, y2),
        score=record["score"],
        frame_id=record["frame_id"],
        gt_object_id=record.get("gt_object_id"),
        track_id=record.get("track_id"),
    )


def detections_to_value(detections: Sequence[Detection]) -> List[Dict[str, Any]]:
    return [detection_to_record(det) for det in detections]


def detections_from_value(value: Sequence[Dict[str, Any]]) -> List[Detection]:
    return [detection_from_record(record) for record in value]


def embedding_to_value(embedding: Any) -> List[float]:
    return [float(x) for x in np.asarray(embedding).ravel()]


def embedding_from_value(value: Sequence[float]) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def empty_payload() -> Dict[str, Any]:
    """A fresh (or post-corruption) index payload."""
    return {"schema_version": SCHEMA_VERSION, "videos": {}}


def validate_payload(payload: Any) -> Optional[str]:
    """None when ``payload`` is a structurally sound index, else the defect."""
    if not isinstance(payload, dict):
        return "top level is not an object"
    if payload.get("schema_version") != SCHEMA_VERSION:
        return f"schema version {payload.get('schema_version')!r} != {SCHEMA_VERSION}"
    videos = payload.get("videos")
    if not isinstance(videos, dict):
        return "missing 'videos' table"
    for key, bucket in videos.items():
        if not isinstance(bucket, dict):
            return f"video bucket {key!r} is not an object"
        for table in ("kinds", "tracks", "stats"):
            if table in bucket and not isinstance(bucket[table], dict):
                return f"video bucket {key!r} table {table!r} is not an object"
    return None
