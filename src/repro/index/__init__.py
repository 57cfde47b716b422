"""The persistent video index: never pay for the same frame twice.

Scanning a video is expensive because of the models, not the queries: two
different queries over the same clip re-run the same detector on the same
frames and re-embed the same tracks.  The index persists those per-frame
model results — detector outputs, frame-filter verdicts, re-id embeddings,
tracker ids, property and interaction model outputs, plus per-video scan
statistics — keyed by
``(video, model, model version)``, so any later session over the same video
serves them from the index instead of re-invoking the model.

Enable with ``PlannerConfig(enable_video_index=True)`` (tune via
:class:`~repro.common.config.IndexConfig`).  Off by default: every
execution then shares the inert :data:`~repro.index.store.NO_INDEX` view,
whose lookups miss and whose records are dropped, so execution is
byte-identical to an index-free run.
"""

from repro.index.schema import (
    SCHEMA_VERSION,
    detection_from_record,
    detection_key,
    detection_to_record,
    model_version,
    video_key,
)
from repro.index.store import NO_INDEX, IndexView, InertIndexView, VideoIndexStore

__all__ = [
    "SCHEMA_VERSION",
    "IndexView",
    "InertIndexView",
    "NO_INDEX",
    "VideoIndexStore",
    "detection_from_record",
    "detection_key",
    "detection_to_record",
    "model_version",
    "video_key",
]
