"""VQPy backend: the object-centric optimization framework (paper §4)."""

from repro.backend.analysis import QueryAnalysis, analyze_query
from repro.backend.crosscamera import (
    CrossCameraLinks,
    CrossCameraSequence,
    GlobalEvent,
    GlobalTimeline,
    ReidMatcher,
    TrackProfile,
    pair_cross_camera_events,
    reid_identity_scores,
    stitch_global_events,
)
from repro.backend.executor import Executor, extract_events
from repro.backend.graph import FrameGraph, VObjNode
from repro.backend.live import Alert, CallbackSink, LiveSession, LiveStats, QueueSink
from repro.backend.operators import (
    DetectorOp,
    FrameFilterOp,
    FusedOp,
    JoinOp,
    Operator,
    ProjectorOp,
    RelationFilterOp,
    RelationProjectorOp,
    TrackerOp,
    VObjFilterOp,
)
from repro.backend.plan import QueryPlan
from repro.backend.planner import Planner, PlannerConfig
from repro.backend.results import Event, MatchRecord, MultiCameraResult, QueryResult
from repro.backend.runtime import ExecutionContext, TrackState, VObjState
from repro.backend.scheduler import FrameGate, ScanScheduler, ScanStats
from repro.backend.session import MultiCameraSession, QuerySession
from repro.backend.streaming import (
    DurationStream,
    OnlineEventGrouper,
    PlanStream,
    QueryStream,
    TemporalStream,
)

__all__ = [
    "QueryAnalysis",
    "analyze_query",
    "CrossCameraLinks",
    "CrossCameraSequence",
    "GlobalEvent",
    "GlobalTimeline",
    "ReidMatcher",
    "TrackProfile",
    "pair_cross_camera_events",
    "reid_identity_scores",
    "stitch_global_events",
    "Executor",
    "extract_events",
    "FrameGraph",
    "VObjNode",
    "Alert",
    "CallbackSink",
    "LiveSession",
    "LiveStats",
    "QueueSink",
    "DetectorOp",
    "FrameFilterOp",
    "FusedOp",
    "JoinOp",
    "Operator",
    "ProjectorOp",
    "RelationFilterOp",
    "RelationProjectorOp",
    "TrackerOp",
    "VObjFilterOp",
    "QueryPlan",
    "Planner",
    "PlannerConfig",
    "Event",
    "MatchRecord",
    "MultiCameraResult",
    "QueryResult",
    "ExecutionContext",
    "TrackState",
    "VObjState",
    "FrameGate",
    "ScanScheduler",
    "ScanStats",
    "MultiCameraSession",
    "QuerySession",
    "DurationStream",
    "OnlineEventGrouper",
    "PlanStream",
    "QueryStream",
    "TemporalStream",
]
