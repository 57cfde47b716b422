"""Global configuration dataclasses shared by the simulator and backends."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class VideoSpec:
    """Static description of a (synthetic) video stream.

    Mirrors Table 3 in the paper: each camera is characterised by its frame
    rate and resolution; clips additionally have a duration.
    """

    name: str
    fps: int
    width: int
    height: int
    duration_s: float

    @property
    def num_frames(self) -> int:
        return int(round(self.fps * self.duration_s))

    @property
    def megapixels(self) -> float:
        return self.width * self.height / 1e6

    def with_duration(self, duration_s: float) -> "VideoSpec":
        """The same camera recording for a different duration."""
        return VideoSpec(self.name, self.fps, self.width, self.height, duration_s)


@dataclass(frozen=True)
class StrideConfig:
    """Adaptive frame-stride sampling knobs (scan scheduler).

    When enabled, the scan scheduler raises a stream's detection stride
    (1→2→4→… up to ``max_stride``) once its tracker state has been
    Kalman-predictable for ``stable_frames`` consecutive sampled frames,
    fills the skipped frames by track interpolation, and drops back to
    stride 1 — re-scanning the skipped gap — the moment a sampled frame
    disagrees with the prediction (track birth/death, or any track drifting
    below ``iou_tol`` IoU against its predicted box).
    """

    enabled: bool = False
    #: Upper bound on the detection stride (strides double: 1, 2, 4, ...).
    max_stride: int = 8
    #: Minimum IoU between a track's predicted and detected box for the
    #: sampled frame to count as agreeing with the prediction.
    iou_tol: float = 0.5
    #: Consecutive predictable sampled frames required before each doubling.
    stable_frames: int = 3

    def __post_init__(self) -> None:
        if self.max_stride < 1:
            raise ValueError("max_stride must be >= 1")
        if not 0.0 < self.iou_tol <= 1.0:
            raise ValueError("iou_tol must be in (0, 1]")
        if self.stable_frames < 1:
            raise ValueError("stable_frames must be >= 1")


@dataclass(frozen=True)
class ReidConfig:
    """Cross-camera re-identification knobs (:mod:`repro.backend.crosscamera`).

    With ``PlannerConfig(enable_cross_camera_reid=True)``,
    :class:`~repro.backend.session.MultiCameraSession` links the tracks of
    its feeds after each execution: every track's cached (or freshly
    computed) re-id embedding is cosine-matched against a gallery of global
    identities, camera by camera, and the resulting identity labels are
    threaded into the merged results (``global_tracks`` /
    ``global_events`` / the cross-camera temporal operator).  Off by
    default: the disabled path is byte-identical to the single-feed merge.
    """

    #: Minimum cosine similarity for a track to join an existing identity.
    threshold: float = 0.7
    #: Assignment strategy when several tracks compete for the same gallery
    #: identity: ``"hungarian"`` (optimal one-to-one) or ``"greedy"``.
    assignment: str = "hungarian"
    #: Tolerance for disagreeing camera clocks: cross-camera gap windows are
    #: widened by this much, and global-event stitching treats per-camera
    #: segments within this slack as contiguous.
    max_clock_skew_s: float = 0.5
    #: Zoo name of the embedding model used for tracks whose pipeline never
    #: computed an embedding (cache misses).
    reid_model: str = "reid_feature"
    #: Intrinsic property name whose cached per-track values are reused as
    #: embeddings before the model is ever invoked.
    embedding_property: str = "feature_vector"
    #: Track-quality gate: tracks observed over fewer frames than this are
    #: excluded from linking.  Sliver tracks — one-frame fragments born at
    #: the frame edge, or false-positive detections — carry unreliable
    #: crops in real systems and would otherwise fragment identities.
    min_track_frames: int = 3

    _ASSIGNMENTS = ("hungarian", "greedy")

    def __post_init__(self) -> None:
        if not -1.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be a cosine similarity in (-1, 1]")
        if self.assignment not in self._ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {self._ASSIGNMENTS}")
        if self.max_clock_skew_s < 0:
            raise ValueError("max_clock_skew_s must be non-negative")
        if self.min_track_frames < 1:
            raise ValueError("min_track_frames must be >= 1")


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (:mod:`repro.obs`).

    When enabled, one :class:`~repro.obs.core.Obs` bundle (span tracer and
    decision log) is threaded through the whole execution — session,
    planner, scheduler, model invocations, re-id — and every :class:`~repro.backend.results.QueryResult` carries an
    ``explain()`` payload.  Off by default: the engine then runs with the
    shared disabled bundle (:data:`repro.obs.core.DISABLED`), whose sinks
    discard everything, so each hook costs one no-op call.  Spans only
    *snapshot* the virtual clock (never charge it), so results are
    byte-identical with tracing on or off.
    """

    enabled: bool = False
    #: Oldest decision records are evicted past this bound; aggregate
    #: (action, reason) counts remain exact regardless.
    max_decision_records: int = 4096
    #: Spans beyond this bound are timed but not retained or exported.
    max_spans: int = 100_000

    def __post_init__(self) -> None:
        if self.max_decision_records < 1:
            raise ValueError("max_decision_records must be >= 1")
        if self.max_spans < 1:
            raise ValueError("max_spans must be >= 1")


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection and fault-tolerance knobs (:mod:`repro.faults`).

    With ``PlannerConfig(enable_fault_tolerance=True)``, a deterministic
    :class:`~repro.faults.injection.FaultInjector` (seeded via
    :mod:`repro.common.rng`, keyed by (seed, feed, model, frame, attempt)
    so decisions are invocation-order independent) injects the configured
    fault mix, and every model invocation runs through the resilient
    invoker: bounded retries with exponential backoff + jitter charged to
    the ``SimClock``, per-model timeout budgets, and per-model circuit
    breakers.  Off by default: every scan shares the inert
    :data:`~repro.faults.resilience.NO_FAULTS`, which just calls, so
    results are byte-identical.
    """

    #: Seed for the fault stream (independent of the video/model seeds).
    seed: int = 0
    #: Probability that one model invocation attempt fails transiently.
    transient_rate: float = 0.0
    #: Probability that one invocation attempt suffers a latency spike.
    latency_spike_rate: float = 0.0
    #: Virtual-time multiplier applied to a spiked invocation.
    latency_spike_factor: float = 10.0
    #: Per-model timeout budget in virtual ms (None = no timeout).  An
    #: attempt whose (possibly spiked) cost exceeds it raises
    #: :class:`~repro.common.errors.ModelTimeoutError`, charged at most the
    #: budget.
    timeout_ms: Optional[float] = None
    #: Probability that a frame arrives corrupted (degraded, never trusted).
    corrupt_frame_rate: float = 0.0
    #: Probability that a frame is dropped by the source (degraded).
    drop_frame_rate: float = 0.0
    #: (model name, from_frame): the model fails permanently from that frame.
    dead_models: Tuple[Tuple[str, int], ...] = ()
    #: (feed name, at_frame): the feed dies mid-scan at that frame
    #: (:class:`~repro.common.errors.FeedFailedError`; permanent — not
    #: resumed, handled by per-feed isolation).
    dead_feeds: Tuple[Tuple[str, int], ...] = ()
    #: (feed name, at_frame): one-shot scan crash at that frame (e.g. a
    #: worker OOM).  Recoverable: with checkpointing on, the scan resumes
    #: from the last checkpoint and the crash does not re-fire.
    crash_frames: Tuple[Tuple[str, int], ...] = ()
    #: Retries after the first failed attempt (total attempts = retries+1).
    max_retries: int = 2
    #: Backoff before retry k is ``base * factor**k + jitter * U[0,1)``
    #: virtual ms, charged to the ``SimClock`` under ``fault-backoff``.
    backoff_base_ms: float = 5.0
    backoff_factor: float = 2.0
    backoff_jitter_ms: float = 1.0
    #: Consecutive failures (across invocations) that open a model's circuit.
    breaker_threshold: int = 3
    #: Virtual ms an open circuit waits before admitting a half-open probe.
    breaker_cooldown_ms: float = 250.0
    #: Checkpoint the scan every N processed frames (0 = no checkpointing).
    checkpoint_interval: int = 0
    #: Bound on automatic resume-from-checkpoint attempts per scan.
    max_resumes: int = 2

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_spike_rate", "corrupt_frame_rate", "drop_frame_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.latency_spike_factor < 1.0:
            raise ValueError("latency_spike_factor must be >= 1")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ms < 0 or self.backoff_jitter_ms < 0:
            raise ValueError("backoff budgets must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_ms < 0:
            raise ValueError("breaker_cooldown_ms must be non-negative")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.max_resumes < 0:
            raise ValueError("max_resumes must be >= 0")


@dataclass(frozen=True)
class LiveConfig:
    """Live push-driven ingestion knobs (:mod:`repro.backend.live`).

    With ``PlannerConfig(enable_live=True)``, a
    :class:`~repro.backend.live.LiveSession` keeps standing
    queries registered against frames arriving from a paced source: events
    are emitted to alert sinks the moment they close, the ingest queue is
    hard-capped, and overload sheds *accuracy* before frames — queue-depth
    pressure drives the scan scheduler's stride coarser, and only past the
    hard cap are frames dropped (with exact accounting).  Off by default:
    batch execution never consults this config and is byte-identical.
    """

    #: Hard cap on frames buffered between admission and dispatch (the
    #: re-order buffer and the ready queue together).  Admitting a frame
    #: past the cap sheds the oldest undispatched frame.
    max_buffered_frames: int = 64
    #: Queue-depth fractions of the cap at which backpressure engages and
    #: releases: above ``pressure_high`` the pressure stride doubles, below
    #: ``pressure_low`` it halves back toward 1.
    pressure_low: float = 0.25
    pressure_high: float = 0.75
    #: Ceiling on the stride that queue pressure may force (shedding
    #: accuracy via interpolation instead of dropping frames).
    max_pressure_stride: int = 8
    #: Out-of-order tolerance, in frames: a late frame within this window
    #: of the newest arrival is re-sequenced; frames at or below the
    #: dispatch watermark are counted and discarded as late.
    reorder_window: int = 4
    #: Virtual ms without any arrival (queue empty, feed not exhausted)
    #: before the watchdog declares the feed stalled and reconnects.
    stall_timeout_ms: float = 5000.0
    #: Reconnect attempts per outage before the session gives up.
    max_reconnect_attempts: int = 5
    #: Reconnect backoff: attempt k waits ``base * factor**k`` virtual ms,
    #: charged to the clock under ``live-reconnect``.
    reconnect_backoff_base_ms: float = 50.0
    reconnect_backoff_factor: float = 2.0
    #: Consecutive failed reconnects that open the feed's circuit breaker.
    breaker_threshold: int = 3
    #: Virtual ms an open feed breaker waits before admitting a probe.
    breaker_cooldown_ms: float = 1000.0
    #: Bound on alerts retained by the in-memory queue sink (oldest evicted
    #: first; the eviction count keeps the accounting exact).
    max_alert_queue: int = 1024
    #: Prune per-query result state (matches older than every stream's
    #: event watermark) every N dispatched frames, keeping standing-query
    #: memory bounded forever.
    prune_interval_frames: int = 64

    def __post_init__(self) -> None:
        if self.max_buffered_frames < 1:
            raise ValueError("max_buffered_frames must be >= 1")
        if not 0.0 <= self.pressure_low <= self.pressure_high <= 1.0:
            raise ValueError("need 0 <= pressure_low <= pressure_high <= 1")
        if self.max_pressure_stride < 1:
            raise ValueError("max_pressure_stride must be >= 1")
        if self.reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")
        if self.stall_timeout_ms <= 0:
            raise ValueError("stall_timeout_ms must be positive")
        if self.max_reconnect_attempts < 0:
            raise ValueError("max_reconnect_attempts must be >= 0")
        if self.reconnect_backoff_base_ms < 0:
            raise ValueError("reconnect_backoff_base_ms must be non-negative")
        if self.reconnect_backoff_factor < 1.0:
            raise ValueError("reconnect_backoff_factor must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_ms < 0:
            raise ValueError("breaker_cooldown_ms must be non-negative")
        if self.max_alert_queue < 1:
            raise ValueError("max_alert_queue must be >= 1")
        if self.prune_interval_frames < 1:
            raise ValueError("prune_interval_frames must be >= 1")


@dataclass(frozen=True)
class IndexConfig:
    """Persistent video index knobs (:mod:`repro.index`).

    With ``PlannerConfig(enable_video_index=True)``, every execution
    consults a :class:`~repro.index.store.VideoIndexStore` before invoking
    a model on a frame and writes fresh results through as a side effect of
    scanning: detector outputs, frame-filter verdicts, tracker ids, re-id
    embeddings and the outputs of stateless property and interaction
    models are keyed by ``(video, model, model version)``, so a later
    session over the same video serves them from the index instead of
    re-running the model.  The index also records each video's observed tracker-stable
    fraction, which the planner's cost model uses in place of its
    ``stride_stable_fraction`` prior.  Off by default: every execution
    shares the inert :data:`~repro.index.store.NO_INDEX` view, whose
    lookups miss, so execution is byte-identical to an index-free run.
    """

    #: Path of the JSON index file; None keeps the index in memory only
    #: (shared across executions within the process, never written to disk).
    path: Optional[str] = None
    #: Let the planner substitute the video's *observed* tracker-stable
    #: fraction for the configured ``stride_stable_fraction`` prior.
    use_observed_stats: bool = True
    #: Minimum indexed frames before observed statistics are trusted (a
    #: short canary must not override the prior with a noisy measurement).
    stats_min_frames: int = 32

    def __post_init__(self) -> None:
        if self.stats_min_frames < 1:
            raise ValueError("stats_min_frames must be >= 1")


@dataclass(frozen=True)
class AccuracyTarget:
    """Planner accuracy target (§4.3): minimum acceptable F1 on the canary."""

    min_f1: float = 0.9

    def accepts(self, f1: float) -> bool:
        return f1 >= self.min_f1
