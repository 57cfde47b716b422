"""The adaptive scan scheduler: decide, per frame, what work the scan needs.

The PR-1 streaming executor made every query in a batch share one video
scan, but the scan itself was exhaustive: every stream touched every frame,
and the scan always ran to the end of the video.  This module adds the
scheduling layer on top of the shared scan (paper §4.1/§4.4 — cheap frame
filters ahead of detectors; §4.2/§5.3 — cross-query reuse):

* :class:`FrameGate` — the batch-level frame-filter gate.  Each stream's
  registered cheap frame filters (motion / texture / binary classifiers)
  are hoisted out of its operator pipeline; the gate evaluates each
  distinct filter model **once per frame for the whole batch** and hands
  every leaf its own skip decision.  Skip masks are per-stream, not global:
  a stream without filters still sees every frame, preserving per-query
  semantics.
* :class:`StrideController` — per-stream adaptive detection stride.  When a
  stream's tracker state has been Kalman-predictable for a configurable
  number of consecutive frames (every active track matched, no births or
  deaths, predicted-vs-detected IoU above tolerance), the controller doubles
  the stream's detection stride up to ``max_stride``.  Streams are grouped
  into :class:`StrideCohort`\\ s — streams whose tracked (tracker, detector)
  pairs transitively overlap defer and sample together, because a shared
  tracker can only advance once per frame; streams sharing nothing schedule
  independently, so one unstable or untracked stream no longer pins every
  stream at stride 1.  Each cohort *defers* the frames its members agree to
  skip, and on the cohort's next sampled
  frame either (a) **fills** the gap — predictions validated — by seeding the
  execution context with track-interpolated detections and running the
  ordinary pipelines over them (no detector or tracker invocation, frames
  labelled in ``Event.skipped_frames``), or (b) **re-scans** the gap — a
  track was born, died, or drifted — running the full pipeline on every
  deferred frame in order, so tracker state evolves exactly as a stride-1
  scan and event boundaries stay frame-accurate.  Because a re-scan performs
  the same work a stride-1 scan would have, stride sampling cannot exceed
  the stride-1 scheduler's detector invocations — except by the single
  endpoint probe already spent when an early exit lands *inside* a deferred
  gap (the scan stops mid-re-scan and never reaches the probed frame), a
  once-per-scan edge bounded at one invocation.
* :class:`ScanScheduler` — drives the per-frame loop: runs or skips each
  leaf pipeline (each distinct pipeline runs once per frame: a leaf whose
  plan is structurally identical to one that already ran on the frame
  takes that run's match records), retires streams whose ``done()``
  protocol reports their answer is determined (existence / top-k bounds),
  stops the scan entirely when every stream is done, and releases
  per-frame caches only once a frame has aged out of the widest lookback
  window any active stream still needs (so gating never strands
  duration/temporal lookback state).

Every frame the detector did not observe takes the same path as an
observed one, :meth:`ScanScheduler._run_frame`, with an :class:`Unobserved`
naming the reason: a stride gap filled from validated predictions, a
corrupted or dropped frame, or a leaf whose model is down.  Caches are
seeded with track-interpolated detections, the ordinary pipelines run over
them, and the frame is labelled in ``Event.skipped_frames``; the reason
decides only how seeds are built and what is counted.  Live shed and feed
outage frames are the exception: they are labelled without running any
pipeline (:meth:`ScanScheduler.note_missing_frame`).

The scheduler is pure orchestration: all per-frame computation still lives
in the operator pipelines and the execution context's shared caches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.backend.operators import OPERATOR_OVERHEAD_MS
from repro.backend.runtime import ExecutionContext
from repro.backend.streaming import PlanStream, QueryStream, _stream_query_name
from repro.common.config import StrideConfig
from repro.common.errors import TransientModelError
from repro.models.base import Detection
from repro.videosim.video import Frame

#: A (tracker model, detector model) pair, the unit of stride validation.
TrackedPair = Tuple[str, str]


@dataclass(kw_only=True)
class ScanStats:
    """Counters describing what the scheduler skipped, gated, and retired.

    Plain attributes, one instance per scan: each feed's scheduler owns its
    own, and a checkpoint restore rolls it back with the rest of the scan.
    """

    #: Frames the scan actually decoded and stepped through.
    frames_scanned: int = 0
    #: (leaf, frame) pipeline executions on detector-observed frames.
    leaf_frames_processed: int = 0
    #: (leaf, frame) pairs skipped because the leaf's gate rejected the frame.
    leaf_frames_gated: int = 0
    #: Frame-filter model invocations performed by the gate.
    gate_evaluations: int = 0
    #: Gate decisions served from the per-frame memo instead of re-running
    #: the filter model (the cross-stream sharing the per-plan pipelines lost).
    gate_cache_hits: int = 0
    #: Streams retired before the end of the scan (answer fully determined).
    streams_retired: int = 0
    #: Frame id at which the whole scan stopped early (None = ran to the end).
    early_exit_frame: Optional[int] = None
    #: Frames provisionally skipped by the stride sampler (deferred).
    frames_deferred: int = 0
    #: (cohort, frame) deferrals on frames some *other* cohort still
    #: processed (per-cohort stride scheduling; ``frames_deferred`` counts
    #: only frames every cohort skipped).
    partial_deferrals: int = 0
    #: Deferred frames whose results were filled by track interpolation.
    frames_interpolated: int = 0
    #: Deferred frames re-scanned in full after a prediction disagreement.
    frames_rescanned: int = 0
    #: (leaf, frame) pipeline executions over interpolation-seeded caches.
    leaf_frames_interpolated: int = 0
    #: Times some stream's stride doubled / was reset to 1.
    stride_raises: int = 0
    stride_resets: int = 0
    #: Highest stride any stream reached during the scan.
    peak_stride: int = 1
    #: Frames where at least one leaf could not run its full pipeline due to
    #: an injected fault (corrupted/dropped frame, or a model down past
    #: retries / behind an open circuit) and was filled or skipped instead.
    frames_degraded: int = 0
    #: Model invocation attempts retried after a transient failure/timeout.
    model_retries: int = 0
    #: Invocations that failed for good (retries exhausted or circuit open).
    model_failures: int = 0
    #: Times some model's circuit breaker transitioned closed -> open.
    circuit_opens: int = 0
    #: Faults the injector actually fired during the scan (all kinds).
    faults_injected: int = 0
    #: Scan checkpoints captured / resumes performed from one.
    checkpoints_taken: int = 0
    scan_resumes: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScanStats":
        """Rebuild stats from :meth:`as_dict` output (round-trip safe)."""
        return cls(**dict(data))


class FrameGate:
    """Batch-level, per-frame-memoised evaluation of cheap frame filters.

    The per-plan pipelines of PR 1 evaluated a plan's frame filters once per
    (plan, frame) — two queries sharing the ``no_red_on_road`` classifier
    paid for it twice on every frame.  The gate keys decisions by
    (frame, filter model) so each distinct model runs once per frame; a
    leaf's filters are still checked in plan order with short-circuiting,
    matching the in-pipeline semantics for any single plan.
    """

    def __init__(self, ctx: ExecutionContext, stats: ScanStats) -> None:
        self.ctx = ctx
        self.stats = stats
        self.obs = ctx.obs
        #: frame_id -> {filter model name -> keep decision}.
        self._decisions: Dict[int, Dict[str, bool]] = {}

    def admits(self, leaf: PlanStream, frame: Frame) -> bool:
        """True when every filter of the leaf's plan keeps the frame.

        A filter whose model is down past retries propagates
        :class:`~repro.common.errors.TransientModelError`; the scheduler
        fails *closed* (treats the frame as rejected and marks it
        degraded), so a faulty filter can never admit frames the fault-free
        scan would have gated out.
        """
        filters = leaf.gate_filters
        if not filters:
            return True
        per_frame = self._decisions.setdefault(frame.frame_id, {})
        for op in filters:
            decision = per_frame.get(op.model_name)
            if decision is None:
                # Charge the same per-operator overhead the in-pipeline
                # FrameFilterOp would have, so single-plan cost accounting
                # (and canary profiling) is unchanged by the hoist.
                self.ctx.clock.charge("operator_overhead", OPERATOR_OVERHEAD_MS)
                with self.obs.tracer.span(
                    "frame-gate-eval",
                    clock=self.ctx.clock,
                    model=op.model_name,
                    frame=frame.frame_id,
                ):
                    decision, indexed = self.ctx.frame_filter(op.model_name, frame)
                # A persisted verdict memoises like a live evaluation, so
                # later leaves sharing the filter still hit the memo.
                per_frame[op.model_name] = decision
                if indexed:
                    self.stats.gate_cache_hits += 1
                else:
                    self.stats.gate_evaluations += 1
            else:
                self.stats.gate_cache_hits += 1
            if not decision:
                return False
        return True

    def rejecting_model(self, leaf: PlanStream, frame_id: int) -> Optional[str]:
        """The filter model that rejected this frame for the leaf, if any.

        Pure memo lookup (observability only): ``admits`` short-circuits on
        the first rejecting filter in plan order, so the first memoised
        False among the leaf's filters is the one that fired.
        """
        per_frame = self._decisions.get(frame_id, {})
        for op in leaf.gate_filters:
            if per_frame.get(op.model_name) is False:
                return op.model_name
        return None

    def release_frame(self, frame_id: int) -> None:
        """Drop the frame's memoised decisions (O(1))."""
        self._decisions.pop(frame_id, None)


class StrideController:
    """Per-stream adaptive detection stride (1, 2, 4, … ≤ ``max_stride``).

    A stream is *eligible* for stride sampling only when every leaf plan is
    fully tracked (each non-scene detector branch runs a tracker): skipped
    frames are then reconstructible by track interpolation.  Strides are
    anchored at absolute frame ids (frame sampled iff ``frame_id % stride ==
    0``), so the sample grids of streams at different power-of-two strides
    nest and the scheduler can skip exactly the frames *every* stream skips.
    """

    def __init__(self, stream: QueryStream, cfg: StrideConfig) -> None:
        self.stream = stream
        self.cfg = cfg
        self.stride = 1
        #: Consecutive predictable sampled frames since the last raise/reset.
        self.streak = 0
        pairs: List[TrackedPair] = []
        eligible = True
        for leaf in stream.plan_streams():
            leaf_pairs = leaf.plan.tracked_detector_pairs()
            if leaf_pairs is None:
                eligible = False
                break
            for pair in leaf_pairs:
                if pair not in pairs:
                    pairs.append(pair)
        self.eligible = eligible
        self.pairs: List[TrackedPair] = pairs if eligible else []

    def observe(self, predictable: bool, stats: ScanStats) -> None:
        """Fold one sampled frame's validation verdict into the stride."""
        if not self.eligible:
            return
        if predictable:
            self.streak += 1
            if self.streak >= self.cfg.stable_frames and self.stride < self.cfg.max_stride:
                # Clamp at the cap so a non-power-of-two max_stride (e.g. 6)
                # is honoured instead of overshot by the doubling.
                self.stride = min(self.stride * 2, self.cfg.max_stride)
                self.streak = 0
                stats.stride_raises += 1
                stats.peak_stride = max(stats.peak_stride, self.stride)
        else:
            if self.stride > 1:
                stats.stride_resets += 1
            self.stride = 1
            self.streak = 0


class StrideCohort:
    """Streams that defer and sample frames together.

    Two streams whose tracked (tracker, detector) pairs transitively overlap
    must share a sample grid — a shared tracker can only advance once per
    frame, and stride validation anchors on the pair's last processed frame
    — so they are grouped into one cohort.  Streams sharing no pair land in
    separate cohorts and schedule independently: one unstable (or untracked)
    stream pins only its own cohort at stride 1, never the whole batch.
    """

    def __init__(self, streams: Sequence[QueryStream]) -> None:
        self.streams: List[QueryStream] = list(streams)
        self.leaves: List[PlanStream] = [
            leaf for stream in self.streams for leaf in stream.plan_streams()
        ]
        #: Frames this cohort provisionally skipped, oldest first.  Resolved
        #: (interpolated or re-scanned) at the cohort's next sampled frame.
        self.pending: List[Frame] = []
        #: Frame id of the last frame this cohort's pipelines actually ran
        #: on — the anchor its stride predictions extrapolate from.
        self.last_processed: Optional[int] = None


@dataclass(frozen=True)
class Unobserved:
    """Why a frame's detections do not come from the detector, and how to
    fill them.

    ``reason`` names the cause: ``stride-gap``, ``frame-corrupted``,
    ``frame-dropped`` or ``model-unavailable``.  A stride gap carries the
    sampled ``endpoint`` frame and each tracked pair's ``{track_id: matched
    detection}`` there, so its seeds interpolate toward the endpoint; every
    other reason is a fault, whose seeds extrapolate from track history.
    """

    reason: str
    endpoint: Optional[int] = None
    matches: Mapping[TrackedPair, Mapping[int, Detection]] = field(default_factory=dict)


class ScanScheduler:
    """Advances a batch of query streams through a shared scan, adaptively.

    Per frame the scheduler (1) defers the frame for every stride cohort
    whose stride says to skip it — entirely when *all* cohorts agree,
    (2) consults the :class:`FrameGate` so
    leaves whose filters reject the frame skip their detector/tracker/
    property pipeline, (3) on sampled frames validates tracker predictions
    and resolves any deferred gap (interpolated fill or full re-scan),
    (4) advances the composition layers, (5) retires streams that report
    ``done()``, and (6) releases per-frame caches that have aged out of
    every active stream's lookback window.  ``step`` returns False when no
    active stream remains, which terminates the scan.
    """

    def __init__(
        self,
        streams: Sequence[QueryStream],
        ctx: ExecutionContext,
        early_exit: bool = True,
        stride: Optional[StrideConfig] = None,
    ) -> None:
        self.streams = list(streams)
        self.ctx = ctx
        self.early_exit = early_exit
        self.obs = ctx.obs
        self.stats = ScanStats()
        self.gate = FrameGate(ctx, self.stats)
        self.stride_cfg: Optional[StrideConfig] = (
            stride if stride is not None and stride.max_stride > 1 else None
        )
        self._active: List[QueryStream] = list(self.streams)
        self._active_leaves: List[PlanStream] = [
            leaf for stream in self._active for leaf in stream.plan_streams()
        ]
        #: Leaf -> share group, for leaves with a structural twin in the
        #: batch (see :meth:`_run_leaf`); leaves without one are absent.
        self._share_groups: Dict[PlanStream, int] = self._build_share_groups()
        self._controllers: Dict[QueryStream, StrideController] = {}
        self._cohorts: List[StrideCohort] = []
        if self.stride_cfg is not None:
            self._controllers = {
                s: StrideController(s, self.stride_cfg) for s in self.streams
            }
            self._cohorts = self._build_cohorts()
        #: Stride floor forced on interpolation-capable cohorts by live-mode
        #: backpressure (1 = no pressure; see :meth:`set_pressure_stride`).
        self.pressure_stride = 1
        #: Widest lookback any stream needs: frames younger than this may
        #: still feed duration/temporal grouping and must not be evicted.
        self.lookback = max((s.lookback_frames() for s in self.streams), default=0)
        self._release_cursor = 0
        self._last_frame_id: Optional[int] = None

    def step(self, frame: Frame) -> bool:
        """Process one frame; returns False when the scan should stop."""
        # Scan-level faults surface before the frame counts as scanned: a
        # dead feed or a one-shot crash raises here.
        frame_fault = self.ctx.faults.scan_frame(frame.frame_id)
        self._last_frame_id = frame.frame_id
        self.stats.frames_scanned += 1

        if frame_fault is not None:
            reason = f"frame-{frame_fault}"
            # The frame's detection payload is never trusted, so it cannot
            # validate a deferred gap: replay each cohort's gap in full
            # first, so groupers and trackers see frames in order.
            for cohort in list(self._cohorts):
                if cohort.pending and not self._resolve_gap(cohort, reason):
                    return False
            self._run_frame(frame, unobserved=Unobserved(reason))
            return self._finish_frame(frame)

        sampling: Optional[List[StrideCohort]] = None
        verdicts: Optional[Dict[QueryStream, bool]] = None
        if self.stride_cfg is not None:
            sampling = []
            deferring: List[Tuple[StrideCohort, int]] = []
            for cohort in self._cohorts:
                stride = self._cohort_stride(cohort)
                if stride > 1 and frame.frame_id % stride != 0:
                    deferring.append((cohort, stride))
                else:
                    sampling.append(cohort)
            if not sampling:
                # Every cohort agreed to skip: defer the frame outright.  It
                # is resolved (interpolated or re-scanned) at each cohort's
                # next sampled frame.
                for cohort, _ in deferring:
                    cohort.pending.append(frame)
                self.stats.frames_deferred += 1
                self.obs.decisions.record(
                    "frame-deferred",
                    "stride-skip",
                    frame_id=frame.frame_id,
                    stride=min(s for _, s in deferring),
                )
                self._release_through(self._release_horizon(frame.frame_id - self.lookback))
                return True
            for cohort, stride in deferring:
                # Some other cohort still samples this frame: a *partial*
                # deferral.  The cohort stashes the frame for its own later
                # gap resolution while the sampling cohorts process it now.
                cohort.pending.append(frame)
                self.stats.partial_deferrals += 1
                self.obs.decisions.record(
                    "frame-deferred",
                    "stride-skip",
                    frame_id=frame.frame_id,
                    stride=stride,
                    subject=_stream_query_name(cohort.streams[0]),
                )
            verdicts = {}
            for cohort in sampling:
                cohort_verdicts = self._validate_and_resolve(cohort, frame)
                if cohort_verdicts is None:
                    # Every stream's answer was determined while resolving the
                    # deferred gap — stop before this frame, exactly where a
                    # stride-1 early-exit scan would have stopped.
                    return False
                verdicts.update(cohort_verdicts)

        self._run_frame(frame, cohorts=sampling)

        if verdicts is not None and sampling is not None:
            for cohort in sampling:
                for stream in cohort.streams:
                    controller = self._controllers[stream]
                    before = controller.stride
                    controller.observe(verdicts.get(stream, False), self.stats)
                    if controller.stride != before:
                        raised = controller.stride > before
                        self.obs.decisions.record(
                            "stride-raised" if raised else "stride-reset",
                            "stable-streak" if raised else "prediction-mismatch",
                            frame_id=frame.frame_id,
                            subject=_stream_query_name(stream),
                            stride_from=before,
                            stride_to=controller.stride,
                        )

        return self._finish_frame(frame)

    def drain(self) -> None:
        """Resolve any deferred tail and release retained frames.

        A video can end (or an early exit can never come — it is checked on
        sampled frames only) while frames sit in a cohort's deferred gap;
        with no future sampled frame to validate against, each tail is
        re-scanned in full, which is exactly what a stride-1 scan would have
        done.
        """
        for cohort in list(self._cohorts):
            if cohort.pending and not self._resolve_gap(cohort, "scan-ended-mid-gap"):
                break
        if self._last_frame_id is not None:
            self._release_through(self._last_frame_id)

    # -- per-frame processing ----------------------------------------------------
    def _run_frame(
        self,
        frame: Frame,
        cohorts: Optional[Sequence[StrideCohort]] = None,
        unobserved: Optional[Unobserved] = None,
    ) -> None:
        """Run one frame through gate + leaf pipelines + composition layers.

        With ``cohorts`` the frame runs only through those cohorts' leaves
        (the other cohorts deferred it); without, through every active leaf.
        ``unobserved`` says why the detector's view of the frame is not used
        (see :meth:`_step_leaf`).  Only an observed frame moves the cohorts'
        stride anchor: trackers did not advance on an unobserved one, so
        stride validation keeps extrapolating from the last real frame.
        """
        ctx = self.ctx
        if cohorts is None:
            leaves: List[PlanStream] = self._active_leaves
            streams: List[QueryStream] = self._active
        else:
            leaves = [leaf for cohort in cohorts for leaf in cohort.leaves]
            streams = [stream for cohort in cohorts for stream in cohort.streams]
        frame_start = ctx.clock.snapshot()
        if unobserved is not None:
            # A stride gap seeds every validated pair up front; a fault
            # seeds lazily, per leaf (see _step_leaf).
            for pair in unobserved.matches:
                self._seed(frame, pair, unobserved)
        degraded = False
        ran: Dict[int, PlanStream] = {}
        for leaf in leaves:
            if self._step_leaf(leaf, frame, ran, unobserved):
                degraded = True
        per_leaf_ms = ctx.clock.since(frame_start) / max(len(leaves), 1)
        for leaf in leaves:
            leaf.result.per_frame_ms.append(per_leaf_ms)
        for stream in streams:
            stream.observe_frame(frame.frame_id)
        if degraded:
            self.stats.frames_degraded += 1
        if unobserved is None:
            for cohort in self._cohorts if cohorts is None else cohorts:
                cohort.last_processed = frame.frame_id

    def _build_share_groups(self) -> Dict[PlanStream, int]:
        """Group leaves whose plans have equal structural keys.

        Only groups of two or more are kept.  Each twin gets one
        ``leaf-shared`` decision naming the group's first leaf.
        """
        by_key: Dict[Any, List[PlanStream]] = {}
        for leaf in self._active_leaves:
            key = leaf.share_key()
            if key is not None:
                by_key.setdefault(key, []).append(leaf)
        groups: Dict[PlanStream, int] = {}
        twins = [members for members in by_key.values() if len(members) > 1]
        for group, members in enumerate(twins):
            for leaf in members:
                groups[leaf] = group
            for twin in members[1:]:
                self.obs.decisions.record(
                    "leaf-shared",
                    "identical-plan",
                    subject=twin.query_name,
                    primary=members[0].query_name,
                )
        return groups

    def _run_leaf(self, leaf: PlanStream, frame: Frame, ran: Dict[int, PlanStream]) -> None:
        """Run the leaf's pipeline on the frame, or reuse a twin's run.

        ``ran`` is scoped to one pass over one frame: it maps each share
        group to the leaf that finished its own ``process_frame`` in this
        pass.  The first leaf of a group to get here runs itself, so tracker
        advance, index write-through and model faults all happen there;
        later twins take its records and replay its operator overhead.
        """
        group = self._share_groups.get(leaf)
        twin = ran.get(group) if group is not None else None
        if twin is None:
            leaf.process_frame(frame, self.ctx)
            if group is not None:
                ran[group] = leaf
        else:
            leaf.reuse_frame(frame, twin, self.ctx)

    def _step_leaf(
        self,
        leaf: PlanStream,
        frame: Frame,
        ran: Dict[int, PlanStream],
        unobserved: Optional[Unobserved],
    ) -> bool:
        """Gate, run and label one leaf on one frame; True if it degraded.

        On an observed frame a model fault re-runs the leaf as unobserved
        for ``model-unavailable``: cache hits keep every real result computed
        before the fault, and seeds fill the rest.  A fault seeds only the
        leaf's own pairs, lazily: ``seed_frame`` never overwrites a cached
        result, so seeding every pair up front would let seeds win over real
        detections a later leaf would have made.  A leaf with no tracked
        pair has nothing to seed from and skips the frame, as does a re-run
        that faults again.
        """
        if unobserved is not None and unobserved.endpoint is None:
            pairs = leaf.plan.tracked_detector_pairs()
            if not pairs:
                leaf.skip_frame(frame)
                self._note_degraded(leaf, frame, unobserved.reason, "skipped")
                return True
            for pair in pairs:
                self._seed(frame, pair, unobserved)
        try:
            # The gate applies on every frame.  Its filters are scene-level
            # and deterministic, so a rejection matches the fault-free
            # stride-1 scan: it counts as gated, never as degraded.
            if not self.gate.admits(leaf, frame):
                leaf.skip_frame(frame)
                self._note_gated(leaf, frame)
                return False
            self._run_leaf(leaf, frame, ran)
        except TransientModelError:
            if unobserved is None:
                return self._step_leaf(leaf, frame, ran, Unobserved("model-unavailable"))
            # The frame is already seeded, so another re-run would fault too.
            # A stride gap is no fault of its own: the down model is.
            leaf.skip_frame(frame)
            reason = "model-unavailable" if unobserved.endpoint is not None else unobserved.reason
            self._note_degraded(leaf, frame, reason, "skipped")
            return True
        if unobserved is None:
            self.stats.leaf_frames_processed += 1
            return False
        leaf.label_unobserved(frame.frame_id)
        if unobserved.endpoint is not None:
            self.stats.leaf_frames_interpolated += 1
            return False
        self._note_degraded(leaf, frame, unobserved.reason, "interpolated")
        return True

    def _seed(self, frame: Frame, pair: TrackedPair, unobserved: Unobserved) -> None:
        """Cache one pair's track-interpolated detections on ``frame``.

        A stride gap interpolates each track toward its matched detection on
        the sampled endpoint; a fault extrapolates from the track's history.
        The pipelines then run over the seeds without invoking the detector
        or advancing the tracker.
        """
        tracker_name, detector_name = pair
        tracker = self.ctx.peek_tracker(tracker_name, detector_name)
        matches = unobserved.matches.get(pair, {})
        seeded: List[Detection] = []
        for track in tracker.active_tracks if tracker is not None else []:
            if track.last_detection is None:
                continue
            endpoint = matches.get(track.track_id)
            bbox = track.interpolate(
                frame.frame_id,
                future_bbox=endpoint.bbox if endpoint is not None else None,
                future_frame_id=unobserved.endpoint if endpoint is not None else None,
            )
            seeded.append(replace(track.last_detection, bbox=bbox, frame_id=frame.frame_id))
        self.ctx.seed_frame(frame.frame_id, detector_name, pair, seeded)

    def _note_degraded(self, leaf: PlanStream, frame: Frame, reason: str, mode: str) -> None:
        self.obs.decisions.record(
            "frame-degraded",
            reason,
            frame_id=frame.frame_id,
            subject=leaf.query_name,
            mode=mode,
        )

    # -- stride sampling ----------------------------------------------------------
    def _build_cohorts(self) -> List[StrideCohort]:
        """Group streams whose tracked pairs transitively overlap (union-find).

        Deterministic: cohorts are ordered by their earliest member's
        position in the original stream order, and members keep that order
        within a cohort — so the single-cohort case reproduces the former
        batch-consensus scheduling byte for byte.
        """
        parent = list(range(len(self.streams)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        pair_owner: Dict[TrackedPair, int] = {}
        for idx, stream in enumerate(self.streams):
            for pair in self._controllers[stream].pairs:
                if pair in pair_owner:
                    union(idx, pair_owner[pair])
                else:
                    pair_owner[pair] = idx
        groups: Dict[int, List[QueryStream]] = {}
        order: List[int] = []
        for idx, stream in enumerate(self.streams):
            root = find(idx)
            if root not in groups:
                groups[root] = []
                order.append(root)
            groups[root].append(stream)
        return [StrideCohort(groups[root]) for root in order]

    def _cohort_stride(self, cohort: StrideCohort) -> int:
        """The stride every cohort member agrees on (1 disables skipping)."""
        stride: Optional[int] = None
        for stream in cohort.streams:
            controller = self._controllers[stream]
            if not controller.eligible:
                # An untracked member pins its own cohort (never the whole
                # batch) at stride 1: its frames are not reconstructible.
                return 1
            stride = controller.stride if stride is None else min(stride, controller.stride)
        stride = stride or 1
        if self.pressure_stride > 1:
            # Live backpressure sheds *accuracy* before frames: force
            # coarser sampling on every cohort that can interpolate.
            stride = max(stride, self.pressure_stride)
        return stride

    def _validate_and_resolve(
        self, cohort: StrideCohort, frame: Frame
    ) -> Optional[Dict[QueryStream, bool]]:
        """Validate tracker predictions at a sampled frame; resolve the gap.

        Validation runs *before* any pipeline touches the frame, while the
        trackers still hold the state of the previous sampled frame: each
        (tracker, detector) pair's active tracks are extrapolated to this
        frame and matched against a fresh detector probe (the probe populates
        the shared per-frame cache, so the pipelines never pay it twice).

        Returns None when every stream's answer became determined while the
        gap was being resolved (the scan must stop there, like a stride-1
        early exit would have), otherwise the per-stream verdicts for the
        cohort's members.
        """
        verdicts: Dict[QueryStream, bool] = {}
        match_maps: Dict[TrackedPair, Optional[Dict[int, Detection]]] = {}
        for stream in cohort.streams:
            controller = self._controllers[stream]
            if not controller.eligible:
                verdicts[stream] = False
                continue
            ok = True
            for pair in controller.pairs:
                if pair not in match_maps:
                    try:
                        match_maps[pair] = self._validate_pair(cohort, pair, frame)
                    except TransientModelError:
                        # Probe hit a down model: abstain.  The gap is then
                        # resolved by re-scan, where each frame degrades (or
                        # recovers) individually.
                        match_maps[pair] = None
                if match_maps[pair] is None:
                    ok = False
            verdicts[stream] = ok

        if cohort.pending:
            if all(verdicts.get(s, False) for s in cohort.streams):
                fill = Unobserved("stride-gap", endpoint=frame.frame_id, matches=match_maps)
                resolved = self._resolve_gap(cohort, "predictions-validated", fill)
            else:
                resolved = self._resolve_gap(cohort, "validation-failed")
            if not resolved:
                return None
        return verdicts

    def _probe_allowed(self, cohort: StrideCohort, detector_name: str, frame: Frame) -> bool:
        """True when a stride-1 scan would also run this detector here.

        The validation probe must never *add* detector invocations: if every
        cohort leaf using the detector is gate-rejected on this frame, a
        stride-1 scan would not have detected on it for this cohort either,
        so validation abstains (the gap is then resolved by re-scan, which
        is budget-neutral).  Scoped to the cohort's own leaves — another
        cohort admitting the detector cannot justify a probe anchored on
        this cohort's tracker state.
        """
        for leaf in cohort.leaves:
            if detector_name not in leaf.detector_models:
                continue
            if self.gate.admits(leaf, frame):
                return True
        return False

    def _validate_pair(
        self, cohort: StrideCohort, pair: TrackedPair, frame: Frame
    ) -> Optional[Dict[int, Detection]]:
        """Match predicted track boxes against a detector probe on ``frame``.

        Returns ``{track_id: matched detection}`` when the scene is fully
        predictable — every active track was matched on the previous sampled
        frame, no track was born or died, and each predicted box overlaps a
        same-class detection with IoU ≥ ``iou_tol`` (one-to-one) — or None
        on any disagreement.
        """
        tracker_name, detector_name = pair
        last = cohort.last_processed
        if last is None:
            return None
        if not self._probe_allowed(cohort, detector_name, frame):
            return None
        tracker = self.ctx.peek_tracker(tracker_name, detector_name)
        tracks = tracker.active_tracks if tracker is not None else []
        for track in tracks:
            # A coasting track (missed at the anchor frame) means an object
            # just vanished — the scene is not in a steady state.
            if track.misses or track.last_frame_id != last:
                return None
        detections = self.ctx.detect(detector_name, frame)
        if len(detections) != len(tracks):
            return None  # birth or death since the last sampled frame
        matches: Dict[int, Detection] = {}
        taken: set = set()
        tol = self.stride_cfg.iou_tol
        for track in tracks:
            predicted = track.interpolate(frame.frame_id)
            best_idx, best_iou = None, tol
            for idx, det in enumerate(detections):
                if idx in taken or det.class_name != track.class_name:
                    continue
                overlap = predicted.iou(det.bbox)
                if overlap >= best_iou:
                    best_idx, best_iou = idx, overlap
            if best_idx is None:
                return None  # drift beyond tolerance
            taken.add(best_idx)
            matches[track.track_id] = detections[best_idx]
        return matches

    def _resolve_gap(
        self, cohort: StrideCohort, reason: str, fill: Optional[Unobserved] = None
    ) -> bool:
        """Resolve a cohort's deferred frames, oldest first.

        With ``fill`` (predictions validated) each frame runs the ordinary
        pipelines over track-interpolated seeds: properties, joins, sinks
        and event grouping all see it, but no detector or tracker model is
        invoked and the frame is labelled in ``Event.skipped_frames``.
        Without, each frame is re-scanned in full, in order, *before* the
        sampled frame's pipelines run, so tracker state sees exactly the
        update sequence a stride-1 scan would have: results for the gap are
        identical to never having deferred, and event boundaries stay
        frame-accurate.

        Returns False when the gap determined every stream's answer (a
        stride-1 early-exit scan would have stopped on that frame too).
        """
        pending, cohort.pending = cohort.pending, []
        for gap_frame in pending:
            self._run_frame(gap_frame, cohorts=[cohort], unobserved=fill)
            if fill is None:
                self.stats.frames_rescanned += 1
                action, attrs = "frame-rescanned", {}
            else:
                self.stats.frames_interpolated += 1
                action, attrs = "frame-interpolated", {"endpoint": fill.endpoint}
            self.obs.decisions.record(action, reason, frame_id=gap_frame.frame_id, **attrs)
            if not self._check_continue(gap_frame):
                return False
        return True

    def _finish_frame(self, frame: Frame) -> bool:
        """Release aged-out caches; False once no stream remains active."""
        self._release_through(self._release_horizon(frame.frame_id - self.lookback))
        return self._check_continue(frame)

    def _check_continue(self, frame: Frame) -> bool:
        """Retire done streams mid-gap; False once no stream remains."""
        if not self.early_exit:
            return True
        self._retire_done()
        if not self._active:
            self._note_early_exit(frame.frame_id)
            return False
        return True

    # -- accounting hooks ---------------------------------------------------------
    def _note_gated(self, leaf: PlanStream, frame: Frame) -> None:
        """Count a gated (leaf, frame) pair and log which filter rejected it."""
        self.stats.leaf_frames_gated += 1
        self.obs.decisions.record(
            "frame-gated",
            "frame-filter-rejected",
            frame_id=frame.frame_id,
            subject=leaf.query_name,
            model=self.gate.rejecting_model(leaf, frame.frame_id),
        )

    def _note_early_exit(self, frame_id: int) -> None:
        self.stats.early_exit_frame = frame_id
        self.obs.decisions.record("scan-early-exit", "all-streams-done", frame_id=frame_id)

    # -- live-mode hooks ----------------------------------------------------------
    def set_pressure_stride(self, stride: int) -> bool:
        """Force a stride floor on interpolation-capable cohorts.

        Live backpressure calls this when ingest outruns compute: cohorts
        whose frames are reconstructible sample coarser (shedding *accuracy*,
        not frames) until pressure drops and the floor returns to 1.  Returns
        False (no-op) when stride sampling is disabled — there is then no
        interpolation machinery to shed with, and hard drops are the only
        relief valve.
        """
        if self.stride_cfg is None:
            return False
        self.pressure_stride = max(1, int(stride))
        return True

    def note_missing_frame(self, frame_id: int) -> None:
        """Label a frame the scan will never step (live shed / feed outage).

        Marks the frame skipped for every active leaf so events spanning it
        stay labelled via ``Event.skipped_frames``; groupers are *not*
        advanced (nothing observed the frame), so runs close by gap exactly
        as if the source had never delivered it.  Unlike the frames
        :meth:`_run_frame` fills, no pipeline runs here by design: running
        one would advance groupers and change live results.
        """
        for leaf in self._active_leaves:
            leaf.label_unobserved(frame_id)

    # -- internals --------------------------------------------------------------
    def _release_horizon(self, horizon: int) -> int:
        """Clamp a release horizon below every cohort's oldest deferred frame."""
        for cohort in self._cohorts:
            if cohort.pending:
                horizon = min(horizon, cohort.pending[0].frame_id - 1)
        return horizon

    def _release_through(self, horizon: int) -> None:
        """Evict caches for every unreleased frame id up to ``horizon``."""
        while self._release_cursor <= horizon:
            self.ctx.release_frame(self._release_cursor)
            self.gate.release_frame(self._release_cursor)
            self._release_cursor += 1

    def _retire_done(self) -> None:
        still_active = [s for s in self._active if not s.done()]
        if len(still_active) != len(self._active):
            self.stats.streams_retired += len(self._active) - len(still_active)
            remaining = {id(s) for s in still_active}
            for stream in self._active:
                if id(stream) not in remaining:
                    self.obs.decisions.record(
                        "stream-retired",
                        "answer-determined",
                        frame_id=self._last_frame_id,
                        subject=_stream_query_name(stream),
                    )
            self._active = still_active
            self._active_leaves = [
                leaf for stream in still_active for leaf in stream.plan_streams()
            ]
            if self._cohorts:
                keep = {id(s) for s in still_active}
                for cohort in self._cohorts:
                    if any(id(s) not in keep for s in cohort.streams):
                        cohort.streams = [s for s in cohort.streams if id(s) in keep]
                        cohort.leaves = [
                            leaf for s in cohort.streams for leaf in s.plan_streams()
                        ]
                self._cohorts = [c for c in self._cohorts if c.streams]
