"""The execution engine (paper §4.1): a single-pass streaming executor.

Every query — basic, spatial, duration, temporal — is compiled into a
:class:`~repro.backend.streaming.QueryStream` whose leaves are operator
pipelines and whose inner nodes are incremental composition operators
(online run-length event grouping for :class:`DurationQuery`, windowed
event pairing for :class:`TemporalQuery`).  A batch of streams advances
frame-by-frame over **one** :class:`VideoReader` scan with one shared
:class:`ExecutionContext`, so detector, tracker, and property-model results
are computed exactly once per (model, frame) — the paper's query-level
computation reuse (§4.2, §5.3) — and per-frame caches are released in O(1)
once a frame has aged out of every stream's lookback window.

The scan itself is adaptive (:mod:`repro.backend.scheduler`): each plan's
cheap frame filters are hoisted into a batch-level gate so rejected frames
skip the detector/tracker/property pipeline per stream, bounded queries
(``Query.bounded`` / ``Query.exists``) retire as soon as their answer is
determined, and the scan terminates early once every stream is done.

The sink enumerates bindings of the surviving objects, re-checks the full
frame/video constraints (cheap — property values are already cached on the
object states), resolves the outputs, and accumulates video-level
aggregates.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

from repro.backend.analysis import QueryAnalysis
from repro.backend.graph import FrameGraph, VObjNode
from repro.backend.plan import QueryPlan
from repro.backend.planner import Planner, PlannerConfig
from repro.backend.results import Event, MatchRecord, QueryResult
from repro.backend.runtime import ExecutionContext
from repro.backend.scheduler import ScanScheduler
from repro.backend.streaming import (
    DurationStream,
    OnlineEventGrouper,
    PlanStream,
    QueryStream,
    TemporalStream,
)
from repro.common.errors import ExecutionError, FeedFailedError
from repro.faults import FaultManager, ScanCheckpointer
from repro.frontend.expr import Env, MISSING, TRUE
from repro.frontend.higher_order import DurationQuery, TemporalQuery
from repro.frontend.query import Query
from repro.obs.core import DISABLED, Obs
from repro.videosim.video import SyntheticVideo, VideoReader


class Executor:
    """Compiles queries to streams and runs them over videos in one pass."""

    def __init__(self, config: Optional[PlannerConfig] = None) -> None:
        self.config = config or PlannerConfig()

    # ------------------------------------------------------------- compilation --
    def compile(
        self,
        query: Query,
        video: SyntheticVideo,
        planner: Planner,
        ensure_events: bool = False,
        obs: Obs = DISABLED,
    ) -> QueryStream:
        """Compile any query (including higher-order compositions) to a stream.

        With ``ensure_events`` a bare basic query gets a default event
        grouper attached, so its result carries grouped events off the same
        single scan (cross-camera linking consumes them).  Higher-order
        streams already produce events; their children keep the groupers
        their composition layer attaches.
        """
        gated = self.config.enable_scan_gating
        limit = self._stream_limit(query)
        if isinstance(query, TemporalQuery):
            min_gap, max_gap = query.gap_window_frames(video.fps)
            return TemporalStream(
                query.query_name,
                self.compile(query.first, video, planner, obs=obs),
                self.compile(query.second, video, planner, obs=obs),
                min_gap_frames=min_gap,
                max_gap_frames=max_gap,
                limit=limit,
            )
        if isinstance(query, DurationQuery):
            base = PlanStream(planner.plan(query, video, obs=obs), self, gated=gated)
            return DurationStream(
                base,
                required_frames=query.required_duration_frames(video.fps),
                max_gap=query.max_gap_frames,
                limit=limit,
            )
        stream = PlanStream(planner.plan(query, video, obs=obs), self, gated=gated, limit=limit)
        if ensure_events:
            stream.ensure_event_stream()
        return stream

    def _stream_limit(self, query: Query) -> Optional[int]:
        """The query's result bound, when the stream can honour it.

        The bound always shapes the result (finalize truncates to the first
        ``limit`` matches/events); ``enable_early_exit`` only controls
        whether the scheduler may additionally *retire* the stream mid-scan.
        Aggregating queries (video outputs or a video-level constraint) need
        the whole video regardless of any declared bound; temporal queries
        are bounded on their *pairs*, which incremental pairing makes
        decidable mid-scan.
        """
        limit = getattr(query, "limit", None)
        if limit is None:
            return None
        if isinstance(query, TemporalQuery):
            return limit
        if query.video_outputs() or query.video_predicate() is not TRUE:
            return None
        return limit

    # ------------------------------------------------------------------ plans --
    def execute_plan(self, plan: QueryPlan, video: SyntheticVideo, ctx: ExecutionContext) -> QueryResult:
        """Execute a single plan over the whole video."""
        return self.execute_plans([plan], video, ctx)[0]

    def execute_plans(
        self, plans: Sequence[QueryPlan], video: SyntheticVideo, ctx: ExecutionContext
    ) -> List[QueryResult]:
        """Execute several pre-built plans in one pass, sharing computations."""
        gated = self.config.enable_scan_gating
        return self.execute_streams(
            [PlanStream(plan, self, gated=gated) for plan in plans], video, ctx
        )

    # ---------------------------------------------------------------- streams --
    def execute_streams(
        self,
        streams: Sequence[QueryStream],
        video: SyntheticVideo,
        ctx: ExecutionContext,
        obs: Obs = DISABLED,
        candidate_reports: Optional[Dict[str, List[Any]]] = None,
    ) -> List[QueryResult]:
        """Advance all streams through one adaptive scan, then finalize."""
        if not streams:
            return []
        scheduler = self.build_scan(
            streams, ctx, video.spec.name, obs, early_exit=self.config.enable_early_exit
        )
        start_snapshot = ctx.clock.snapshot()

        with obs.tracer.span(
            "scan", clock=ctx.clock, video=video.spec.name, streams=len(streams)
        ):
            scheduler = self._scan(video, scheduler, ctx)

        # A checkpoint resume replaces the scheduler (and with it the stream
        # objects); finalize over the streams that actually finished the scan.
        streams = scheduler.streams
        leaves = [leaf for stream in streams for leaf in stream.plan_streams()]
        total = ctx.clock.since(start_snapshot)
        for leaf in leaves:
            leaf.result.total_ms = total / max(len(leaves), 1)
            leaf.result.cost_breakdown = dict(ctx.clock.breakdown())
            leaf.result.reuse_hits = ctx.reuse_stats.total_hits
            self._finalize_aggregates(leaf.plan.analysis, leaf.result, video)
        results = [stream.finalize(video, ctx) for stream in streams]
        # Post-scan index finalization: observed per-video statistics
        # (stable fraction only when stride sampling actually measured it).
        ctx.index.finalize(ctx, observe_stability=self.config.enable_stride_sampling)
        if obs.enabled:
            self._attach_explain(results, scheduler, ctx, obs, candidate_reports or {})
        return results

    def build_scan(
        self,
        streams: Sequence[QueryStream],
        ctx: ExecutionContext,
        feed: str,
        obs: Obs,
        early_exit: bool,
    ) -> ScanScheduler:
        """Wire one feed's scan: the context's obs and fault layer, then the
        scheduler whose ``ScanStats`` the context and fault layer count into.

        The fault manager is built per scan so breaker/injector state never
        leaks across videos or from one feed of a multi-camera session to
        the next (each feed's scan owns its own, keyed by the feed name).  Batch execution and live sessions both build here.
        """
        ctx.obs = obs
        if self.config.enable_fault_tolerance:
            ctx.faults = FaultManager(self.config.fault_config, ctx.clock, feed=feed, obs=obs)
        scheduler = ScanScheduler(
            streams, ctx, early_exit=early_exit, stride=self.config.stride()
        )
        ctx.scan_stats = scheduler.stats
        ctx.faults.bind_stats(scheduler.stats)
        return scheduler

    def _scan(
        self, video: SyntheticVideo, scheduler: ScanScheduler, ctx: ExecutionContext
    ) -> ScanScheduler:
        """The frame loop, wrapped in crash recovery when checkpointing is on.

        A mid-scan :class:`ExecutionError` (the fault layer's injected crash,
        or any unexpected abort) resumes from the last checkpoint — up to
        ``max_resumes`` times — by restoring the scheduler/context/clock and
        restarting the reader at the checkpointed frame.  A
        :class:`FeedFailedError` is *not* recoverable here: the feed itself
        died, and the multi-camera session isolates it instead.  Returns the
        scheduler that finished the scan (a restored copy after any resume).
        """
        cfg = self.config.fault_config
        checkpointer = (
            ScanCheckpointer(cfg.checkpoint_interval, cfg.max_resumes)
            if self.config.enable_fault_tolerance and cfg.checkpoint_interval > 0
            else None
        )
        start = 0
        while True:
            if checkpointer is not None:
                # Anchor a checkpoint at loop entry (frame 0; after a resume
                # the capture guard makes this a no-op), then capture *after*
                # each stepped frame.  A checkpoint taken after the reader
                # has charged its own resume frame would re-charge that read
                # on every resume, breaking timeline identity.
                checkpointer.maybe_capture(scheduler, start)
            reader = VideoReader(
                video, clock=ctx.clock, start=start, frame_hook=ctx.faults.reader_hook
            )
            try:
                for frame in reader:
                    if not scheduler.step(frame):
                        break
                    if checkpointer is not None:
                        checkpointer.maybe_capture(scheduler, frame.frame_id + 1)
                scheduler.drain()
                return scheduler
            except FeedFailedError:
                raise
            except ExecutionError:
                if checkpointer is None or not checkpointer.can_resume:
                    raise
                scheduler, start = checkpointer.restore()

    @staticmethod
    def _attach_explain(
        results: Sequence[QueryResult],
        scheduler: ScanScheduler,
        ctx: ExecutionContext,
        obs: Any,
        candidate_reports: Dict[str, List[Any]],
    ) -> None:
        """Hang an ``ExplainData`` payload off each result (tracing mode)."""
        from repro.obs.explain import ExplainData, mark_chosen

        for result in results:
            reports = mark_chosen(
                candidate_reports.get(result.query_name, []), result.plan_variant
            )
            result.obs = ExplainData(
                query_name=result.query_name,
                plan_variant=result.plan_variant,
                candidates=reports,
                scan_stats=scheduler.stats.as_dict(),
                cost_breakdown=dict(ctx.clock.breakdown()),
                model_calls=dict(ctx.clock.calls),
                total_ms=result.total_ms,
                decisions=obs.decisions,
                tracer=obs.tracer,
                index=ctx.index.summary(),
            )

    # ---------------------------------------------------------------- queries --
    def execute_queries(
        self,
        queries: Sequence[Query],
        video: SyntheticVideo,
        ctx: ExecutionContext,
        planner: Planner,
        ensure_events: bool = False,
        obs: Obs = DISABLED,
    ) -> List[QueryResult]:
        """Execute a mixed batch of queries in exactly one video scan."""
        # Let the planner's cost model see the whole batch: frame filters
        # hoisted into the scan gate are paid once per batch, and candidate
        # pricing must reflect that sharing (gate-aware cost model).
        planner.begin_batch(queries)
        streams = [
            self.compile(query, video, planner, ensure_events=ensure_events, obs=obs)
            for query in queries
        ]
        reports = getattr(planner, "last_candidate_reports", None)
        return self.execute_streams(
            streams, video, ctx, obs=obs, candidate_reports=reports
        )

    # ------------------------------------------------------------------- sink --
    def _sink(
        self, analysis: QueryAnalysis, graph: FrameGraph, ctx: ExecutionContext, result: QueryResult
    ) -> None:
        """Enumerate bindings, evaluate residual constraints, emit matches."""
        if graph.dropped:
            return
        frame = graph.frame
        vobj_vars = [info.variable for info in analysis.variables if not info.is_scene]
        scene_vars = [info.variable for info in analysis.variables if info.is_scene]

        scene_bindings = {
            var: graph.scene_states.get(id(var)) or ctx.scene_state(type(var), frame)
            for var in scene_vars
        }

        relation_states = graph.relation_states
        frame_matches: List[MatchRecord] = []

        for binding in graph.bindings(vobj_vars) if vobj_vars else iter([{}]):
            env: Dict[Any, Any] = dict(scene_bindings)
            for var, node in binding.items():
                env[var] = node.state
            ok = True
            for rel_info in analysis.relations:
                rel = rel_info.relation
                subj_node = binding.get(rel.subject)
                obj_node = binding.get(rel.object)
                if subj_node is None or obj_node is None:
                    ok = False
                    break
                rel_state = relation_states.get(id(rel), {}).get((subj_node.node_id, obj_node.node_id))
                if rel_state is None:
                    ok = False
                    break
                env[rel] = rel_state
            if not ok:
                continue

            frame_ok = analysis.frame_predicate.evaluate(env)
            video_ok = analysis.video_predicate is not TRUE and analysis.video_predicate.evaluate(env)
            if analysis.video_predicate is TRUE and analysis.video_outputs:
                # A pure aggregation query counts every frame-matching binding.
                video_ok = frame_ok
            if not frame_ok and not video_ok:
                continue

            signature = tuple(
                (var.var_name, self._binding_identity(node))
                for var, node in sorted(binding.items(), key=lambda kv: kv[0].var_name)
            )
            outputs = tuple(self._resolve_value(expr, env) for expr in analysis.frame_outputs) if frame_ok else ()
            agg_values = tuple(self._resolve_value(agg.expr, env) for agg in analysis.video_outputs) if video_ok else ()
            frame_matches.append(
                MatchRecord(
                    frame_id=frame.frame_id,
                    binding=signature,
                    outputs=outputs,
                    frame_match=frame_ok,
                    video_match=video_ok,
                    aggregate_values=agg_values,
                )
            )

        if frame_matches:
            if any(m.frame_match for m in frame_matches):
                result.matched_frames.append(frame.frame_id)
            result.matches[frame.frame_id] = frame_matches

    @staticmethod
    def _binding_identity(node: VObjNode) -> Any:
        """The object identity recorded in a match signature.

        Tracked plans use the track id.  Plans without a tracker have no
        track id; falling back to the frame-graph node id keeps distinct
        objects in the same frame distinct instead of collapsing every
        untracked object into one ``None`` signature (which merged separate
        events in event extraction).  The ``@`` prefix marks the value as a
        positional, non-track identity.
        """
        track_id = node.state.get("track_id")
        if track_id is not None:
            return track_id
        return f"@{node.node_id}"

    @staticmethod
    def _resolve_value(expr, env: Env) -> Any:
        value = expr.resolve(env)
        return None if value is MISSING else value

    # -------------------------------------------------------------- aggregates --
    def _finalize_aggregates(self, analysis: QueryAnalysis, result: QueryResult, video: SyntheticVideo) -> None:
        if not analysis.video_outputs:
            return
        video_records = result.video_records()
        frames = max(result.num_frames_processed, 1)
        for idx, agg in enumerate(analysis.video_outputs):
            label = agg.label or f"{agg.kind}_{idx}"
            result.aggregate_kinds[label] = agg.kind
            values = [r.aggregate_values[idx] for r in video_records if len(r.aggregate_values) > idx]
            if agg.kind == "count_distinct":
                result.aggregates[label] = len({v for v in values if v is not None})
            elif agg.kind == "average_per_frame":
                result.aggregates[label] = len(values) / frames
            elif agg.kind == "max_per_frame":
                per_frame: Dict[int, int] = defaultdict(int)
                for r in video_records:
                    per_frame[r.frame_id] += 1
                result.aggregates[label] = max(per_frame.values(), default=0)
            elif agg.kind == "collect":
                result.aggregates[label] = values


def extract_events(result: QueryResult, max_gap: int = 5, min_length: int = 1) -> List[Event]:
    """Group a result's matches into per-object-set events (continuous runs).

    Matches sharing the same binding signature that occur within ``max_gap``
    frames of each other belong to the same event; events shorter than
    ``min_length`` frames are dropped.  This is the offline counterpart of
    :class:`~repro.backend.streaming.OnlineEventGrouper`, which the executor
    uses to group events incrementally during the scan.
    """
    grouper = OnlineEventGrouper(max_gap=max_gap, min_length=min_length)
    for frame_id in sorted(result.matches):
        grouper.observe(frame_id, (record.signature for record in result.matches[frame_id]))
    return grouper.finish()
