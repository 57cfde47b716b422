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
aggregates.  It is compiled once per leaf (:meth:`Executor.compile_sink`),
together with the predicates and outputs it evaluates.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.frontend.expr import MISSING, TRUE
from repro.frontend.higher_order import DurationQuery, TemporalQuery
from repro.frontend.query import Query
from repro.obs.core import DISABLED, Obs
from repro.videosim.video import SyntheticVideo, VideoReader

#: A compiled sink (:meth:`Executor.compile_sink`): ``(graph, ctx, result)``
#: emits the frame's matches into the result.
Sink = Callable[[FrameGraph, ExecutionContext, QueryResult], None]


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
        ctx.index.finalize(ctx, observe_stability=self.config.stride is not None)
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
        fault_cfg = self.config.faults
        if fault_cfg is not None:
            ctx.faults = FaultManager(fault_cfg, ctx.clock, feed=feed, obs=obs)
        scheduler = ScanScheduler(streams, ctx, early_exit=early_exit, stride=self.config.stride)
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
        fault_cfg = self.config.faults
        checkpointer = (
            ScanCheckpointer(fault_cfg.checkpoint_interval, fault_cfg.max_resumes)
            if fault_cfg is not None and fault_cfg.checkpoint_interval > 0
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
    @staticmethod
    def compile_sink(analysis: QueryAnalysis) -> Sink:
        """The plan's sink: enumerate bindings, evaluate residual
        constraints, emit matches.

        Compiled once per leaf.  A binding's runtime states sit in one
        tuple: the VObj variables' node states, then the scene states, then
        the relation states, and every predicate and output is compiled
        over that layout.  Per binding the sink reads properties in a fixed
        order (frame predicate, video predicate, identity, outputs,
        aggregates), so lazily computed properties charge the clock in that
        order.  The closure holds no per-scan state, so checkpoint copies
        of a leaf share it.
        """
        vobj_vars = [info.variable for info in analysis.variables if not info.is_scene]
        scene_vars = [info.variable for info in analysis.variables if info.is_scene]
        relations = [info.relation for info in analysis.relations]
        slots = {var: slot for slot, var in enumerate(vobj_vars + scene_vars + relations)}
        position = {var: i for i, var in enumerate(vobj_vars)}
        scenes = [(id(var), type(var)) for var in scene_vars]
        # (relation key, subject position, object position) per relation.  A
        # relation whose subject or object is not a VObj variable of the
        # plan has no state for any binding, so the plan never matches.
        relation_ends = [
            (id(rel), position.get(rel.subject), position.get(rel.object)) for rel in relations
        ]
        binds = all(subject is not None and object_ is not None for _, subject, object_ in relation_ends)
        # The signature lists (variable name, identity) sorted by name.
        signature_order = [
            (var.var_name, position[var]) for var in sorted(vobj_vars, key=lambda v: v.var_name)
        ]
        frame_test = analysis.frame_predicate.compile(slots)
        video_predicate = analysis.video_predicate
        video_test = None if video_predicate is TRUE else video_predicate.compile(slots)
        # A pure aggregation query counts every frame-matching binding.
        aggregate_frame_matches = video_predicate is TRUE and bool(analysis.video_outputs)
        outputs = [expr.compile(slots) for expr in analysis.frame_outputs]
        aggregates = [agg.expr.compile(slots) for agg in analysis.video_outputs]
        single = vobj_vars[0] if len(vobj_vars) == 1 else None

        def match(nodes: Tuple[VObjNode, ...], states: Tuple[Any, ...], relation_states, frame_id: int):
            if relation_ends:
                found = []
                for key, subject, object_ in relation_ends:
                    pairs = relation_states.get(key)
                    rel_state = None if pairs is None else pairs.get((nodes[subject].node_id, nodes[object_].node_id))
                    if rel_state is None:
                        return None
                    found.append(rel_state)
                states += tuple(found)
            frame_ok = frame_test(states)
            if video_test is not None:
                video_ok = video_test(states)
            else:
                video_ok = frame_ok if aggregate_frame_matches else False
            if not frame_ok and not video_ok:
                return None
            signature = tuple([(name, _binding_identity(nodes[i])) for name, i in signature_order])
            if frame_ok:
                values = [resolve(states) for resolve in outputs]
                frame_values = tuple([None if v is MISSING else v for v in values])
            else:
                frame_values = ()
            if video_ok:
                values = [resolve(states) for resolve in aggregates]
                aggregate_values = tuple([None if v is MISSING else v for v in values])
            else:
                aggregate_values = ()
            return MatchRecord(frame_id, signature, frame_values, frame_ok, video_ok, aggregate_values)

        def sink(graph: FrameGraph, ctx: ExecutionContext, result: QueryResult) -> None:
            if graph.dropped:
                return
            frame = graph.frame
            frame_id = frame.frame_id
            scene_states = graph.scene_states
            context = tuple(
                [scene_states.get(key) or ctx.scene_state(scene_type, frame) for key, scene_type in scenes]
            )
            if not binds:
                return
            relation_states = graph.relation_states
            records = []
            if single is not None:
                for node in graph.nodes(single):
                    record = match((node,), (node.state,) + context, relation_states, frame_id)
                    if record is not None:
                        records.append(record)
            else:
                pools = [graph.nodes(var) for var in vobj_vars]
                for nodes in itertools.product(*pools):
                    states = tuple([node.state for node in nodes]) + context
                    record = match(nodes, states, relation_states, frame_id)
                    if record is not None:
                        records.append(record)
            if records:
                if any(record.frame_match for record in records):
                    result.matched_frames.append(frame_id)
                result.matches[frame_id] = records

        return sink

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
