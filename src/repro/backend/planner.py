"""The query planner (paper §4.1, §4.3, §4.4).

Given an analyzed query, the planner:

1. builds a *base* operator DAG — one branch per VObj variable (detector,
   tracker when needed, interleaved projectors and object filters), a join,
   and relation operators after the join;
2. applies DAG optimizations — predicate pull-up (filters run as early as
   their properties allow, cheapest first) and operator fusion;
3. generates *alternative* DAGs from the inheritance chain and the
   registered optimizations (§4.4): specialized detectors replacing the
   general detector plus attribute filter, binary classifiers and frame
   filters inserted ahead of the detectors;
4. profiles every candidate on a short canary clip, estimating cost (virtual
   milliseconds) and accuracy (F1 against the most-general plan's results),
   and picks the cheapest plan meeting the accuracy target (§4.3).

Chosen variants are cached per (query structure, video, batch) so repeated
and structurally identical queries skip re-profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backend.analysis import QueryAnalysis, VariableInfo, analyze_query
from repro.backend.operators import (
    DetectorOp,
    FrameFilterOp,
    FusedOp,
    Operator,
    ProjectorOp,
    RelationFilterOp,
    RelationProjectorOp,
    TrackerOp,
    VObjFilterOp,
)
from repro.backend.plan import QueryPlan, analysis_key
from repro.common.config import (
    AccuracyTarget,
    FaultConfig,
    IndexConfig,
    LiveConfig,
    ObsConfig,
    ReidConfig,
    StrideConfig,
)
from repro.common.errors import PlanError, ReproError
from repro.frontend.expr import Comparison, Literal, Predicate, PropertyRef, conjunction
from repro.frontend.query import Query
from repro.frontend.vobj import VObj
from repro.models.zoo import ModelZoo
from repro.obs.core import DISABLED, Obs


@dataclass(frozen=True)
class PlannerConfig:
    """Planner and executor knobs.

    The defaults correspond to "VQPy with annotation" in the evaluation;
    experiments flip individual switches to reproduce the vanilla-VQPy and
    ablation configurations.
    """

    #: Predicate pull-up / lazy evaluation: interleave filters with projectors.
    enable_lazy: bool = True
    #: Fuse adjacent per-variable operators to amortise operator overhead.
    enable_fusion: bool = True
    #: Object-level computation reuse of intrinsic properties (§4.2).
    enable_reuse: bool = True
    #: Insert binary classifiers / frame filters registered on the VObjs.
    use_registered_filters: bool = True
    #: Consider specialized-NN detector variants registered on the VObjs.
    consider_specialized: bool = True
    #: Profile candidate DAGs on a canary clip and pick the best (§4.3).
    profile_plans: bool = True
    #: Number of canary frames used for profiling.
    canary_frames: int = 40
    #: Minimum acceptable F1 (relative to the most-general plan) for a candidate.
    accuracy_target: float = 0.9
    #: Hoist each plan's frame filters into the scan scheduler's batch-level
    #: gate: one evaluation per distinct filter model per frame, per-stream
    #: skip masks (off = PR-1 behaviour, filters inside every pipeline).
    enable_scan_gating: bool = True
    #: Let bounded queries (``Query.bounded`` / ``Query.exists``) retire
    #: mid-scan and stop the scan once every stream's answer is determined.
    enable_early_exit: bool = True
    #: Adaptive frame-stride sampling: raise the detection stride on streams
    #: whose tracker state is stable and fill skipped frames by Kalman
    #: interpolation (off = every surviving frame pays full detector cost).
    enable_stride_sampling: bool = False
    #: Upper bound on the adaptive detection stride (powers of two).
    max_stride: int = 8
    #: Minimum predicted-vs-detected IoU for a sampled frame to agree with
    #: the tracker prediction (below it the skipped gap is re-scanned).
    stride_iou_tol: float = 0.5
    #: Consecutive predictable frames required before each stride doubling.
    stride_stable_frames: int = 3
    #: The cost model's prior for the fraction of a workload's frames that
    #: are tracker-predictable (drives the expected sampling discount).
    stride_stable_fraction: float = 0.5
    #: Cross-camera re-identification: after a multi-camera execution, link
    #: tracks across feeds by cosine-matching their (cached) re-id
    #: embeddings, and thread global identity labels plus a wall-clock
    #: timeline into the merged results (off = PR-4 behaviour, feeds stay
    #: unlinked and merged events sort by frame id).
    enable_cross_camera_reid: bool = False
    #: Minimum cosine similarity for two tracks to share a global identity.
    reid_threshold: float = 0.7
    #: Gallery assignment strategy: "hungarian" (optimal) or "greedy".
    reid_assignment: str = "hungarian"
    #: Clock-skew tolerance between feeds: cross-camera gap windows widen by
    #: this much and near-contiguous per-camera segments stitch together.
    max_clock_skew_s: float = 0.5
    #: Engine-wide observability (:mod:`repro.obs`): span tracing with dual
    #: wall-clock/virtual timestamps, the decision log, and
    #: ``QueryResult.explain()``.  Off = every hook goes to the shared
    #: do-nothing bundle and results are byte-identical.
    enable_tracing: bool = False
    #: Bound on retained decision records when tracing is on (aggregate
    #: counts stay exact past the bound).
    obs_max_decision_records: int = 4096
    #: Fault-tolerant execution (:mod:`repro.faults`): deterministic fault
    #: injection, retried model invocations with clock-charged backoff,
    #: per-model timeout budgets and circuit breakers, graceful frame
    #: degradation, and scan checkpoint/resume.  Off = every scan shares the
    #: inert fault layer, which just calls, and results are byte-identical.
    enable_fault_tolerance: bool = False
    #: Fault model + resilience tuning (rates, retries, breaker, checkpoint
    #: interval); read only when the switch above is on.
    fault_config: FaultConfig = FaultConfig()
    #: Live push-driven ingestion (:mod:`repro.backend.live`): standing
    #: queries over an unbounded paced feed, immediate alert emission,
    #: bounded ingest queue with pressure-driven stride shedding, reorder
    #: window, and watchdog-driven reconnection.  Off = batch execution
    #: only; no live objects are created and results are byte-identical.
    enable_live: bool = False
    #: Live ingestion tuning (queue cap, pressure thresholds, reorder
    #: window, watchdog/reconnect); read only by a live session.
    live_config: LiveConfig = LiveConfig()
    #: Persistent video index (:mod:`repro.index`): cache detector outputs,
    #: frame-filter verdicts, tracker ids, re-id embeddings and property and
    #: interaction model outputs per (video, model, model version) across
    #: sessions, so a re-query over an already-indexed video
    #: never re-invokes a model on an indexed frame.  Off = every execution
    #: shares the inert index view, whose lookups miss, and execution is
    #: byte-identical.
    enable_video_index: bool = False
    #: Index tuning (storage path, observed-statistics consumption); read
    #: only when the switch above is on.
    index_config: IndexConfig = IndexConfig()

    def accuracy(self) -> AccuracyTarget:
        return AccuracyTarget(min_f1=self.accuracy_target)

    def reid(self) -> "ReidConfig":
        """The cross-camera re-identification knobs as a ReidConfig."""
        return ReidConfig(
            threshold=self.reid_threshold,
            assignment=self.reid_assignment,
            max_clock_skew_s=self.max_clock_skew_s,
        )

    def stride(self) -> "StrideConfig":
        """The scan scheduler's stride-sampling knobs as a StrideConfig."""
        return StrideConfig(
            enabled=self.enable_stride_sampling,
            max_stride=self.max_stride,
            iou_tol=self.stride_iou_tol,
            stable_frames=self.stride_stable_frames,
        )

    def obs(self) -> "ObsConfig":
        """The observability knobs as an ObsConfig."""
        return ObsConfig(
            enabled=self.enable_tracing,
            max_decision_records=self.obs_max_decision_records,
        )


class Planner:
    """Builds, optimizes, and selects operator DAGs for queries."""

    def __init__(
        self,
        zoo: ModelZoo,
        config: Optional[PlannerConfig] = None,
        index_store: Optional[Any] = None,
    ) -> None:
        self.zoo = zoo
        self.config = config or PlannerConfig()
        #: The session's persistent video index, when enabled: the cost
        #: model substitutes a video's *observed* tracker-stable fraction
        #: for the configured ``stride_stable_fraction`` prior.
        self._index_store = index_store
        #: query name -> CandidateReport list for the last planned batch
        #: (estimated/profiled costs and the chosen variant), consumed by
        #: ``QueryResult.explain()``.  Populated on every :meth:`plan` exit
        #: path, including cache hits and unprofiled single-candidate plans.
        self.last_candidate_reports: Dict[str, List] = {}
        #: (analysis key, video name, batch signature) -> chosen variant.
        self._variant_cache: Dict[Tuple, str] = {}
        #: filter model name -> number of queries in the current batch whose
        #: VObjs register it (set by :meth:`begin_batch`).  The scan gate
        #: evaluates a hoisted filter once per frame for the whole batch, so
        #: a model registered by k queries costs each plan 1/k of a solo run.
        self._batch_filter_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------- batch --
    def begin_batch(self, queries: Sequence[Query]) -> None:
        """Tell the cost model which queries will share the next scan.

        Counts how many queries in the batch register each frame-filter
        model; :meth:`_profile_and_select` uses the multiplicity to price a
        hoisted filter once per batch instead of once per plan.  Temporal
        compositions are unwrapped to the plannable sub-queries the executor
        actually compiles.
        """
        counts: Dict[str, int] = {}

        def visit(query: Query) -> None:
            first = getattr(query, "first", None)
            second = getattr(query, "second", None)
            if first is not None and second is not None:
                visit(first)
                visit(second)
                return
            try:
                analysis = analyze_query(query)
            except ReproError:  # pragma: no cover - defensive
                # An unanalyzable query only skews filter multiplicities
                # here; planning it will raise the real error later.
                return
            seen: set = set()
            for info in analysis.variables:
                for spec in info.vobj_type.registered_filters():
                    if spec.model and spec.model in self.zoo and spec.model not in seen:
                        seen.add(spec.model)
                        counts[spec.model] = counts.get(spec.model, 0) + 1

        for query in queries:
            visit(query)
        self._batch_filter_counts = counts
        self.last_candidate_reports = {}

    # ------------------------------------------------------------------ costs --
    def _model_cost(self, model_name: Optional[str]) -> float:
        """Rough per-invocation cost of a library model (for ordering filters).

        Batch-level sharing of hoisted frame filters is priced at selection
        time (:meth:`_gate_shared_filter_ms`), not here: conjunct ordering
        inside one plan is unaffected by what other queries share.
        """
        if not model_name or model_name not in self.zoo:
            return 0.05
        try:
            model = self.zoo.get(model_name)
        except ReproError:  # pragma: no cover - defensive
            return 1.0
        profile = getattr(model, "cost_profile", None)
        if profile is None:
            return 1.0
        return profile.cost(1)

    def _property_cost(self, vobj_type: type, prop: str) -> float:
        spec = vobj_type.property_spec(prop)
        if spec is None:  # builtin
            return 0.0
        base = self._model_cost(spec.model) if spec.is_model_backed else 0.05
        # Stateful properties imply per-frame recomputation of dependencies.
        deps = sum(self._property_cost(vobj_type, d) for d in spec.inputs if d != prop)
        return base + deps

    def _conjunct_cost(self, info: VariableInfo, conjunct: Predicate) -> float:
        props = conjunct.required_properties().get(info.variable, set())
        return sum(self._property_cost(info.vobj_type, p) for p in props) or 0.01

    # -------------------------------------------------------------- branch build --
    @staticmethod
    def _conjunct_covered(conjunct: Predicate, variable: VObj, attribute: str, value: object) -> bool:
        """True when the conjunct is exactly ``variable.attribute == value``."""
        if not isinstance(conjunct, Comparison) or conjunct.op_name != "==":
            return False
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Literal) and isinstance(right, PropertyRef):
            left, right = right, left
        return (
            isinstance(left, PropertyRef)
            and isinstance(right, Literal)
            and left.variable is variable
            and left.property_name == attribute
            and right.value == value
        )

    def _build_branch(
        self,
        info: VariableInfo,
        detector_model: str,
        covered: Optional[Tuple[str, object]] = None,
    ) -> List[Operator]:
        """Operators for one variable: detect, track, project/filter interleaved."""
        cfg = self.config
        needs_tracker = info.requires_tracking or (cfg.enable_reuse and bool(info.intrinsic_properties))
        tracked = needs_tracker and not info.is_scene
        ops: List[Operator] = [DetectorOp(info.variable, detector_model, tracked=tracked)]
        if tracked:
            ops.append(TrackerOp(info.variable, info.tracker_model, detector_model))

        conjuncts = list(info.conjuncts)
        if covered is not None:
            attribute, value = covered
            conjuncts = [c for c in conjuncts if not self._conjunct_covered(c, info.variable, attribute, value)]

        projected: set = set()

        def projector_for(props: Sequence[str]) -> Optional[ProjectorOp]:
            declared = [
                p
                for p in info.vobj_type.dependency_order(list(props))
                if p not in projected and info.vobj_type.property_spec(p) is not None
            ]
            if not declared:
                return None
            projected.update(declared)
            return ProjectorOp(info.variable, declared)

        if cfg.enable_lazy:
            # Predicate pull-up: evaluate the cheapest predicates first so
            # expensive properties are only computed for surviving objects.
            for conjunct in sorted(conjuncts, key=lambda c: self._conjunct_cost(info, c)):
                props = conjunct.required_properties().get(info.variable, set())
                projector = projector_for(sorted(props))
                if projector is not None:
                    ops.append(projector)
                ops.append(VObjFilterOp(info.variable, conjunct))
            remaining = projector_for(info.needed_properties)
            if remaining is not None:
                ops.append(remaining)
        else:
            # Unoptimized ordering: compute every needed property for every
            # object, then filter at the end (the CVIP-style behaviour).
            projector = projector_for(info.needed_properties)
            if projector is not None:
                ops.append(projector)
            if conjuncts:
                ops.append(VObjFilterOp(info.variable, conjunction(conjuncts)))

        if cfg.enable_fusion:
            ops = self._fuse(ops)
        return ops

    @staticmethod
    def _fuse(ops: List[Operator]) -> List[Operator]:
        """Merge adjacent projector/object-filter runs into FusedOps."""
        fused: List[Operator] = []
        run: List[Operator] = []
        for op in ops:
            if op.kind in ("projector", "object_filter"):
                run.append(op)
                continue
            if run:
                fused.append(run[0] if len(run) == 1 else FusedOp(run))
                run = []
            fused.append(op)
        if run:
            fused.append(run[0] if len(run) == 1 else FusedOp(run))
        return fused

    # ------------------------------------------------------------ plan variants --
    def _registered_frame_filters(self, analysis: QueryAnalysis) -> List[Operator]:
        """One FrameFilterOp per distinct registered filter model.

        Two variables registering the same filter (e.g. both are RedCars)
        yield a single operator: the scan scheduler's gate memoises per
        (frame, model) anyway, and duplicate ops would only re-drop an
        already-dropped frame.
        """
        ops: List[Operator] = []
        seen: set = set()
        for info in analysis.variables:
            for spec in info.vobj_type.registered_filters():
                if spec.model and spec.model in self.zoo and spec.model not in seen:
                    seen.add(spec.model)
                    ops.append(FrameFilterOp(spec.name, spec.model))
        return ops

    def _post_join_ops(self, analysis: QueryAnalysis) -> List[Operator]:
        ops: List[Operator] = []
        for rel_info in analysis.relations:
            ops.append(RelationProjectorOp(rel_info.relation, rel_info.needed_properties))
            if rel_info.conjuncts:
                ops.append(RelationFilterOp(rel_info.relation, conjunction(rel_info.conjuncts)))
        return ops

    def _build_plan(
        self,
        analysis: QueryAnalysis,
        variant: str,
        with_filters: bool,
        specialized: Optional[Dict[int, Tuple[str, str, object]]] = None,
    ) -> QueryPlan:
        """Assemble a full plan.  ``specialized`` maps id(variable) ->
        (model_name, covered_attribute, covered_value)."""
        specialized = specialized or {}
        branches: Dict[str, List[Operator]] = {}
        notes: List[str] = []
        for info in analysis.variables:
            override = specialized.get(id(info.variable))
            if override is not None:
                model_name, attr, value = override
                branches[info.var_name] = self._build_branch(info, model_name, covered=(attr, value))
                notes.append(f"specialized detector {model_name!r} for {info.var_name}")
            else:
                branches[info.var_name] = self._build_branch(info, info.detector_model)
        frame_filters = self._registered_frame_filters(analysis) if with_filters else []
        if frame_filters:
            notes.append("registered frame filters: " + ", ".join(op.name for op in frame_filters))
            if self.config.enable_scan_gating:
                notes.append("frame filters hoisted to the scan scheduler's batch gate")
        if self.config.enable_lazy:
            notes.append("predicate pull-up")
        if self.config.enable_fusion:
            notes.append("operator fusion")
        return QueryPlan(
            query_name=analysis.query.query_name,
            analysis=analysis,
            frame_filters=frame_filters,
            branches=branches,
            post_join=self._post_join_ops(analysis),
            variant=variant,
            notes=notes,
        )

    def candidate_plans(self, analysis: QueryAnalysis) -> List[QueryPlan]:
        """All candidate DAGs the planner will consider for this query."""
        cfg = self.config
        candidates = [self._build_plan(analysis, "base", with_filters=cfg.use_registered_filters)]
        if cfg.use_registered_filters and self._registered_frame_filters(analysis):
            candidates.append(self._build_plan(analysis, "no_frame_filters", with_filters=False))
        if cfg.consider_specialized:
            for info in analysis.variables:
                for model_name in getattr(info.vobj_type, "specialized_models", ()):  # §4.4
                    if model_name not in self.zoo:
                        continue
                    meta = self.zoo.metadata(model_name)
                    target = meta.get("specialized_for", {})
                    covered_attr, covered_value = None, None
                    for attr, value in target.items():
                        if attr != "class":
                            covered_attr, covered_value = attr, value
                    candidates.append(
                        self._build_plan(
                            analysis,
                            f"specialized:{model_name}",
                            with_filters=cfg.use_registered_filters,
                            specialized={id(info.variable): (model_name, covered_attr, covered_value)},
                        )
                    )
        return candidates

    # ------------------------------------------------------------- plan selection --
    def plan(self, query: Query, video=None, obs: Obs = DISABLED) -> QueryPlan:
        """Plan a basic or spatial query, profiling candidates when possible."""
        with obs.tracer.span("plan", query=query.query_name):
            return self._plan(query, video, obs)

    def _plan(self, query: Query, video, obs: Obs) -> QueryPlan:
        analysis = analyze_query(query)
        candidates = self.candidate_plans(analysis)
        if len(candidates) == 1 or not self.config.profile_plans or video is None:
            self._record_candidates(analysis.query.query_name, candidates)
            return candidates[0]

        # Gate-aware pricing makes selection batch-dependent: the same query
        # can legitimately choose different variants with and without batch
        # mates sharing its filters, so the batch's filter multiplicities are
        # part of the cache identity.
        batch_signature: Tuple = ()
        if self.config.enable_scan_gating:
            batch_signature = tuple(sorted(self._batch_filter_counts.items()))
        # Keyed on the query's structure, not its class: two instances of one
        # class with different thresholds plan differently, and unrelated
        # classes sharing a name must not share a variant.
        cache_key = (analysis_key(analysis), video.spec.name, batch_signature)
        if cache_key in self._variant_cache:
            wanted = self._variant_cache[cache_key]
            for candidate in candidates:
                if candidate.variant == wanted:
                    self._record_candidates(analysis.query.query_name, candidates)
                    return candidate

        chosen = self._profile_and_select(candidates, video, obs=obs)
        self._variant_cache[cache_key] = chosen.variant
        self._record_candidates(analysis.query.query_name, candidates)
        return chosen

    def _record_candidates(self, query_name: str, candidates: List[QueryPlan]) -> None:
        """Snapshot candidate costs for ``explain()`` (cheap; always on)."""
        from repro.obs.explain import CandidateReport

        self.last_candidate_reports[query_name] = [
            CandidateReport(
                variant=c.variant,
                estimated_cost_ms=c.estimated_cost_ms,
                profiled_cost_ms=c.profiled_cost_ms,
                estimated_f1=c.estimated_f1,
            )
            for c in candidates
        ]

    def _gate_shared_filter_ms(self, candidate: QueryPlan, breakdown: Dict[str, float]) -> float:
        """Measured filter ms the batch gate amortises away for this plan.

        With scan gating on, a frame filter registered by ``k`` queries in
        the batch is evaluated once per frame for all of them; the canary
        profile charged this candidate the full solo cost, so ``(1 - 1/k)``
        of the measured filter time is not marginal cost of choosing it.
        """
        if not self.config.enable_scan_gating:
            return 0.0
        shared = 0.0
        for op in candidate.frame_filters:
            k = self._batch_filter_counts.get(op.model_name, 1)
            if k > 1:
                shared += breakdown.get(op.model_name, 0.0) * (1.0 - 1.0 / k)
        return shared

    def _stride_detector_discount_ms(
        self, candidate: QueryPlan, breakdown: Dict[str, float], video: Any = None
    ) -> float:
        """Expected detector ms that stride sampling will skip for this plan.

        Only fully tracked plans can be stride-sampled (skipped frames are
        filled by track interpolation); for them the expected detector rate
        is ``(1 - s) + s / max_stride`` where ``s`` is the tracker-
        predictable fraction of the workload — the video's *observed*
        stable fraction when the persistent index has one, the configured
        prior otherwise.
        """
        cfg = self.config
        if not cfg.enable_stride_sampling:
            return 0.0
        if candidate.tracked_detector_pairs() is None:
            return 0.0
        detector_ms = sum(breakdown.get(name, 0.0) for name in candidate.detector_models())
        fraction = cfg.stride_stable_fraction
        observed = self._observed_stable_fraction(video)
        if observed is not None:
            fraction = observed
        saved_fraction = fraction * (1.0 - 1.0 / max(cfg.max_stride, 1))
        return detector_ms * saved_fraction

    def _observed_stable_fraction(self, video: Any) -> Optional[float]:
        """The video's indexed stable fraction, when one is trustworthy.

        None — keep the configured prior — unless the persistent index is
        enabled, opted into observed statistics, and a stride-sampling scan
        already measured at least ``stats_min_frames`` frames of this video.
        """
        if video is None or self._index_store is None:
            return None
        index_cfg = self.config.index_config
        if not (self.config.enable_video_index and index_cfg.use_observed_stats):
            return None
        from repro.index.schema import video_key

        return self._index_store.observed_stable_fraction(
            video_key(video), min_frames=index_cfg.stats_min_frames
        )

    def _profile_and_select(self, candidates: List[QueryPlan], video, obs: Obs = DISABLED) -> QueryPlan:
        """Profile candidates on the canary clip and pick the cheapest accurate one.

        Measured canary cost lands in ``profiled_cost_ms``; the selection
        cost ``estimated_cost_ms`` additionally subtracts what the scan
        scheduler will not actually pay — batch-shared hoisted frame filters
        and stride-sampled detector invocations — so candidate ranking
        reflects gating and sampling instead of pricing every plan as if it
        executed alone.
        """
        from repro.backend.executor import Executor
        from repro.backend.runtime import ExecutionContext
        from repro.metrics.accuracy import f1_score_sets

        canary = video.canary(self.config.canary_frames)

        # Profile the *unsampled* cost: the canary run must not itself stride-
        # sample, or the analytic sampling discount below would double-count.
        # Fault injection is also disabled: candidate selection must be
        # driven by the plans' intrinsic costs, not by which canary frames a
        # fault schedule happened to hit.
        profiling_config = replace(
            self.config, enable_stride_sampling=False, enable_fault_tolerance=False
        )

        def run(candidate: QueryPlan):
            ctx = ExecutionContext(canary, self.zoo, reuse_enabled=self.config.enable_reuse)
            with obs.tracer.span("profile", clock=ctx.clock, variant=candidate.variant):
                result = Executor(profiling_config).execute_plan(candidate, canary, ctx)
            breakdown = dict(ctx.clock.by_account)
            candidate.profiled_cost_ms = ctx.clock.elapsed_ms
            discount = self._gate_shared_filter_ms(candidate, breakdown)
            discount += self._stride_detector_discount_ms(candidate, breakdown, video)
            candidate.estimated_cost_ms = ctx.clock.elapsed_ms - discount
            if discount > 0:
                candidate.notes.append(
                    f"gate/stride-aware cost model: -{discount:.1f}ms shared/sampled"
                )
            return set(result.matched_frames)

        # The most general candidate (general detectors, no frame filters)
        # provides the reference labels the other candidates are scored
        # against (§4.3).
        reference = next((c for c in candidates if c.variant == "no_frame_filters"), candidates[0])
        reference_frames = run(reference)
        reference.estimated_f1 = 1.0
        profiled: List[QueryPlan] = [reference]
        for candidate in candidates:
            if candidate is reference:
                continue
            matched = run(candidate)
            candidate.estimated_f1 = f1_score_sets(matched, reference_frames, universe=canary.num_frames)
            profiled.append(candidate)

        target = self.config.accuracy()
        acceptable = [p for p in profiled if target.accepts(p.estimated_f1 or 0.0)]
        pool = acceptable or profiled[:1]
        return min(pool, key=lambda p: p.estimated_cost_ms or float("inf"))
