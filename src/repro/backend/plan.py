"""Query plans: the operator DAG produced by the planner.

A :class:`QueryPlan` keeps the pipeline's structure explicit — the shared
frame-filter prefix, one branch of operators per VObj variable (these could
run in parallel, paper §4.1), and the post-join stage (relation projection,
relation filters).  ``describe()`` renders the DAG in the style of Figure 9,
and ``to_networkx()`` exposes it as a graph for tests and tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.backend.analysis import QueryAnalysis
from repro.backend.operators import DetectorOp, JoinOp, Operator, TrackerOp
from repro.frontend.expr import Predicate, ValueExpr
from repro.frontend.query import Aggregate
from repro.frontend.relation import Relation
from repro.frontend.vobj import Scene, VObj

#: Types whose values :func:`structural` compares by value.
_LITERAL_TYPES = (type(None), bool, int, str, bytes)


class _Identity:
    """Wraps an object so that it hashes and compares by identity only."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def __eq__(self, other: object) -> bool:
        return type(other) is _Identity and other.obj is self.obj

    def __hash__(self) -> int:
        return id(self.obj)


def structural(value: Any) -> Any:
    """A hashable stand-in for ``value`` that is equal only for equal structure.

    VObj variables map to ``(type, var_name)`` and relations to their type,
    name and endpoints; literals compare by value (and type, so ``1`` and
    ``True`` differ); operators, value expressions, predicates and
    aggregates compare attribute by attribute, skipping private ones (an
    operator's compiled predicate is derived from its public attributes).
    Everything else, callables included, compares by identity, so an
    unknown object never makes two structures equal.  ``repr`` is not used: it drops information (a
    ``PropertyRef`` renders without its VObj type).
    """
    kind = type(value)
    if kind in _LITERAL_TYPES:
        return (kind, value)
    if kind is float:
        return (kind, value.hex())
    if kind is tuple or kind is list:
        return (kind, tuple(structural(item) for item in value))
    if isinstance(value, VObj):
        return (VObj, kind, value.var_name)
    if isinstance(value, Relation):
        return (Relation, kind, value.var_name, structural(value.subject), structural(value.object))
    if isinstance(value, (Operator, ValueExpr, Predicate, Aggregate)):
        return (
            kind,
            tuple(
                (name, structural(attr))
                for name, attr in sorted(vars(value).items())
                if not name.startswith("_")
            ),
        )
    return _Identity(value)


def analysis_key(analysis: QueryAnalysis) -> Tuple:
    """Everything a query fixes that planning and the sink read.

    Two queries with equal keys analyze, plan and match alike: their
    variables (type, name, scene flag), relations, frame and video
    predicates, and frame and video outputs are structurally identical.
    """
    return (
        tuple((info.vobj_type, info.var_name, info.is_scene) for info in analysis.variables),
        tuple(structural(info.relation) for info in analysis.relations),
        structural(analysis.frame_predicate),
        structural(analysis.video_predicate),
        structural(analysis.frame_outputs),
        structural(analysis.video_outputs),
    )


@dataclass
class QueryPlan:
    """An executable operator pipeline for one (basic or spatial) query."""

    query_name: str
    analysis: QueryAnalysis
    frame_filters: List[Operator] = field(default_factory=list)
    branches: Dict[str, List[Operator]] = field(default_factory=dict)
    post_join: List[Operator] = field(default_factory=list)
    variant: str = "base"
    #: Free-form annotations about how the plan was built (optimizations applied).
    notes: List[str] = field(default_factory=list)
    #: Filled by canary profiling.  ``estimated_cost_ms`` is the cost used
    #: for candidate selection (gate/stride-aware discounts applied);
    #: ``profiled_cost_ms`` is the raw measured canary cost.
    estimated_cost_ms: Optional[float] = None
    profiled_cost_ms: Optional[float] = None
    estimated_f1: Optional[float] = None

    # -- execution order ---------------------------------------------------------
    def operators(self) -> List[Operator]:
        """The flattened execution order: filters, branches, join, post-join."""
        ops: List[Operator] = list(self.frame_filters)
        ops.extend(self.pipeline_operators())
        return ops

    def pipeline_operators(self) -> List[Operator]:
        """Execution order *without* the frame-filter prefix.

        The scan scheduler hoists :attr:`frame_filters` into its batch-level
        gate (one evaluation per distinct filter model per frame for the
        whole batch); gated :class:`~repro.backend.streaming.PlanStream`\\ s
        run only this remainder.
        """
        ops: List[Operator] = []
        for branch_ops in self.branches.values():
            ops.extend(branch_ops)
        ops.append(self.join_operator())
        ops.extend(self.post_join)
        return ops

    def join_operator(self) -> JoinOp:
        return JoinOp([info.variable for info in self.analysis.variables if not info.is_scene])

    # -- structure probes (scan scheduler / cost model) ---------------------------
    def detector_models(self) -> frozenset:
        """Names of the detection models this plan invokes per frame."""
        names = set()
        for ops in self.branches.values():
            for op in ops:
                if isinstance(op, DetectorOp) and not isinstance(op.variable, Scene):
                    names.add(op.model_name)
                elif isinstance(op, TrackerOp):
                    names.add(op.detector_name)
        return frozenset(names)

    def tracked_detector_pairs(self) -> Optional[List[Tuple[str, str]]]:
        """The plan's (tracker model, detector model) pairs, or None.

        A plan is *stride-samplable* only when every non-scene branch runs a
        tracker behind its detector: skipped frames are then reconstructible
        by track interpolation.  Returns ``None`` when some branch detects
        without tracking (its objects have no cross-frame identity to
        interpolate), otherwise the distinct pairs in branch order.
        """
        pairs: List[Tuple[str, str]] = []
        for ops in self.branches.values():
            detector = next(
                (
                    op
                    for op in ops
                    if isinstance(op, DetectorOp) and not isinstance(op.variable, Scene)
                ),
                None,
            )
            if detector is None:
                continue
            tracker = next((op for op in ops if isinstance(op, TrackerOp)), None)
            if tracker is None:
                return None
            pair = (tracker.tracker_name, tracker.detector_name)
            if pair not in pairs:
                pairs.append(pair)
        return pairs

    def structural_key(self) -> Tuple:
        """Equal for two plans whose pipeline and sink produce the same
        records on every frame: same variant, structurally identical pipeline
        operators, and the same :func:`analysis_key`."""
        return (self.variant, structural(self.pipeline_operators()), analysis_key(self.analysis))

    def operator_kinds(self) -> List[str]:
        return [op.kind for op in self.operators()]

    # -- inspection ----------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line, Figure-9-style rendering of the DAG."""
        lines = [f"QueryPlan[{self.query_name}] variant={self.variant}"]
        if self.notes:
            lines.append("  notes: " + "; ".join(self.notes))
        lines.append("  video_reader")
        for op in self.frame_filters:
            lines.append(f"    -> {op.describe()}")
        for var_name, ops in self.branches.items():
            lines.append(f"  branch [{var_name}]:")
            for op in ops:
                lines.append(f"    -> {op.describe()}")
        lines.append(f"  {self.join_operator().describe()}")
        for op in self.post_join:
            lines.append(f"    -> {op.describe()}")
        lines.append("  -> sink (bindings, residual predicates, outputs)")
        return "\n".join(lines)

    def to_networkx(self) -> nx.DiGraph:
        """The DAG as a networkx graph (nodes are operator descriptions)."""
        graph = nx.DiGraph()
        graph.add_node("video_reader", kind="video_reader")
        prev = "video_reader"
        for op in self.frame_filters:
            graph.add_node(op.describe(), kind=op.kind)
            graph.add_edge(prev, op.describe())
            prev = op.describe()
        fan_out = prev
        join = self.join_operator().describe()
        graph.add_node(join, kind="join")
        for var_name, ops in self.branches.items():
            branch_prev = fan_out
            for op in ops:
                node = op.describe()
                graph.add_node(node, kind=op.kind, branch=var_name)
                graph.add_edge(branch_prev, node)
                branch_prev = node
            graph.add_edge(branch_prev, join)
        prev = join
        for op in self.post_join:
            graph.add_node(op.describe(), kind=op.kind)
            graph.add_edge(prev, op.describe())
            prev = op.describe()
        graph.add_node("sink", kind="sink")
        graph.add_edge(prev, "sink")
        return graph

    def count_kind(self, kind: str) -> int:
        return sum(1 for op in self.operators() if op.kind == kind)
