"""Pipeline operators (paper §4.1).

The backend supports six operator families — video reader, frame filter,
object detector, object tracker, object filter, and projector — plus the
join that merges per-variable branches.  Operators are iterator-style: each
consumes the :class:`~repro.backend.graph.FrameGraph` produced by its
predecessor and returns an updated graph.

Every operator charges a small fixed overhead per processed frame; operator
fusion (§4.3) merges adjacent per-variable operators so the overhead is paid
once per fused group.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Sequence, Tuple

from repro.backend.graph import FrameGraph
from repro.backend.runtime import ExecutionContext
from repro.frontend.expr import Predicate
from repro.frontend.relation import Relation
from repro.frontend.vobj import Scene, VObj
from repro.models.base import Detection

#: Virtual per-frame overhead of running one (unfused) operator.
OPERATOR_OVERHEAD_MS = 0.02


class Operator(ABC):
    """Base class for all pipeline operators."""

    #: Operator family, used in DAG rendering and tests.
    kind: str = "operator"

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        """Transform the frame graph in place and return it."""

    def charge_overhead(self, ctx: ExecutionContext) -> None:
        ctx.clock.charge("operator_overhead", OPERATOR_OVERHEAD_MS)

    def run(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        """Charge overhead then process; skips work on dropped frames."""
        self.charge_overhead(ctx)
        if graph.dropped:
            return graph
        return self.process(graph, ctx)

    def describe(self) -> str:
        return f"{self.kind}:{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Frame-level filters
# ---------------------------------------------------------------------------


class FrameFilterOp(Operator):
    """Drops whole frames using a cheap model (motion / texture / binary classifier)."""

    kind = "frame_filter"

    def __init__(self, name: str, model_name: str) -> None:
        super().__init__(name)
        self.model_name = model_name

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        keep, _ = ctx.frame_filter(self.model_name, graph.frame)
        if not keep:
            graph.dropped = True
        return graph


# ---------------------------------------------------------------------------
# Detection and tracking
# ---------------------------------------------------------------------------


def _add_nodes(
    graph: FrameGraph,
    ctx: ExecutionContext,
    variable: VObj,
    class_names: Tuple[str, ...],
    detections: Sequence[Detection],
) -> None:
    """Add one node per detection of ``variable``'s classes (all if none)."""
    vobj_type = type(variable)
    for det in detections:
        if class_names and det.class_name not in class_names:
            continue
        graph.add_node(variable, ctx.vobj_state(vobj_type, det, graph.frame))


class DetectorOp(Operator):
    """Runs a detection model and adds nodes for one query variable.

    Detection results are cached per (model, frame) in the execution context,
    so several variables backed by the same model share one inference.  On a
    ``tracked`` branch the detector still runs here, so its cost is charged
    at this point of the pipeline, but the :class:`TrackerOp` that follows
    adds the nodes.
    """

    kind = "object_detector"

    def __init__(self, variable: VObj, model_name: str, tracked: bool = False) -> None:
        super().__init__(f"{model_name}[{variable.var_name}]")
        self.variable = variable
        self.model_name = model_name
        self.tracked = tracked
        self.class_names = tuple(type(variable).class_names)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        vobj_type = type(self.variable)
        if issubclass(vobj_type, Scene):
            graph.scene_states[id(self.variable)] = ctx.scene_state(vobj_type, graph.frame)
            return graph
        detections = ctx.detect(self.model_name, graph.frame)
        if not self.tracked:
            _add_nodes(graph, ctx, self.variable, self.class_names, detections)
        return graph


class TrackerOp(Operator):
    """Tracks the frame's detections and adds a variable's nodes from them.

    The nodes' states carry the tracked detections' ids and a per-track
    :class:`~repro.backend.runtime.TrackState`, which stateful properties
    and intrinsic-property reuse need.
    """

    kind = "object_tracker"

    def __init__(self, variable: VObj, tracker_name: str, detector_name: str) -> None:
        super().__init__(f"{tracker_name}[{variable.var_name}]")
        self.variable = variable
        self.tracker_name = tracker_name
        self.detector_name = detector_name
        self.class_names = tuple(type(variable).class_names)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        raw = ctx.detect(self.detector_name, graph.frame)
        tracked = ctx.track(self.tracker_name, self.detector_name, graph.frame, raw)
        _add_nodes(graph, ctx, self.variable, self.class_names, tracked)
        return graph


# ---------------------------------------------------------------------------
# Projection and object-level filtering
# ---------------------------------------------------------------------------


class ProjectorOp(Operator):
    """Computes one or more properties for a variable's surviving nodes."""

    kind = "projector"

    def __init__(self, variable: VObj, properties: Sequence[str]) -> None:
        super().__init__(f"project[{variable.var_name}:{','.join(properties)}]")
        self.variable = variable
        self.properties = tuple(properties)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        for node in graph.nodes(self.variable):
            for prop in self.properties:
                node.state.get(prop)
        return graph


class VObjFilterOp(Operator):
    """Removes a variable's nodes that fail a single-variable predicate.

    The predicate is compiled once, over a one-slot states tuple holding
    the node's state.
    """

    kind = "object_filter"

    def __init__(self, variable: VObj, predicate: Predicate, label: str = "") -> None:
        super().__init__(label or f"filter[{variable.var_name}]")
        self.variable = variable
        self.predicate = predicate
        self._test = predicate.compile({variable: 0})

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        test = self._test
        for node in graph.nodes(self.variable):
            if not test((node.state,)):
                graph.remove_node(node)
        return graph


class FusedOp(Operator):
    """A fused group of per-variable operators, paying one overhead charge.

    Produced by the planner's operator-fusion pass (§4.3); execution order of
    the fused children is preserved.
    """

    kind = "fused"

    def __init__(self, children: Sequence[Operator]) -> None:
        super().__init__("+".join(c.name for c in children))
        self.children = list(children)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        for child in self.children:
            if graph.dropped:
                break
            graph = child.process(graph, ctx)
        return graph


# ---------------------------------------------------------------------------
# Join, relation projection, and relation filtering
# ---------------------------------------------------------------------------


class JoinOp(Operator):
    """Drops frames where any required variable has no surviving objects.

    This is the frame-filtering role the paper assigns to the join in the
    Figure 9 DAG; the actual binding enumeration happens in the sink.
    """

    kind = "join"

    def __init__(self, variables: Sequence[VObj]) -> None:
        super().__init__("join[" + ",".join(v.var_name for v in variables) + "]")
        self.variables = list(variables)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        for variable in self.variables:
            if isinstance(variable, Scene) or issubclass(type(variable), Scene):
                continue
            if not graph.nodes(variable):
                graph.dropped = True
                return graph
        return graph


class RelationProjectorOp(Operator):
    """Builds the relation state of every (subject, object) node pair.

    Each pair's relation properties are evaluated here, in the declared
    order, so their cost is charged at this point of the pipeline; the
    states are kept in ``graph.relation_states`` for the relation filters
    and the sink.
    """

    kind = "relation_projector"

    def __init__(self, relation: Relation, properties: Sequence[str]) -> None:
        super().__init__(f"relate[{relation.var_name}:{','.join(properties) or 'builtin'}]")
        self.relation = relation
        self.properties = tuple(properties)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        rel_type = type(self.relation)
        states = graph.relation_states.setdefault(id(self.relation), {})
        for subj_node in graph.nodes(self.relation.subject):
            for obj_node in graph.nodes(self.relation.object):
                if subj_node.node_id == obj_node.node_id:
                    continue
                rel_state = ctx.relation_state(rel_type, subj_node.state, obj_node.state, graph.frame)
                for prop in self.properties:
                    rel_state.get(prop)
                states[(subj_node.node_id, obj_node.node_id)] = rel_state
        return graph


class RelationFilterOp(Operator):
    """Drops the relation states that fail a predicate.

    The predicate is compiled once, over the states tuple ``(relation
    state, subject state, object state)``.
    """

    kind = "relation_filter"

    def __init__(self, relation: Relation, predicate: Predicate) -> None:
        super().__init__(f"filter[{relation.var_name}]")
        self.relation = relation
        self.predicate = predicate
        slots = {relation: 0, relation.subject: 1, relation.object: 2}
        self._test = predicate.compile(slots)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        states = graph.relation_states.get(id(self.relation), {})
        surviving: Dict[Tuple[int, int], Any] = {}
        test = self._test
        for pair, rel_state in states.items():
            if test((rel_state, rel_state.subject, rel_state.object)):
                surviving[pair] = rel_state
        graph.relation_states[id(self.relation)] = surviving
        return graph
