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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backend.graph import FrameGraph
from repro.backend.runtime import ExecutionContext
from repro.frontend.expr import Environment, Predicate
from repro.frontend.relation import Relation
from repro.frontend.vobj import Scene, VObj

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


class DetectorOp(Operator):
    """Runs a detection model and adds nodes for one query variable.

    Detection results are cached per (model, frame) in the execution context,
    so several variables backed by the same model share one inference.
    """

    kind = "object_detector"

    def __init__(self, variable: VObj, model_name: str) -> None:
        super().__init__(f"{model_name}[{variable.var_name}]")
        self.variable = variable
        self.model_name = model_name
        self.class_names = tuple(type(variable).class_names)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        vobj_type = type(self.variable)
        if issubclass(vobj_type, Scene):
            graph.metadata.setdefault("scene_states", {})[id(self.variable)] = ctx.scene_state(vobj_type, graph.frame)
            return graph
        detections = ctx.detect(self.model_name, graph.frame)
        for det in detections:
            if self.class_names and det.class_name not in self.class_names:
                continue
            state = ctx.vobj_state(vobj_type, det, graph.frame)
            graph.add_node(self.variable, state)
        return graph


class TrackerOp(Operator):
    """Assigns track ids to a variable's detections and rebinds their states.

    Tracking is what makes stateful properties and intrinsic-property reuse
    possible: the rebound states carry a per-track
    :class:`~repro.backend.runtime.TrackState`.
    """

    kind = "object_tracker"

    def __init__(self, variable: VObj, tracker_name: str, detector_name: str) -> None:
        super().__init__(f"{tracker_name}[{variable.var_name}]")
        self.variable = variable
        self.tracker_name = tracker_name
        self.detector_name = detector_name

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        raw = ctx.detect(self.detector_name, graph.frame)
        tracked = ctx.track(self.tracker_name, self.detector_name, graph.frame, raw)
        by_key: Dict[Tuple[Tuple[float, float, float, float], str], Any] = {
            (d.bbox.as_tuple(), d.class_name): d for d in tracked
        }
        vobj_type = type(self.variable)
        for node in graph.nodes(self.variable):
            det = node.state.detection
            tracked_det = by_key.get((det.bbox.as_tuple(), det.class_name))
            if tracked_det is None:
                continue
            node.state = ctx.vobj_state(vobj_type, tracked_det, graph.frame)
            node.properties["track_id"] = tracked_det.track_id
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
                node.properties[prop] = node.state.get(prop)
        return graph


class VObjFilterOp(Operator):
    """Removes a variable's nodes that fail a single-variable predicate."""

    kind = "object_filter"

    def __init__(self, variable: VObj, predicate: Predicate, label: str = "") -> None:
        super().__init__(label or f"filter[{variable.var_name}]")
        self.variable = variable
        self.predicate = predicate

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        for node in list(graph.nodes(self.variable)):
            env = Environment({self.variable: node.state})
            if not self.predicate.evaluate(env):
                graph.remove_node(node.node_id)
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
    """Computes relation properties for every (subject, object) node pair.

    Adds a ``spatial`` edge per pair carrying the computed properties, and
    stores the relation states in the graph metadata for the sink to reuse.
    """

    kind = "relation_projector"

    def __init__(self, relation: Relation, properties: Sequence[str]) -> None:
        super().__init__(f"relate[{relation.var_name}:{','.join(properties) or 'builtin'}]")
        self.relation = relation
        self.properties = tuple(properties)

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        rel_type = type(self.relation)
        states: Dict[Tuple[int, int], Any] = graph.metadata.setdefault("relation_states", {}).setdefault(id(self.relation), {})
        for subj_node in graph.nodes(self.relation.subject):
            for obj_node in graph.nodes(self.relation.object):
                if subj_node.node_id == obj_node.node_id:
                    continue
                rel_state = ctx.relation_state(rel_type, subj_node.state, obj_node.state, graph.frame)
                props = {p: rel_state.get(p) for p in self.properties}
                states[(subj_node.node_id, obj_node.node_id)] = rel_state
                graph.add_edge("spatial", subj_node, obj_node, relation=rel_type.__name__, **props)
        return graph


class RelationFilterOp(Operator):
    """Removes spatial edges (and the relation states) failing a predicate."""

    kind = "relation_filter"

    def __init__(self, relation: Relation, predicate: Predicate) -> None:
        super().__init__(f"filter[{relation.var_name}]")
        self.relation = relation
        self.predicate = predicate

    def process(self, graph: FrameGraph, ctx: ExecutionContext) -> FrameGraph:
        states: Dict[Tuple[int, int], Any] = graph.metadata.get("relation_states", {}).get(id(self.relation), {})
        surviving: Dict[Tuple[int, int], Any] = {}
        for (src, dst), rel_state in states.items():
            env = Environment(
                {
                    self.relation: rel_state,
                    self.relation.subject: rel_state.subject,
                    self.relation.object: rel_state.object,
                }
            )
            if self.predicate.evaluate(env):
                surviving[(src, dst)] = rel_state
        graph.metadata.setdefault("relation_states", {})[id(self.relation)] = surviving
        graph.remove_edges("spatial", lambda e: (e.src, e.dst) not in surviving and e.properties.get("relation") == type(self.relation).__name__)
        return graph
