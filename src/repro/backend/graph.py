"""The per-frame graph data model (paper §4.1).

The planner and executor exchange *frame graphs*: nodes are VObj
occurrences on one frame, indexed by the query variable they bind.  A
tracked branch builds its nodes from the tracker's output, so a node's
state carries its track id.  Besides the nodes, a graph holds exactly what
the sink reads: the frame's scene states and the relation states that
survived the relation filters, keyed by the (subject, object) node ids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Tuple


@dataclass(eq=False)
class VObjNode:
    """One video object occurrence in the graph."""

    node_id: int
    variable: Any  # the frontend VObj query variable this node binds
    state: Any  # backend VObjState (lazy property accessor)


class FrameGraph:
    """The graph flowing between operators for one frame.

    Nodes are grouped by the query variable they bind so per-variable
    operators (projectors, VObj filters) address their own nodes without
    scanning the whole graph.
    """

    def __init__(self, frame: Any) -> None:
        self.frame = frame
        self._by_variable: Dict[int, List[VObjNode]] = {}
        self._node_counter = itertools.count(1)
        #: True when an upstream frame filter decided to drop this frame.
        self.dropped = False
        #: id(scene variable) -> its SceneState on this frame.
        self.scene_states: Dict[int, Any] = {}
        #: id(relation) -> {(subject node id, object node id) -> RelationState}.
        self.relation_states: Dict[int, Dict[Tuple[int, int], Any]] = {}

    def add_node(self, variable: Any, state: Any) -> VObjNode:
        node = VObjNode(node_id=next(self._node_counter), variable=variable, state=state)
        self._by_variable.setdefault(id(variable), []).append(node)
        return node

    def remove_node(self, node: VObjNode) -> None:
        self._by_variable[id(node.variable)].remove(node)

    def nodes(self, variable: Any) -> List[VObjNode]:
        """The nodes bound to ``variable``, in insertion order."""
        return list(self._by_variable.get(id(variable), ()))

    def bindings(self, variables: Iterable[Any]) -> Iterator[Dict[Any, VObjNode]]:
        """Cartesian product of surviving nodes across the given variables.

        Yields one binding (variable → node) per combination, in the
        order the compiled sink enumerates its candidate matches
        (:meth:`~repro.backend.executor.Executor.compile_sink`).
        """
        variables = list(variables)
        pools = [self.nodes(v) for v in variables]
        if any(not pool for pool in pools):
            return
        for combo in itertools.product(*pools):
            yield dict(zip(variables, combo))
