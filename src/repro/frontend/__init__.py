"""VQPy frontend: the video-object-oriented DSL.

The public constructs mirror the paper's §3: :class:`VObj`, :class:`Relation`
and :class:`Query` plus the property annotations (``@stateless`` /
``@stateful``), the higher-order queries (:class:`DurationQuery`,
:class:`SpatialQuery`, :class:`TemporalQuery`), and the optimization
registration hooks (``register_model``, ``@vobj_filter``, ``@frame_filter``).
"""

from repro.frontend.expr import (
    Predicate,
    PropertyRef,
    TRUE,
    ValueExpr,
    compute,
    conjunction,
    predicate,
    split_by_variable,
)
from repro.frontend.properties import (
    BUILTIN_PROPERTIES,
    FilterSpec,
    PropertySpec,
    frame_filter,
    stateful,
    stateless,
    vobj_filter,
)
from repro.frontend.vobj import Scene, VObj
from repro.frontend.relation import Relation, RELATION_BUILTIN_PROPERTIES
from repro.frontend.query import (
    Aggregate,
    Query,
    average_per_frame,
    collect,
    count_distinct,
    max_per_frame,
)
from repro.frontend.higher_order import (
    CollisionQuery,
    DurationQuery,
    SequentialQuery,
    SpatialQuery,
    SpeedQuery,
    TemporalQuery,
)
from repro.frontend.registry import get_library_zoo, register_model, reset_library_zoo
from repro.frontend import builtin

__all__ = [
    "Predicate",
    "PropertyRef",
    "TRUE",
    "ValueExpr",
    "compute",
    "conjunction",
    "predicate",
    "split_by_variable",
    "BUILTIN_PROPERTIES",
    "RELATION_BUILTIN_PROPERTIES",
    "FilterSpec",
    "PropertySpec",
    "frame_filter",
    "stateful",
    "stateless",
    "vobj_filter",
    "Scene",
    "VObj",
    "Relation",
    "Aggregate",
    "Query",
    "average_per_frame",
    "collect",
    "count_distinct",
    "max_per_frame",
    "CollisionQuery",
    "DurationQuery",
    "SequentialQuery",
    "SpatialQuery",
    "SpeedQuery",
    "TemporalQuery",
    "get_library_zoo",
    "register_model",
    "reset_library_zoo",
    "builtin",
]
