"""Predicate expression AST for VQPy constraints.

When a query's ``frame_constraint`` accesses ``self.car.color``, it does not
read a value — it builds a :class:`PropertyRef` node.  Comparisons on refs
build :class:`Comparison` predicates, and the logical operators ``&``, ``|``
and ``~`` (paper §3, "logical operators to connect the predicates") combine
predicates into an AST that the backend's planner can inspect (which VObj
variables are involved, which properties each predicate needs) and that the
executor evaluates lazily against runtime objects.

Evaluation is three-valued in spirit but collapses to ``False`` whenever a
referenced property is missing (e.g. the object was not detected), which is
the semantics a filter needs.

Each node's semantics live in one place, its ``compile`` method: given the
slot of every query variable (:data:`Slots`), a node lowers itself once
into a closure that reads the variables' runtime states from a tuple by
position.  The engine compiles each predicate and output once per plan and
calls the closures per binding.  :meth:`Predicate.evaluate` and
:meth:`ValueExpr.resolve` evaluate against an ``env`` mapping by compiling
on the spot; they serve tests and tools, not the engine.
"""

from __future__ import annotations

import operator
import re
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.common.errors import QueryDefinitionError


#: What expressions evaluate against: query variable -> runtime accessor,
#: anything with a ``get(property_name)`` method returning the property's
#: current value (or ``None`` when unavailable) — the backend's runtime
#: VObj states implement this.  A plain dict, read as is.
Env = Mapping[Any, Any]

#: Query variable -> its position in the tuple of runtime states a compiled
#: expression reads.  A variable without a slot reads as absent.
Slots = Mapping[Any, int]

#: A compiled value expression: states tuple -> value (may be MISSING).
Resolver = Callable[[Sequence[Any]], Any]

#: A compiled predicate: states tuple -> ``True`` or ``False``.
Test = Callable[[Sequence[Any]], bool]


class _Missing:
    """Sentinel distinguishing "property unavailable" from a None value."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


MISSING = _Missing()


def _env_slots(env: Env) -> Tuple[Dict[Any, int], Tuple[Any, ...]]:
    """The slots and states tuple that stand for an ``env`` mapping."""
    return {var: slot for slot, var in enumerate(env)}, tuple(env.values())


def _always_true(states: Sequence[Any]) -> bool:
    return True


def _always_missing(states: Sequence[Any]) -> Any:
    return MISSING


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


class ValueExpr(ABC):
    """An expression producing a value (not a truth value)."""

    @abstractmethod
    def compile(self, slots: Slots) -> Resolver:
        """This expression as a closure over a states tuple laid out by ``slots``."""

    def resolve(self, env: Env) -> Any:
        """The expression's value under ``env`` (may be :data:`MISSING`)."""
        slots, states = _env_slots(env)
        return self.compile(slots)(states)

    @abstractmethod
    def variables(self) -> Set[Any]:
        """Query variables referenced by the expression."""

    @abstractmethod
    def required_properties(self) -> Dict[Any, Set[str]]:
        """Properties needed per variable to resolve the expression."""

    # -- comparison operators build predicates ---------------------------------
    def _compare(self, op_name: str, op: Callable[[Any, Any], bool], other: Any) -> "Comparison":
        return Comparison(self, op_name, op, _as_value(other))

    def __eq__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return self._compare("==", operator.eq, other)

    def __ne__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return self._compare("!=", operator.ne, other)

    def __gt__(self, other: Any) -> "Comparison":
        return self._compare(">", operator.gt, other)

    def __ge__(self, other: Any) -> "Comparison":
        return self._compare(">=", operator.ge, other)

    def __lt__(self, other: Any) -> "Comparison":
        return self._compare("<", operator.lt, other)

    def __le__(self, other: Any) -> "Comparison":
        return self._compare("<=", operator.le, other)

    __hash__ = None  # type: ignore[assignment]

    # -- convenience predicates --------------------------------------------------
    def in_(self, options: Iterable[Any]) -> "Comparison":
        options = tuple(options)
        return self._compare("in", lambda a, b: a in b, Literal(options))

    def endswith(self, suffix: str) -> "Comparison":
        return self._compare("endswith", lambda a, b: isinstance(a, str) and a.endswith(b), Literal(suffix))

    def startswith(self, prefix: str) -> "Comparison":
        return self._compare("startswith", lambda a, b: isinstance(a, str) and a.startswith(b), Literal(prefix))

    def contains(self, needle: str) -> "Comparison":
        return self._compare("contains", lambda a, b: b in a if a is not None else False, Literal(needle))

    def matches(self, pattern: str) -> "Comparison":
        compiled = re.compile(pattern)
        return self._compare("matches", lambda a, b: bool(compiled.search(a)) if isinstance(a, str) else False, Literal(pattern))

    def is_none(self) -> "Comparison":
        return self._compare("is_none", lambda a, b: a is None, Literal(None))


class Literal(ValueExpr):
    """A constant value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def compile(self, slots: Slots) -> Resolver:
        value = self.value

        def resolve(states: Sequence[Any]) -> Any:
            return value

        return resolve

    def variables(self) -> Set[Any]:
        return set()

    def required_properties(self) -> Dict[Any, Set[str]]:
        return {}

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class PropertyRef(ValueExpr):
    """Reference to one property of one query variable (``self.car.color``)."""

    def __init__(self, variable: Any, property_name: str) -> None:
        self.variable = variable
        self.property_name = property_name

    def compile(self, slots: Slots) -> Resolver:
        slot = slots.get(self.variable)
        if slot is None:
            return _always_missing
        name = self.property_name

        def resolve(states: Sequence[Any]) -> Any:
            accessor = states[slot]
            if accessor is None:
                return MISSING
            value = accessor.get(name)
            return MISSING if value is None else value

        return resolve

    def variables(self) -> Set[Any]:
        return {self.variable}

    def required_properties(self) -> Dict[Any, Set[str]]:
        return {self.variable: {self.property_name}}

    def __repr__(self) -> str:
        var_name = getattr(self.variable, "var_name", None) or getattr(self.variable, "name", "?")
        return f"{var_name}.{self.property_name}"


class DerivedRef(ValueExpr):
    """A value computed from other value expressions via a Python function.

    Built by :func:`compute`; used for relation-style expressions such as
    ``distance(self.car, self.person)`` where the value depends on several
    variables' properties.
    """

    def __init__(self, func: Callable[..., Any], args: Sequence[ValueExpr], label: str = "derived") -> None:
        self.func = func
        self.args = list(args)
        self.label = label

    def compile(self, slots: Slots) -> Resolver:
        args = [a.compile(slots) for a in self.args]
        func = self.func

        def resolve(states: Sequence[Any]) -> Any:
            values = [arg(states) for arg in args]
            if any(v is MISSING for v in values):
                return MISSING
            return func(*values)

        return resolve

    def variables(self) -> Set[Any]:
        out: Set[Any] = set()
        for a in self.args:
            out |= a.variables()
        return out

    def required_properties(self) -> Dict[Any, Set[str]]:
        out: Dict[Any, Set[str]] = {}
        for a in self.args:
            for var, props in a.required_properties().items():
                out.setdefault(var, set()).update(props)
        return out

    def __repr__(self) -> str:
        return f"{self.label}({', '.join(map(repr, self.args))})"


def _as_value(value: Any) -> ValueExpr:
    if isinstance(value, ValueExpr):
        return value
    return Literal(value)


def compute(func: Callable[..., Any], *args: Any, label: Optional[str] = None) -> DerivedRef:
    """Lift a plain Python function over value expressions.

    Example
    -------
    ``compute(lambda a, b: a.center_distance(b), car.bbox, person.bbox) < 100``
    """
    return DerivedRef(func, [_as_value(a) for a in args], label=label or getattr(func, "__name__", "derived"))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate(ABC):
    """A boolean expression over query variables."""

    @abstractmethod
    def compile(self, slots: Slots) -> Test:
        """This predicate as a closure over a states tuple laid out by ``slots``."""

    def evaluate(self, env: Env) -> bool:
        """Truth value under ``env`` (missing properties make it ``False``)."""
        slots, states = _env_slots(env)
        return self.compile(slots)(states)

    @abstractmethod
    def variables(self) -> Set[Any]:
        """Query variables referenced by the predicate."""

    @abstractmethod
    def required_properties(self) -> Dict[Any, Set[str]]:
        """Properties needed per variable to evaluate the predicate."""

    # -- logical connectives -----------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, _check_predicate(other)])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, _check_predicate(other)])

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __bool__(self) -> bool:
        raise QueryDefinitionError(
            "VQPy predicates cannot be used in Python boolean contexts; "
            "combine them with &, | and ~ instead of and/or/not"
        )

    # -- analysis helpers -----------------------------------------------------------
    def conjuncts(self) -> List["Predicate"]:
        """Flatten top-level conjunctions into a list (self if not an And)."""
        return [self]


def _check_predicate(value: Any) -> "Predicate":
    if not isinstance(value, Predicate):
        raise QueryDefinitionError(f"expected a predicate, got {type(value).__name__}: {value!r}")
    return value


class TruePredicate(Predicate):
    """Always true; the neutral element for conjunction."""

    def compile(self, slots: Slots) -> Test:
        return _always_true

    def variables(self) -> Set[Any]:
        return set()

    def required_properties(self) -> Dict[Any, Set[str]]:
        return {}

    def conjuncts(self) -> List[Predicate]:
        return []

    def __repr__(self) -> str:
        return "TRUE"


TRUE = TruePredicate()


class Comparison(Predicate):
    """``left <op> right`` where operands are value expressions."""

    def __init__(self, left: ValueExpr, op_name: str, op: Callable[[Any, Any], bool], right: ValueExpr) -> None:
        self.left = left
        self.op_name = op_name
        self.op = op
        self.right = right

    def compile(self, slots: Slots) -> Test:
        left = self.left.compile(slots)
        right = self.right.compile(slots)
        op = self.op

        def test(states: Sequence[Any]) -> bool:
            # Both sides are read before either is checked, so a missing
            # left side still reads (and charges) the right side's properties.
            lhs = left(states)
            rhs = right(states)
            if lhs is MISSING or rhs is MISSING:
                return False
            try:
                return bool(op(lhs, rhs))
            except TypeError:
                return False

        return test

    def variables(self) -> Set[Any]:
        return self.left.variables() | self.right.variables()

    def required_properties(self) -> Dict[Any, Set[str]]:
        out: Dict[Any, Set[str]] = {}
        for side in (self.left, self.right):
            for var, props in side.required_properties().items():
                out.setdefault(var, set()).update(props)
        return out

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op_name} {self.right!r})"


class FunctionPredicate(Predicate):
    """A predicate computed by an arbitrary Python function over values."""

    def __init__(self, func: Callable[..., bool], args: Sequence[ValueExpr], label: str = "pred") -> None:
        self.func = func
        self.args = list(args)
        self.label = label

    def compile(self, slots: Slots) -> Test:
        args = [a.compile(slots) for a in self.args]
        func = self.func

        def test(states: Sequence[Any]) -> bool:
            values = [arg(states) for arg in args]
            if any(v is MISSING for v in values):
                return False
            return bool(func(*values))

        return test

    def variables(self) -> Set[Any]:
        out: Set[Any] = set()
        for a in self.args:
            out |= a.variables()
        return out

    def required_properties(self) -> Dict[Any, Set[str]]:
        out: Dict[Any, Set[str]] = {}
        for a in self.args:
            for var, props in a.required_properties().items():
                out.setdefault(var, set()).update(props)
        return out

    def __repr__(self) -> str:
        return f"{self.label}({', '.join(map(repr, self.args))})"


def predicate(func: Callable[..., bool], *args: Any, label: Optional[str] = None) -> FunctionPredicate:
    """Lift a boolean Python function over value expressions into a predicate."""
    return FunctionPredicate(func, [_as_value(a) for a in args], label=label or getattr(func, "__name__", "pred"))


class And(Predicate):
    """Conjunction; nested Ands are flattened."""

    def __init__(self, children: Sequence[Predicate]) -> None:
        flat: List[Predicate] = []
        for child in children:
            child = _check_predicate(child)
            if isinstance(child, And):
                flat.extend(child.children)
            elif isinstance(child, TruePredicate):
                continue
            else:
                flat.append(child)
        self.children = flat

    def compile(self, slots: Slots) -> Test:
        tests = [c.compile(slots) for c in self.children]

        def test(states: Sequence[Any]) -> bool:
            for child in tests:
                if not child(states):
                    return False
            return True

        return test

    def variables(self) -> Set[Any]:
        out: Set[Any] = set()
        for c in self.children:
            out |= c.variables()
        return out

    def required_properties(self) -> Dict[Any, Set[str]]:
        out: Dict[Any, Set[str]] = {}
        for c in self.children:
            for var, props in c.required_properties().items():
                out.setdefault(var, set()).update(props)
        return out

    def conjuncts(self) -> List[Predicate]:
        return list(self.children)

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.children)) + ")"


class Or(Predicate):
    """Disjunction; nested Ors are flattened."""

    def __init__(self, children: Sequence[Predicate]) -> None:
        flat: List[Predicate] = []
        for child in children:
            child = _check_predicate(child)
            if isinstance(child, Or):
                flat.extend(child.children)
            else:
                flat.append(child)
        self.children = flat

    def compile(self, slots: Slots) -> Test:
        tests = [c.compile(slots) for c in self.children]

        def test(states: Sequence[Any]) -> bool:
            for child in tests:
                if child(states):
                    return True
            return False

        return test

    def variables(self) -> Set[Any]:
        out: Set[Any] = set()
        for c in self.children:
            out |= c.variables()
        return out

    def required_properties(self) -> Dict[Any, Set[str]]:
        out: Dict[Any, Set[str]] = {}
        for c in self.children:
            for var, props in c.required_properties().items():
                out.setdefault(var, set()).update(props)
        return out

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.children)) + ")"


class Not(Predicate):
    """Negation."""

    def __init__(self, child: Predicate) -> None:
        self.child = _check_predicate(child)

    def compile(self, slots: Slots) -> Test:
        child = self.child.compile(slots)
        return lambda states: not child(states)

    def variables(self) -> Set[Any]:
        return self.child.variables()

    def required_properties(self) -> Dict[Any, Set[str]]:
        return self.child.required_properties()

    def __repr__(self) -> str:
        return f"~{self.child!r}"


# ---------------------------------------------------------------------------
# Analysis helpers used by the planner
# ---------------------------------------------------------------------------


def conjunction(predicates: Iterable[Predicate]) -> Predicate:
    """Combine predicates with AND, returning :data:`TRUE` for an empty list."""
    preds = [p for p in predicates if not isinstance(p, TruePredicate)]
    if not preds:
        return TRUE
    if len(preds) == 1:
        return preds[0]
    return And(preds)


def split_by_variable(pred: Predicate) -> Tuple[Dict[Any, List[Predicate]], List[Predicate]]:
    """Split a predicate's top-level conjuncts into single-variable groups.

    Returns ``(per_variable, multi_variable)``: conjuncts that touch exactly
    one variable keyed by that variable, and the remaining conjuncts (joins /
    relation predicates) in order.  This is the decomposition the planner
    uses for predicate pull-up: single-variable filters can be pushed onto
    that variable's branch of the DAG, multi-variable ones must run after the
    join.
    """
    per_var: Dict[Any, List[Predicate]] = {}
    multi: List[Predicate] = []
    for conj in pred.conjuncts():
        vars_ = conj.variables()
        if len(vars_) == 1:
            per_var.setdefault(next(iter(vars_)), []).append(conj)
        else:
            multi.append(conj)
    return per_var, multi
