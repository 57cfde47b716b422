"""Compiled predicates and the compiled sink against the interpretive semantics.

Every expression node compiles itself into a closure over a slot-indexed
tuple of runtime states; the engine evaluates only those closures.  These
tests keep a small tree-walking interpreter of the expression semantics as
the reference: a compiled node must return what the interpreter returns
and read the same properties in the same order, and a whole scan whose
sink and filters interpret their trees must produce the same matches and
the same virtual clock as the compiled engine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.executor import Executor
from repro.backend.operators import RelationFilterOp, VObjFilterOp
from repro.backend.planner import PlannerConfig
from repro.backend.results import MatchRecord
from repro.backend.session import QuerySession
from repro.frontend.builtin import Car, CloseTo, Person, TrafficScene
from repro.frontend.expr import (
    And,
    Comparison,
    DerivedRef,
    FunctionPredicate,
    Literal,
    MISSING,
    Not,
    Or,
    PropertyRef,
    TruePredicate,
    compute,
    predicate,
)
from repro.frontend.query import Query, collect, count_distinct
from repro.videosim.datasets import camera_clip


def interpret(node, env):
    """The expression semantics, walked over the tree against ``env``."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, PropertyRef):
        accessor = env.get(node.variable)
        if accessor is None:
            return MISSING
        value = accessor.get(node.property_name)
        return MISSING if value is None else value
    if isinstance(node, DerivedRef):
        values = [interpret(arg, env) for arg in node.args]
        return MISSING if any(v is MISSING for v in values) else node.func(*values)
    if isinstance(node, TruePredicate):
        return True
    if isinstance(node, Comparison):
        lhs, rhs = interpret(node.left, env), interpret(node.right, env)
        if lhs is MISSING or rhs is MISSING:
            return False
        try:
            return bool(node.op(lhs, rhs))
        except TypeError:
            return False
    if isinstance(node, FunctionPredicate):
        values = [interpret(arg, env) for arg in node.args]
        return False if any(v is MISSING for v in values) else bool(node.func(*values))
    if isinstance(node, And):
        return all(interpret(child, env) for child in node.children)
    if isinstance(node, Or):
        return any(interpret(child, env) for child in node.children)
    if isinstance(node, Not):
        return not interpret(node.child, env)
    raise TypeError(node)


class LoggingState:
    """A runtime state whose reads land in a shared log."""

    def __init__(self, label, values, log):
        self.label, self.values, self.log = label, values, log

    def get(self, name):
        self.log.append((self.label, name))
        return self.values.get(name)


CAR, PERSON, OTHER = Car("car"), Person("person"), Car("other")

NODES = {
    "eq": CAR.color == "red",
    "gt_literal": CAR.score > 0.5,
    "gt_ref": CAR.score > PERSON.score,
    "type_error": CAR.color > 0.5,
    "absent_variable": OTHER.score > 0.1,
    "is_none": CAR.color.is_none(),
    "in": CAR.color.in_(["red", "blue"]),
    "and2": (CAR.color == "red") & (PERSON.score > 0.5),
    "and3": (CAR.color == "red") & (CAR.score > 0.5) & (PropertyRef(PERSON, "color") != "red"),
    "or": (CAR.color == "red") | (PERSON.score < 0.5) | (CAR.score >= 0.9),
    "not": ~((CAR.color == "red") | (PERSON.score > 0.5)),
    "function": predicate(lambda a, b: a > b, CAR.score, PERSON.score, label="beats"),
    "derived": compute(lambda a, b: a - b, CAR.score, PERSON.score) > 0.1,
    "derived_type_error": compute(lambda a, b: a + b, CAR.color, PERSON.score) > 1,
    "nested": ~(CAR.score > 0.5) | (compute(lambda c: c.upper(), CAR.color) == "RED"),
}

VALUES = st.one_of(
    st.none(), st.sampled_from([0.2, 0.5, 0.9, 1, "red", "blue", "", 3]),
)
STATE = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={"color": VALUES, "score": VALUES}),
)


def outcome(thunk):
    """A call's result with its type, or the type of what it raised: a
    function that raises (other than a comparison's TypeError) propagates."""
    try:
        value = thunk()
    except Exception as exc:
        return ("raised", type(exc))
    return ("returned", type(value), value)


class TestCompiledNodes:
    @settings(max_examples=150, deadline=None)
    @given(car=STATE, person=STATE, name=st.sampled_from(sorted(NODES)))
    def test_compiled_node_matches_the_interpreter(self, car, person, name):
        node = NODES[name]
        states = {}
        # A None draw leaves the variable out of the env (absent accessor).
        for var, values in ((CAR, car), (PERSON, person)):
            if values is not None:
                states[var] = values

        def env(log):
            return {var: LoggingState(var.var_name, values, log) for var, values in states.items()}

        # Compile over a layout with the variables in another order and an
        # unrelated slot first, as the sink's layouts do.
        def compiled(env):
            order = [None] + list(reversed(list(env)))
            slots = {var: slot for slot, var in enumerate(order) if var is not None}
            return node.compile(slots)(tuple(None if var is None else env[var] for var in order))

        def wrapper(env):
            # The env wrapper (evaluate / resolve) is the same compiled form.
            return node.evaluate(env) if hasattr(node, "evaluate") else node.resolve(env)

        want_log = []
        want = outcome(lambda: interpret(node, env(want_log)))
        for run in (compiled, wrapper):
            log = []
            assert outcome(lambda: run(env(log))) == want
            assert log == want_log

    def test_missing_and_none_properties_read_false(self):
        log = []
        env = {CAR: LoggingState("car", {"color": None}, log)}
        assert (CAR.color == "red").evaluate(env) is False
        assert (CAR.score > 0.5).evaluate(env) is False
        assert (CAR.color == "red").evaluate({}) is False
        assert (~(CAR.color == "red")).evaluate(env) is True

    def test_values_resolve_missing_like_the_interpreter(self):
        env = {CAR: LoggingState("car", {"score": 0.7}, [])}
        derived = compute(lambda a, b: a + b, CAR.score, PERSON.score)
        assert derived.resolve(env) is MISSING is interpret(derived, env)
        assert CAR.color.resolve(env) is MISSING
        assert CAR.score.resolve(env) == 0.7
        assert Literal(4).resolve({}) == 4

    def test_comparison_reads_the_right_side_even_when_the_left_is_missing(self):
        log = []
        env = {CAR: LoggingState("car", {}, log), PERSON: LoggingState("person", {"score": 1}, log)}
        assert (CAR.score > PERSON.score).evaluate(env) is False
        assert log == [("car", "score"), ("person", "score")]


# ---------------------------------------------------------------------------
# A relation query with a scene variable, end to end
# ---------------------------------------------------------------------------


class CloseCarsQuery(Query):
    """Person/car pairs near each other, with scene, relation and both
    single-variable filters and residual multi-variable constraints."""

    def __init__(self):
        self.person = Person("person")
        self.car = Car("car")
        self.close = CloseTo(self.person, self.car, "close")
        self.scene = TrafficScene("scene")

    def frame_constraint(self):
        return (
            (self.car.score > 0.3)
            & (self.close.distance < 600)
            & ~(self.scene.weather == "hail")
            & (
                (self.close.is_close == True)  # noqa: E712
                | predicate(lambda color, tod: color == "gray" or tod != "day", self.car.color, self.scene.time_of_day)
            )
        )

    def frame_output(self):
        return (
            self.car.track_id,
            self.close.distance,
            self.scene.time_of_day,
            compute(lambda d, s: round(d * s, 3), self.close.distance, self.person.score),
        )


class CountedCarsQuery(Query):
    """An aggregating query: both a frame and a video constraint."""

    def __init__(self):
        self.car = Car("car")
        self.scene = TrafficScene("scene")

    def frame_constraint(self):
        return (self.car.score > 0.5) & (self.scene.frame_id >= 0)

    def video_constraint(self):
        return self.car.color.in_(["gray", "white"])

    def video_output(self):
        # The clip's scenes carry no location: every collected value is None.
        return (count_distinct(self.car.track_id), collect(self.scene.location, label="locations"))


def interpretive_sink(analysis):
    """The sink as a tree walker: the reference for ``Executor.compile_sink``."""

    def identity(node):
        track_id = node.state.get("track_id")
        return track_id if track_id is not None else f"@{node.node_id}"

    def value(expr, env):
        resolved = interpret(expr, env)
        return None if resolved is MISSING else resolved

    def sink(graph, ctx, result):
        if graph.dropped:
            return
        frame = graph.frame
        vobj_vars = [info.variable for info in analysis.variables if not info.is_scene]
        scenes = {
            info.variable: graph.scene_states.get(id(info.variable))
            or ctx.scene_state(type(info.variable), frame)
            for info in analysis.variables
            if info.is_scene
        }
        records = []
        for binding in graph.bindings(vobj_vars):
            env = dict(scenes)
            env.update((var, node.state) for var, node in binding.items())
            missing = False
            for info in analysis.relations:
                rel = info.relation
                subject, object_ = binding.get(rel.subject), binding.get(rel.object)
                pairs = graph.relation_states.get(id(rel), {})
                rel_state = None if subject is None or object_ is None else pairs.get((subject.node_id, object_.node_id))
                if rel_state is None:
                    missing = True
                    break
                env[rel] = rel_state
            if missing:
                continue
            frame_ok = interpret(analysis.frame_predicate, env)
            video_ok = not isinstance(analysis.video_predicate, TruePredicate) and interpret(
                analysis.video_predicate, env
            )
            if isinstance(analysis.video_predicate, TruePredicate) and analysis.video_outputs:
                video_ok = frame_ok
            if not frame_ok and not video_ok:
                continue
            signature = tuple(
                (var.var_name, identity(node))
                for var, node in sorted(binding.items(), key=lambda kv: kv[0].var_name)
            )
            outputs = tuple(value(e, env) for e in analysis.frame_outputs) if frame_ok else ()
            aggregates = tuple(value(a.expr, env) for a in analysis.video_outputs) if video_ok else ()
            records.append(MatchRecord(frame.frame_id, signature, outputs, frame_ok, video_ok, aggregates))
        if records:
            if any(r.frame_match for r in records):
                result.matched_frames.append(frame.frame_id)
            result.matches[frame.frame_id] = records

    return sink


def interpretive_vobj_filter(self, graph, ctx):
    for node in graph.nodes(self.variable):
        if not interpret(self.predicate, {self.variable: node.state}):
            graph.remove_node(node)
    return graph


def interpretive_relation_filter(self, graph, ctx):
    states = graph.relation_states.get(id(self.relation), {})
    env_of = lambda s: {self.relation: s, self.relation.subject: s.subject, self.relation.object: s.object}  # noqa: E731
    graph.relation_states[id(self.relation)] = {
        pair: s for pair, s in states.items() if interpret(self.predicate, env_of(s))
    }
    return graph


def run_batch(video):
    session = QuerySession(video, config=PlannerConfig(profile_plans=False))
    results = session.execute_many([CloseCarsQuery(), CountedCarsQuery()])
    clock = session.last_context.clock
    return (
        [(r.matched_frames, r.matches, r.aggregates, r.events) for r in results],
        (clock.elapsed_ms, dict(clock.by_account), dict(clock.calls)),
    )


class TestCompiledSink:
    @pytest.fixture(scope="class")
    def street(self):
        return camera_clip("jackson", 20, seed=12)

    def test_relation_query_with_a_scene_matches_the_interpretive_engine(self, street, monkeypatch):
        compiled, compiled_clock = run_batch(street)
        with monkeypatch.context() as patch:
            patch.setattr(Executor, "compile_sink", staticmethod(interpretive_sink))
            patch.setattr(VObjFilterOp, "process", interpretive_vobj_filter)
            patch.setattr(RelationFilterOp, "process", interpretive_relation_filter)
            interpreted, interpreted_clock = run_batch(street)
        assert compiled == interpreted
        assert compiled_clock == interpreted_clock
        (close_frames, close_matches, _, _), (_, _, aggregates, _) = compiled
        assert close_frames, "the relation query should match some frames"
        assert any(len(records) > 1 for records in close_matches.values())
        assert aggregates["count_distinct_0"] > 0
        assert aggregates["locations"] and set(aggregates["locations"]) == {None}
