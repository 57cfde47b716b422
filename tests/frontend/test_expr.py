"""Tests for the predicate expression AST."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import QueryDefinitionError
from repro.frontend.expr import (
    And,
    Comparison,
    Literal,
    MISSING,
    Not,
    Or,
    PropertyRef,
    TRUE,
    compute,
    conjunction,
    predicate,
    split_by_variable,
)
from repro.frontend.builtin import Car, Person


class FakeState:
    def __init__(self, values):
        self.values = values

    def get(self, name):
        return self.values.get(name)


def env_for(var, **values):
    return {var: FakeState(values)}


class TestComparisons:
    def test_equality_predicate(self):
        car = Car("c")
        pred = car.color == "red"
        assert isinstance(pred, Comparison)
        assert pred.evaluate(env_for(car, color="red"))
        assert not pred.evaluate(env_for(car, color="blue"))

    def test_numeric_comparisons(self):
        car = Car("c")
        assert (car.score > 0.5).evaluate(env_for(car, score=0.9))
        assert not (car.score >= 0.5).evaluate(env_for(car, score=0.4))
        assert (car.score < 1).evaluate(env_for(car, score=0.4))
        assert (car.score <= 0.4).evaluate(env_for(car, score=0.4))
        assert (car.score != 1).evaluate(env_for(car, score=0.4))

    def test_missing_property_is_false(self):
        car = Car("c")
        assert not (car.color == "red").evaluate(env_for(car))
        assert not (car.color == "red").evaluate({})

    def test_type_error_is_false(self):
        car = Car("c")
        assert not (car.score > 0.5).evaluate(env_for(car, score="not a number"))

    def test_string_helpers(self):
        car = Car("c")
        assert car.license_plate.endswith("45").evaluate(env_for(car, license_plate="ABC1245"))
        assert car.license_plate.startswith("ABC").evaluate(env_for(car, license_plate="ABC1245"))
        assert car.license_plate.contains("C12").evaluate(env_for(car, license_plate="ABC1245"))
        assert car.license_plate.matches(r"\d{2}45$").evaluate(env_for(car, license_plate="ABC1245"))
        assert car.color.in_(["red", "blue"]).evaluate(env_for(car, color="red"))

    def test_ref_vs_ref_comparison(self):
        car = Car("c")
        person = Person("p")
        pred = car.frame_id == person.frame_id
        env = {car: FakeState({"frame_id": 3}), person: FakeState({"frame_id": 3})}
        assert pred.evaluate(env)


class TestLogicalConnectives:
    def test_and_or_not(self):
        car = Car("c")
        pred = (car.color == "red") & ((car.score > 0.5) | ~(car.vehicle_type == "suv"))
        assert pred.evaluate(env_for(car, color="red", score=0.3, vehicle_type="sedan"))
        assert not pred.evaluate(env_for(car, color="blue", score=0.9, vehicle_type="sedan"))

    def test_and_flattens(self):
        car = Car("c")
        pred = (car.score > 0.1) & (car.score > 0.2) & (car.score > 0.3)
        assert len(pred.conjuncts()) == 3

    def test_python_bool_context_rejected(self):
        car = Car("c")
        with pytest.raises(QueryDefinitionError):
            bool(car.color == "red")
        with pytest.raises(QueryDefinitionError):
            if car.score > 0.5:  # noqa: PLR1722 - intentionally wrong usage
                pass

    def test_and_with_non_predicate_rejected(self):
        car = Car("c")
        with pytest.raises(QueryDefinitionError):
            (car.color == "red") & 5

    def test_true_predicate(self):
        assert TRUE.evaluate({}) is True
        assert TRUE.conjuncts() == []
        assert conjunction([]) is TRUE
        assert conjunction([TRUE, TRUE]) is TRUE


class TestDerivedAndFunctionPredicates:
    def test_compute_over_two_variables(self):
        car, person = Car("c"), Person("p")
        from repro.common.geometry import BBox

        distance = compute(lambda a, b: a.center_distance(b), car.bbox, person.bbox, label="distance")
        pred = distance < 50
        env = {
            car: FakeState({"bbox": BBox.from_center(0, 0, 10, 10)}),
            person: FakeState({"bbox": BBox.from_center(30, 40, 10, 10)}),
        }
        assert not pred.evaluate(env)
        assert (distance < 51).evaluate(env)

    def test_missing_input_propagates(self):
        car, person = Car("c"), Person("p")
        derived = compute(lambda a, b: a + b, car.score, person.score)
        env = {car: FakeState({"score": 1.0})}
        assert derived.resolve(env) is MISSING

    def test_predicate_helper(self):
        car = Car("c")
        pred = predicate(lambda color: color.startswith("r"), car.color)
        assert pred.evaluate(env_for(car, color="red"))
        assert not pred.evaluate(env_for(car, color="blue"))


class TestAnalysis:
    def test_variables_and_required_properties(self):
        car, person = Car("c"), Person("p")
        pred = (car.color == "red") & (person.action == "crossing") & (car.score > 0.5)
        assert pred.variables() == {car, person}
        props = pred.required_properties()
        assert props[car] == {"color", "score"}
        assert props[person] == {"action"}

    def test_split_by_variable(self):
        car, person = Car("c"), Person("p")
        distance = compute(lambda a, b: a.center_distance(b), car.bbox, person.bbox)
        pred = (car.color == "red") & (person.score > 0.5) & (distance < 100)
        per_var, multi = split_by_variable(pred)
        assert len(per_var[car]) == 1
        assert len(per_var[person]) == 1
        assert len(multi) == 1

    def test_or_required_properties_merged(self):
        car = Car("c")
        pred = (car.color == "red") | (car.vehicle_type == "suv")
        assert pred.required_properties()[car] == {"color", "vehicle_type"}

    def test_not_passthrough(self):
        car = Car("c")
        pred = ~(car.color == "red")
        assert pred.variables() == {car}
        assert pred.evaluate(env_for(car, color="blue"))

    def test_repr_readable(self):
        car = Car("mycar")
        text = repr((car.color == "red") & (car.score > 0.5))
        assert "mycar.color" in text and "red" in text
