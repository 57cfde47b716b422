"""Every model output goes through ``ExecutionContext.model_output``.

One routine reads the frame's memo, then the index, then invokes the model
through the fault layer inside one ``model-invocation`` span.  These tests
pin what that buys: VObj types over one detection share one property call,
and a trace has exactly one span per live model call.
"""

from collections import Counter

import pytest

from repro.backend.planner import PlannerConfig
from repro.backend.session import QuerySession
from repro.common.config import IndexConfig, ObsConfig
from repro.frontend.builtin import Car, GetsInto, Person, RedCar
from repro.frontend.properties import stateful
from repro.frontend.query import Query
from repro.index.store import VideoIndexStore
from repro.models.properties import ColorModel
from repro.videosim.datasets import camera_clip


class RedCarQuery(Query):
    def __init__(self, vobj_type=Car):
        self.car = vobj_type("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class TwinCar(Car):
    """A second VObj type over the same detections as ``Car``."""


class HeadingCar(Car):
    """A car with a stateful, model-backed property."""

    @stateful(inputs=("center",), history_len=3, model="direction_classifier")
    def heading(self, centers):
        ...


class HeadingQuery(Query):
    def __init__(self):
        self.car = HeadingCar("car")

    def frame_constraint(self):
        return self.car.score > 0.6

    def frame_output(self):
        return (self.car.track_id, self.car.heading)


class GetsIntoQuery(Query):
    def __init__(self):
        self.person = Person("person")
        self.car = Car("car")
        self.gets_into = GetsInto(self.person, self.car, "gets_into")

    def frame_constraint(self):
        return (self.person.score > 0.5) & (self.gets_into.interaction == "get_into")

    def frame_output(self):
        return (self.person.track_id, self.car.track_id)


class TestSharedPropertyOutputs:
    @pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
    def test_one_property_call_per_detection_across_vobj_types(self, reuse, monkeypatch):
        """Two VObj types asking ``color_detect`` about one detection on one
        frame share one call (paper §4.2), with the index off."""
        video = camera_clip("jackson", duration_s=20, seed=1)
        config = PlannerConfig(profile_plans=False, enable_reuse=reuse)
        asked = []
        predict = ColorModel.predict

        def spy(self, detection, frame, clock=None):
            asked.append(detection)
            return predict(self, detection, frame, clock)

        monkeypatch.setattr(ColorModel, "predict", spy)
        session = QuerySession(video, config=config)
        batch = session.execute_many([RedCarQuery(), RedCarQuery(TwinCar)])
        calls = session.last_context.clock.calls["color_detect"]
        assert calls == len(asked) == len(set(asked))
        assert calls == (6 if reuse else 644)
        for vobj_type, result in zip((Car, TwinCar), batch):
            alone = QuerySession(video, config=config).execute(RedCarQuery(vobj_type))
            assert result.matched_frames == alone.matched_frames
            assert result.matches == alone.matches


MODELS = ("yolox", "kalman_tracker", "no_red_on_road", "color_detect", "direction_classifier", "upt")


def spans_per_model(session):
    return Counter(s.attrs["model"] for s in session.last_trace.spans("model-invocation"))


class TestModelInvocationSpans:
    def test_one_span_per_live_call(self):
        """Detector, tracker, frame filter, stateless and stateful property
        and interaction models each open one span per live call: none on a
        memo hit (two VObj types over one detection) or an index hit (the
        warm re-run)."""
        video = camera_clip("jackson", duration_s=20, seed=12)
        config = PlannerConfig(
            profile_plans=False,
            obs=ObsConfig(),
            index=IndexConfig(),
        )
        store = VideoIndexStore()
        batch = [
            HeadingQuery(),
            GetsIntoQuery(),
            RedCarQuery(RedCar),  # gated by the no_red_on_road frame filter
            RedCarQuery(),
            RedCarQuery(TwinCar),
        ]
        cold = QuerySession(video, config=config, index_store=store)
        cold_results = cold.execute_many(batch)
        calls = cold.last_context.clock.calls
        spans = spans_per_model(cold)
        assert all(calls[model] > 0 for model in MODELS), dict(calls)
        assert {model: spans[model] for model in MODELS} == {model: calls[model] for model in MODELS}
        kinds = {s.attrs["model"]: s.attrs["kind"] for s in cold.last_trace.spans("model-invocation")}
        assert kinds == {
            "yolox": "detections",
            "kalman_tracker": "tracker",
            "no_red_on_road": "filter",
            "color_detect": "property",
            "direction_classifier": "property",
            "upt": "interaction",
        }

        warm = QuerySession(video, config=config, index_store=store)
        warm_results = warm.execute_many(batch)
        assert [r.matches for r in warm_results] == [r.matches for r in cold_results]
        # Only the stateful property is computed live on a warm run.
        assert spans_per_model(warm) == {"direction_classifier": calls["direction_classifier"]}
        assert warm.last_context.clock.calls["direction_classifier"] == calls["direction_classifier"]
