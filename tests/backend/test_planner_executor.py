"""Tests for query analysis, planning, DAG optimization, and execution."""

from dataclasses import fields

import pytest

from repro.backend.analysis import analyze_query
from repro.backend.executor import Executor, extract_events
from repro.backend.planner import Planner, PlannerConfig
from repro.backend.results import Event, MatchRecord, QueryResult
from repro.backend.runtime import ExecutionContext
from repro.backend.session import QuerySession
from repro.common.config import (
    FaultConfig,
    IndexConfig,
    LiveConfig,
    ObsConfig,
    ReidConfig,
    StrideConfig,
)
from repro.common.errors import PlanError
from repro.faults import NO_FAULTS
from repro.frontend.builtin import Ball, Car, Person, PersonBallInteraction, RedCar
from repro.frontend.higher_order import CollisionQuery, DurationQuery, SequentialQuery, SpeedQuery
from repro.frontend.query import Query, count_distinct
from repro.index import NO_INDEX


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox, self.car.license_plate)


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


class TurnCountQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def video_constraint(self):
        return (self.car.score > 0.5) & (self.car.direction == "turn_right")

    def video_output(self):
        return (count_distinct(self.car.track_id, label="num_turning"),)


class TestAnalysis:
    def test_variable_info(self):
        analysis = analyze_query(RedCarQuery())
        assert len(analysis.variables) == 1
        info = analysis.variables[0]
        assert info.detector_model == "yolox"
        assert "color" in info.needed_properties
        assert "license_plate" in info.needed_properties
        # The query outputs track ids, so the plan must include a tracker.
        assert info.requires_tracking
        assert "color" in info.intrinsic_properties
        assert len(info.conjuncts) == 2

    def test_variable_info_accepts_equal_but_distinct_vobj(self):
        # A VObj rebuilt outside the analyzed query (e.g. a re-declared query
        # or a plan shipped across a process boundary) names the same logical
        # variable; lookup must fall back to the variable name instead of
        # demanding the identical object.
        analysis = analyze_query(RedCarQuery())
        rebuilt = Car("car")
        info = analysis.variable_info(rebuilt)
        assert info is analysis.variables[0]

    def test_variable_info_unknown_name_still_raises(self):
        analysis = analyze_query(RedCarQuery())
        with pytest.raises(PlanError, match="unknown variable"):
            analysis.variable_info(Car("other_car"))

    def test_video_constraint_pushdown(self):
        analysis = analyze_query(TurnCountQuery())
        assert analysis.filters_from_video_constraint
        assert analysis.variables[0].requires_tracking  # direction is stateful

    def test_multi_variable_residual(self):
        analysis = analyze_query(CollisionQuery(Car("c"), Person("p")))
        assert len(analysis.variables) == 2
        assert len(analysis.residual_conjuncts) == 1  # the distance predicate


class TestPlanner:
    def test_plan_structure(self, banff_clip, zoo, fast_config):
        planner = Planner(zoo, fast_config)
        plan = planner.plan(RedCarQuery(), banff_clip)
        kinds = plan.operator_kinds()
        assert "object_detector" in kinds
        assert "object_tracker" in kinds  # needed for intrinsic reuse
        assert "join" in kinds
        text = plan.describe()
        assert "yolox" in text and "branch [car]" in text

    def test_lazy_plan_interleaves_filters(self, zoo):
        config = PlannerConfig(enable_lazy=True, enable_fusion=False, profile_plans=False)
        plan = Planner(zoo, config).plan(RedCarQuery())
        branch = plan.branches["car"]
        kinds = [op.kind for op in branch]
        # score filter (builtin, no projector needed) comes before the color projector.
        assert kinds.index("object_filter") < kinds.index("projector")

    def test_unlazy_plan_projects_everything_first(self, zoo):
        config = PlannerConfig(enable_lazy=False, enable_fusion=False, profile_plans=False)
        plan = Planner(zoo, config).plan(RedCarQuery())
        kinds = [op.kind for op in plan.branches["car"]]
        assert kinds.index("projector") < kinds.index("object_filter")

    def test_fusion_reduces_operator_count(self, zoo):
        fused = Planner(zoo, PlannerConfig(enable_fusion=True, profile_plans=False)).plan(RedCarQuery())
        unfused = Planner(zoo, PlannerConfig(enable_fusion=False, profile_plans=False)).plan(RedCarQuery())
        assert len(fused.branches["car"]) < len(unfused.branches["car"])

    def test_registered_filters_added(self, zoo):
        class RedCarVObjQuery(Query):
            def __init__(self):
                self.car = RedCar("red")

            def frame_constraint(self):
                return self.car.score > 0.5

            def frame_output(self):
                return (self.car.track_id,)

        config = PlannerConfig(use_registered_filters=True, profile_plans=False)
        plan = Planner(zoo, config).plan(RedCarVObjQuery())
        assert plan.count_kind("frame_filter") == 1

    def test_specialized_candidates_generated(self, zoo):
        class RedCarVObjQuery(Query):
            def __init__(self):
                self.car = RedCar("red")

            def frame_constraint(self):
                return (self.car.score > 0.5) & (self.car.color == "red")

            def frame_output(self):
                return (self.car.track_id,)

        planner = Planner(zoo, PlannerConfig(profile_plans=False))
        candidates = planner.candidate_plans(analyze_query(RedCarVObjQuery()))
        variants = {c.variant for c in candidates}
        assert any(v.startswith("specialized:") for v in variants)
        specialized = next(c for c in candidates if c.variant.startswith("specialized:"))
        assert "red_car_detector" in specialized.describe()

    def test_profiling_selects_accurate_plan(self, jackson_clip, zoo):
        class RedCarVObjQuery(Query):
            def __init__(self):
                self.car = RedCar("red")

            def frame_constraint(self):
                return (self.car.score > 0.5) & (self.car.color == "red")

            def frame_output(self):
                return (self.car.track_id,)

        config = PlannerConfig(profile_plans=True, canary_frames=30, accuracy_target=0.8)
        planner = Planner(zoo, config)
        plan = planner.plan(RedCarVObjQuery(), jackson_clip)
        assert plan.estimated_cost_ms is not None
        assert plan.estimated_f1 is None or plan.estimated_f1 >= 0.8
        # Planning the same query class again on the same video reuses the cached variant.
        again = planner.plan(RedCarVObjQuery(), jackson_clip)
        assert again.variant == plan.variant

    def test_networkx_dag_shape(self, zoo, fast_config):
        plan = Planner(zoo, fast_config).plan(CollisionQuery(Car("c"), Person("p")))
        graph = plan.to_networkx()
        assert "video_reader" in graph
        assert "sink" in graph
        join_nodes = [n for n, data in graph.nodes(data=True) if data.get("kind") == "join"]
        assert len(join_nodes) == 1
        # Two branches converge at the join.
        assert graph.in_degree(join_nodes[0]) == 2


class TestExecutor:
    def test_red_car_query_finds_the_red_car(self, tiny_video, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        result = session.execute(RedCarQuery())
        assert result.num_frames_processed == tiny_video.num_frames
        # The tiny video's only car is red; most frames should match.
        assert len(result.matched_frames) > tiny_video.num_frames * 0.5
        record = result.matches[result.matched_frames[0]][0]
        assert record.outputs[2].startswith("ABC")  # license plate output

    def test_per_frame_series_length(self, tiny_video, zoo, fast_config):
        result = QuerySession(tiny_video, zoo=zoo, config=fast_config).execute(RedCarQuery())
        assert len(result.per_frame_ms) == tiny_video.num_frames
        assert result.total_ms == pytest.approx(sum(result.per_frame_ms), rel=0.05)

    def test_video_aggregation(self, jackson_clip, zoo, fast_config):
        result = QuerySession(jackson_clip, zoo=zoo, config=fast_config).execute(TurnCountQuery())
        expected = {
            o.object_id
            for o in jackson_clip.ground_truth_tracks()
            if o.class_name in ("car", "bus", "truck") and o.attributes.get("direction") == "turn_right"
        }
        counted = result.aggregates["num_turning"]
        assert abs(counted - len(expected)) <= max(2, len(expected))

    def test_spatial_query_execution(self, suspect_clip, zoo, fast_config):
        query = CollisionQuery(Car("car"), Person("person"), max_distance=200)
        result = QuerySession(suspect_clip, zoo=zoo, config=fast_config).execute(query)
        assert result.matched_frames  # the scripted person approaches the car

    def test_duration_query_filters_short_events(self, banff_clip, zoo, fast_config):
        base = PersonQuery()
        long_duration = DurationQuery(base, duration_s=3600)  # nothing lasts an hour here
        result = QuerySession(banff_clip, zoo=zoo, config=fast_config).execute(long_duration)
        assert result.events == []
        assert result.matched_frames == []

    def test_duration_query_finds_persistent_objects(self, tiny_video, zoo, fast_config):
        query = DurationQuery(RedCarQuery(), duration_s=1.0)
        result = QuerySession(tiny_video, zoo=zoo, config=fast_config).execute(query)
        assert result.events
        assert result.aggregates["num_events"] == len(result.events)

    def test_temporal_query_pairs_events(self, tiny_video, zoo, fast_config):
        first = RedCarQuery()
        second = PersonQuery()
        sequential = SequentialQuery(first, second, max_gap_s=10)
        result = QuerySession(tiny_video, zoo=zoo, config=fast_config).execute(sequential)
        assert "num_event_pairs" in result.aggregates

    def test_execute_many_shares_work(self, tiny_video, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        individual = sum(session.execute(q).total_ms for q in (RedCarQuery(), PersonQuery()))
        shared = sum(r.total_ms for r in session.execute_many([RedCarQuery(), PersonQuery()]))
        assert shared < individual

    def test_session_plan_and_explain(self, tiny_video, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        assert "branch [car]" in session.explain(RedCarQuery())
        with pytest.raises(PlanError):
            session.plan(SequentialQuery(RedCarQuery(), PersonQuery()))

    def test_cost_breakdown_populated(self, tiny_video, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        result = session.execute(RedCarQuery())
        assert "yolox" in result.cost_breakdown
        assert session.cost_breakdown()


class TestSubsystemConfigs:
    """Each optional subsystem is one nested config: None is off, and a
    tuning value is checked where its config is built."""

    SUBSYSTEMS = {
        "stride": StrideConfig,
        "reid": ReidConfig,
        "obs": ObsConfig,
        "faults": FaultConfig,
        "live": LiveConfig,
        "index": IndexConfig,
    }

    def test_each_subsystem_is_one_field_absent_by_default(self):
        config_fields = {f.name: f for f in fields(PlannerConfig)}
        assert len(config_fields) == 16
        for name in self.SUBSYSTEMS:
            assert config_fields[name].default is None
        for config_cls in self.SUBSYSTEMS.values():
            assert "enabled" not in {f.name for f in fields(config_cls)}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ObsConfig(max_decision_records=0),
            lambda: ObsConfig(max_spans=0),
            lambda: StrideConfig(max_stride=0),
            lambda: StrideConfig(iou_tol=0.0),
            lambda: StrideConfig(stable_frames=0),
        ],
        ids=["max_decision_records", "max_spans", "max_stride", "iou_tol", "stable_frames"],
    )
    def test_out_of_range_tuning_raises_where_its_config_is_built(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_stable_fraction_outside_the_unit_interval_raises(self, fraction):
        with pytest.raises(ValueError, match="stable_fraction"):
            StrideConfig(stable_fraction=fraction)

    def test_stable_fraction_prices_at_most_the_detector_cost(self, tiny_video, zoo):
        # With every frame predictable the planner discounts 1 - 1/max_stride
        # of the detector cost, never more than the cost itself.
        config = PlannerConfig(profile_plans=False, stride=StrideConfig(stable_fraction=1.0))
        planner = Planner(zoo, config)
        plan = planner.plan(RedCarQuery(), tiny_video)
        breakdown = {name: 100.0 for name in plan.detector_models()}
        detector_ms = sum(breakdown.values())
        discount = planner._stride_detector_discount_ms(plan, breakdown)
        assert discount == pytest.approx(detector_ms * (1 - 1 / 8))
        off = Planner(zoo, PlannerConfig(profile_plans=False))
        assert off._stride_detector_discount_ms(plan, breakdown) == 0.0

    def test_absent_subsystems_execute_normally(self, tiny_video, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        results = session.execute_many([RedCarQuery(), PersonQuery()])
        assert results[0].matched_frames
        ctx = session.last_context
        assert ctx.faults is NO_FAULTS and ctx.index is NO_INDEX
        assert session.index_store is None and session.last_obs is None
        assert session.last_scan_stats["peak_stride"] == 1


class TestExtractEvents:
    def _result_with(self, frames_by_signature):
        result = QueryResult(query_name="t")
        for signature, frames in frames_by_signature.items():
            for f in frames:
                result.matches.setdefault(f, []).append(MatchRecord(frame_id=f, binding=signature))
        return result

    def test_contiguous_run_is_one_event(self):
        result = self._result_with({(("car", 1),): [1, 2, 3, 4, 5]})
        events = extract_events(result)
        assert len(events) == 1
        assert events[0].num_frames == 5

    def test_gap_splits_events(self):
        result = self._result_with({(("car", 1),): [1, 2, 3, 20, 21]})
        events = extract_events(result, max_gap=5)
        assert len(events) == 2

    def test_min_length_filter(self):
        result = self._result_with({(("car", 1),): [1, 2, 3]})
        assert extract_events(result, min_length=5) == []

    def test_signatures_kept_separate(self):
        result = self._result_with({(("car", 1),): [1, 2], (("car", 2),): [1, 2]})
        assert len(extract_events(result)) == 2

    def test_single_frame_event_at_min_length_boundary(self):
        result = self._result_with({(("car", 1),): [7]})
        kept = extract_events(result, min_length=1)
        assert kept == [Event(7, 7, signature=(("car", 1),))]
        assert extract_events(result, min_length=2) == []

    def test_gap_exactly_max_gap_stays_one_event(self):
        result = self._result_with({(("car", 1),): [1, 6]})
        assert len(extract_events(result, max_gap=5)) == 1
        assert len(extract_events(result, max_gap=4)) == 2

    def test_min_length_counts_span_not_observations(self):
        # Frames 1 and 6 span 6 frames even though only 2 were observed.
        result = self._result_with({(("car", 1),): [1, 6]})
        events = extract_events(result, max_gap=5, min_length=6)
        assert events == [Event(1, 6, signature=(("car", 1),))]
        assert extract_events(result, max_gap=5, min_length=7) == []

    def test_interleaved_signatures_grouped_independently(self):
        result = self._result_with(
            {(("car", 1),): [1, 3, 5, 20], (("car", 2),): [2, 4, 6]}
        )
        events = extract_events(result, max_gap=5)
        assert [(e.signature, e.start_frame, e.end_frame) for e in events] == [
            ((("car", 1),), 1, 5),
            ((("car", 2),), 2, 6),
            ((("car", 1),), 20, 20),
        ]
