"""Leaf sharing: structurally identical leaves share one pipeline run per frame.

Composed queries repeat their base query's operator pipeline, so a batch
like ``[RedCar, Duration(RedCar), Sequential(RedCar, Person)]`` holds three
identical RedCar leaves.  The scan scheduler runs the first one and lets
its twins take the frame's match records, replaying the operator overhead
the skipped runs would have charged.  Sharing must be invisible: every
batch here runs twice, once as normal and once with sharing disabled (each
plan's structural key replaced by a fresh ``object()``), and everything a
user or the cost model can see must be identical across the two runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.operators import Operator
from repro.backend.plan import QueryPlan
from repro.backend.planner import Planner, PlannerConfig
from repro.backend.runtime import ExecutionContext
from repro.backend.session import QuerySession
from repro.backend.streaming import PlanStream
from repro.common.config import FaultConfig, ObsConfig, StrideConfig, VideoSpec
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.properties import stateless
from repro.frontend.query import Query
from repro.frontend.relation import Relation
from repro.videosim.entities import ObjectSpec
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo


class RedCarQuery(Query):
    def __init__(self, threshold: float = 0.6):
        self.car = Car("car")
        self.threshold = threshold

    def frame_constraint(self):
        return (self.car.score > self.threshold) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class GatedRedCarQuery(RedCarQuery):
    """RedCar registers the ``no_red_on_road`` frame filter: with gating
    off the filter runs inside the pipeline, and such leaves never share."""

    def __init__(self):
        super().__init__()
        self.car = RedCar("car")


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


class Near(Relation):
    @stateless(inputs=("distance",))
    def is_near(self, distance):
        return distance < 200


class NearQuery(Query):
    """A relation query: relation states are rebuilt (and their Python
    properties recharged) on every run, so such leaves never share."""

    def __init__(self):
        self.car = Car("car")
        self.person = Person("person")
        self.near = Near(self.car, self.person, "near")

    def frame_constraint(self):
        return (self.car.score > 0.5) & (self.near.is_near == True)  # noqa: E712

    def frame_output(self):
        return (self.car.track_id, self.person.track_id)


BASES = {
    "red": RedCarQuery,
    "red_loose": lambda: RedCarQuery(threshold=0.3),
    "gated_red": GatedRedCarQuery,
    "person": PersonQuery,
    "near": NearQuery,
}


def street_video(name: str = "street", seed: int = 5) -> SyntheticVideo:
    """Red cars crossing near standing people, staggered so that matches
    start and stop (events close, bounded queries retire mid-scan)."""
    spec = VideoSpec(name, fps=10, width=640, height=480, duration_s=6)
    objects = [
        ObjectSpec(
            object_id=1,
            class_name="car",
            trajectory=LinearTrajectory((40, 300), (7.0, 0.0)),
            size=(100, 50),
            enter_frame=0,
            exit_frame=35,
            attributes={"color": "red", "vehicle_type": "sedan"},
        ),
        ObjectSpec(
            object_id=2,
            class_name="car",
            trajectory=LinearTrajectory((500, 260), (-5.0, 0.0)),
            size=(100, 50),
            enter_frame=20,
            exit_frame=59,
            attributes={"color": "red", "vehicle_type": "sedan"},
        ),
        ObjectSpec(
            object_id=3,
            class_name="car",
            trajectory=LinearTrajectory((100, 150), (4.0, 0.0)),
            size=(100, 50),
            enter_frame=10,
            exit_frame=50,
            attributes={"color": "blue", "vehicle_type": "sedan"},
        ),
        ObjectSpec(
            object_id=4,
            class_name="person",
            trajectory=StationaryTrajectory((300, 330)),
            size=(30, 80),
            enter_frame=5,
            exit_frame=45,
            default_action="standing",
        ),
    ]
    return SyntheticVideo(spec, objects, seed=seed)


VIDEO = street_video()


@st.composite
def query_specs(draw):
    """(shape, base, partner, limit): a query the strategy can rebuild."""
    base = draw(st.sampled_from(sorted(BASES)))
    shape = draw(st.sampled_from(["plain", "duration", "sequential"]))
    partner = draw(st.sampled_from(sorted(BASES))) if shape == "sequential" else None
    limit = draw(st.none() | st.integers(1, 4))
    return shape, base, partner, limit


def build(spec) -> Query:
    shape, base, partner, limit = spec
    query = BASES[base]()
    if shape == "duration":
        query = DurationQuery(query, duration_s=0.5)
    elif shape == "sequential":
        query = SequentialQuery(query, BASES[partner](), max_gap_s=2.0)
    return query.bounded(limit) if limit is not None else query


@st.composite
def batches(draw):
    """Query specs where the first spec's base query always recurs, so the
    batch holds at least one twin (with its own shape and limit)."""
    specs = draw(st.lists(query_specs(), min_size=1, max_size=3))
    twin = draw(query_specs())
    shape, _, partner, limit = twin
    specs.append((shape, specs[0][1], partner, limit))
    return specs


@st.composite
def configs(draw) -> PlannerConfig:
    gating = draw(st.booleans())
    fault = draw(st.sampled_from(["none", "transient", "outage", "crash"]))
    faults = None
    if fault == "transient":
        faults = FaultConfig(seed=11, transient_rate=0.1, corrupt_frame_rate=0.05)
    elif fault == "outage":
        # The colour model dies mid-clip: pipelines fault after detection
        # and tracking already ran, and each leaf degrades on its own.
        faults = FaultConfig(
            seed=7,
            transient_rate=0.05,
            dead_models=(("color_detect", draw(st.integers(10, 40))),),
        )
    elif fault == "crash":
        faults = FaultConfig(
            seed=23,
            transient_rate=0.05,
            corrupt_frame_rate=0.03,
            crash_frames=((VIDEO.spec.name, 37),),
            checkpoint_interval=10,
        )
    return PlannerConfig(
        profile_plans=False,
        enable_scan_gating=gating,
        enable_early_exit=draw(st.booleans()),
        stride=StrideConfig() if draw(st.booleans()) else None,
        faults=faults,
    )


def observe(specs, config):
    """Everything sharing must leave unchanged, for one run of the batch."""
    session = QuerySession(VIDEO, config=config)
    results = session.execute_many([build(spec) for spec in specs])
    ctx = session.last_context
    clock = ctx.clock
    return (
        [
            (
                r.query_name,
                r.matched_frames,
                sorted(r.matches.items()),
                r.events,
                r.per_frame_ms,
                r.num_frames_processed,
                r.total_ms,
                r.cost_breakdown,
                r.reuse_hits,
                sorted(r.aggregates.items()),
            )
            for r in results
        ],
        clock.elapsed_ms,
        list(clock.breakdown().items()),
        sorted(clock.calls.items()),
        sorted(ctx.reuse_stats.property_hits.items()),
        ctx.scan_stats.as_dict(),
    )


def observe_unshared(specs, config):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QueryPlan, "structural_key", lambda self: object())
        return observe(specs, config)


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(batches(), configs())
    def test_sharing_is_invisible(self, specs, config):
        assert observe(specs, config) == observe_unshared(specs, config)

    def test_mixed_batch_shares_and_matches(self):
        """The engine benchmark's batch: five leaves, two distinct plans."""
        specs = [
            ("plain", "red", None, None),
            ("plain", "person", None, None),
            ("duration", "red", None, None),
            ("sequential", "red", "person", None),
        ]
        config = PlannerConfig(profile_plans=False)
        shared = observe(specs, config)
        assert shared == observe_unshared(specs, config)
        assert any(r[1] for r in shared[0])  # the clip does match


class TestFilledFrameFaults:
    def test_model_down_on_a_filled_frame_degrades_it(self):
        """A property model that dies inside a stride gap skips the filled
        frame for the leaf (labelled degraded) instead of aborting the scan."""
        config = PlannerConfig(
            profile_plans=False,
            stride=StrideConfig(),
            faults=FaultConfig(seed=7, dead_models=(("color_detect", 10),)),
        )
        session = QuerySession(VIDEO, config=config)
        result = session.execute(RedCarQuery())
        stats = session.last_scan_stats
        assert stats["frames_interpolated"] > 0
        assert stats["frames_degraded"] > 0
        assert result.num_frames_processed == VIDEO.num_frames


class TestShareGroups:
    def compile(self, queries, config):
        session = QuerySession(VIDEO, config=config)
        session.planner.begin_batch(queries)
        streams = [session.executor.compile(q, VIDEO, session.planner) for q in queries]
        return [leaf for stream in streams for leaf in stream.plan_streams()]

    def test_twins_share_a_key(self):
        leaves = self.compile(
            [RedCarQuery(), DurationQuery(RedCarQuery(), duration_s=1.0), PersonQuery()],
            PlannerConfig(profile_plans=False),
        )
        red, duration_red, person = leaves
        assert red.share_key() is not None
        assert red.share_key() == duration_red.share_key()
        assert red.share_key() != person.share_key()

    def test_threshold_and_type_split_keys(self):
        leaves = self.compile(
            [RedCarQuery(), RedCarQuery(threshold=0.3), GatedRedCarQuery()],
            PlannerConfig(profile_plans=False),
        )
        keys = [leaf.share_key() for leaf in leaves]
        assert len(set(keys)) == 3

    def test_ungated_filters_and_relations_never_share(self):
        leaves = self.compile(
            [GatedRedCarQuery(), NearQuery()],
            PlannerConfig(profile_plans=False, enable_scan_gating=False),
        )
        assert [leaf.share_key() for leaf in leaves] == [None, None]

    def test_twin_skips_the_pipeline(self, monkeypatch):
        runs = []
        original = PlanStream.process_frame

        def spy(self, frame, ctx):
            runs.append(self.query_name)
            return original(self, frame, ctx)

        monkeypatch.setattr(PlanStream, "process_frame", spy)
        session = QuerySession(VIDEO, config=PlannerConfig(profile_plans=False))
        red, twin = session.execute_many([RedCarQuery(), RedCarQuery().bounded(4)])
        assert len(runs) == VIDEO.num_frames  # one run per frame, not two
        # The twin keeps its own bound (it retires early), its own counts, and
        # its own list of the shared records.
        assert twin.num_frames_processed < VIDEO.num_frames
        processed = session.last_scan_stats["leaf_frames_processed"]
        assert processed == VIDEO.num_frames + twin.num_frames_processed
        assert twin.matched_frames == red.matched_frames[:4]
        for frame_id, records in twin.matches.items():
            assert records == red.matches[frame_id]
            assert records is not red.matches[frame_id]
            assert all(a is b for a, b in zip(records, red.matches[frame_id]))

    def test_replay_stops_at_the_dropping_operator(self, zoo):
        """A twin replays one overhead charge per operator its twin ran, up
        to and including the one that dropped the frame."""

        class DropOp(Operator):
            kind = "drop"

            def process(self, graph, ctx):
                graph.dropped = True
                return graph

        leaves = self.compile([RedCarQuery(), RedCarQuery()], PlannerConfig(profile_plans=False))
        for leaf in leaves:
            leaf.operators = leaf.operators[:1] + [DropOp("drop")] + leaf.operators[1:]
        first, twin = leaves
        ctx = ExecutionContext(VIDEO, zoo)
        frame = VIDEO.frame(10)
        first.process_frame(frame, ctx)
        assert first.ops_run == 2
        assert ctx.clock.calls["operator_overhead"] == 2
        twin.reuse_frame(frame, first, ctx)
        assert ctx.clock.calls["operator_overhead"] == 4
        assert twin.result.num_frames_processed == 1
        assert not twin.result.matches

    def test_leaf_shared_decision(self):
        config = PlannerConfig(profile_plans=False, obs=ObsConfig())
        session = QuerySession(VIDEO, config=config)
        session.execute_many(
            [RedCarQuery(), PersonQuery(), SequentialQuery(RedCarQuery(), PersonQuery())]
        )
        records = session.last_obs.decisions.records("leaf-shared")
        assert [(d.reason, d.subject, dict(d.attrs)) for d in records] == [
            ("identical-plan", "RedCarQuery", {"primary": "RedCarQuery"}),
            ("identical-plan", "PersonQuery", {"primary": "PersonQuery"}),
        ]


class TestPlannerVariantCache:
    """The variant cache keys on query structure, not the query's class."""

    def count_profiles(self, monkeypatch, planner):
        calls = []
        original = planner._profile_and_select

        def spy(candidates, video, obs=None):
            calls.append(candidates[0].query_name)
            return original(candidates, video, obs=obs)

        monkeypatch.setattr(planner, "_profile_and_select", spy)
        return calls

    def test_same_class_different_threshold_is_profiled(self, monkeypatch, zoo):
        planner = Planner(zoo, PlannerConfig(canary_frames=30))
        calls = self.count_profiles(monkeypatch, planner)
        strict, loose = GatedRedCarQuery(), GatedRedCarQuery()
        loose.threshold = 0.3
        planner.begin_batch([strict, loose])
        planner.plan(strict, VIDEO)
        planner.plan(loose, VIDEO)
        assert len(calls) == 2

    def test_twins_hit_the_cache(self, monkeypatch, zoo):
        planner = Planner(zoo, PlannerConfig(canary_frames=30))
        calls = self.count_profiles(monkeypatch, planner)
        first, duration = GatedRedCarQuery(), DurationQuery(GatedRedCarQuery(), duration_s=1.0)
        planner.begin_batch([first, duration])
        chosen = planner.plan(first, VIDEO)
        again = planner.plan(duration, VIDEO)
        assert len(calls) == 1
        assert again.variant == chosen.variant
