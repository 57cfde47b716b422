"""Chaos tests for the fault-tolerance layer.

Covers the off-switch identity guarantee (``enable_fault_tolerance=False``
is byte-identical to the seed behaviour), deterministic fault injection
(same seed => same results, decision log, and retry counters, regardless
of the feed order or stride sampling), graceful degradation accounting
(every degraded frame lands in ``Event.skipped_frames`` and the decision
log), per-feed failure isolation, retry/backoff/circuit-breaker unit
semantics, and scan checkpoint/resume after an injected crash.
"""

from __future__ import annotations

import copy
import os
from dataclasses import is_dataclass, replace

import pytest

from repro.backend.planner import PlannerConfig
from repro.backend.results import Event, MatchRecord
from repro.backend.session import MultiCameraSession, QuerySession
from repro.common.clock import SimClock
from repro.common.config import FaultConfig, VideoSpec
from repro.common.geometry import BBox
from repro.common.errors import (
    CheckpointError,
    ExecutionError,
    FeedFailedError,
    ModelError,
    ModelTimeoutError,
    TransientModelError,
)
from repro.faults import CircuitBreaker, FaultManager, ScanCheckpointer
from repro.frontend.builtin import Car, RedCar
from repro.frontend.higher_order import DurationQuery
from repro.frontend.properties import stateless
from repro.frontend.query import Query
from repro.models.base import Detection
from repro.videosim.entities import GTInstance, ObjectSpec
from repro.videosim.trajectory import LinearTrajectory
from repro.videosim.video import SyntheticVideo


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class GatedRedCarQuery(RedCarQuery):
    """RedCar VObj: carries the registered ``no_red_on_road`` frame filter."""

    def __init__(self):
        self.car = RedCar("car")


class MisconfiguredCar(Car):
    @stateless(model="no_such_model", intrinsic=True)
    def make(self, image):
        ...


class MisconfiguredQuery(Query):
    def __init__(self):
        self.car = MisconfiguredCar("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.make == "sedan")

    def frame_output(self):
        return (self.car.track_id,)


def chaos_video(name: str = "chaos", duration_s: int = 20, seed: int = 3) -> SyntheticVideo:
    """Two red cars drifting linearly — fully predictable ground truth."""
    spec = VideoSpec(name, fps=10, width=640, height=480, duration_s=duration_s)
    cars = [
        ObjectSpec(
            object_id=i + 1,
            class_name="car",
            trajectory=LinearTrajectory((30 + 150 * i, 300), (0.8, 0.0)),
            size=(100, 50),
            attributes={"color": "red", "vehicle_type": "sedan"},
        )
        for i in range(2)
    ]
    return SyntheticVideo(spec, cars, seed=seed)


def ft_config(fault_config: FaultConfig, **kw) -> PlannerConfig:
    return PlannerConfig(
        profile_plans=False,
        enable_fault_tolerance=True,
        fault_config=fault_config,
        **kw,
    )


#: CI's chaos-soak job sweeps this seed; the guarantees hold for any value.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "11"))

CHAOS = FaultConfig(seed=CHAOS_SEED, transient_rate=0.05, corrupt_frame_rate=0.01)


def run_single(video, config, query=None):
    session = QuerySession(video, config=config)
    result = session.execute(query or RedCarQuery())
    return session, result


def signature(session, result):
    """Everything that must be identical across equivalent runs."""
    return (
        result.matched_frames,
        result.matches,
        session.last_context.scan_stats.as_dict(),
        session.last_context.clock.elapsed_ms,
        dict(session.last_context.clock.calls),
    )


class TestOffSwitch:
    def test_disabled_is_byte_identical(self):
        """A populated FaultConfig is inert while the knob is off."""
        base_sig = signature(*run_single(chaos_video(), PlannerConfig(profile_plans=False)))
        armed = PlannerConfig(
            profile_plans=False,
            enable_fault_tolerance=False,
            fault_config=FaultConfig(
                seed=11,
                transient_rate=0.5,
                corrupt_frame_rate=0.2,
                drop_frame_rate=0.2,
                dead_feeds=(("chaos", 10),),
                crash_frames=(("chaos", 20),),
                checkpoint_interval=5,
            ),
        )
        assert signature(*run_single(chaos_video(), armed)) == base_sig

    def test_enabled_with_zero_rates_is_identical(self):
        """The resilience wrapper itself is cost- and result-neutral."""
        base_sig = signature(*run_single(chaos_video(), PlannerConfig(profile_plans=False)))
        assert signature(*run_single(chaos_video(), ft_config(FaultConfig(seed=CHAOS_SEED)))) == base_sig


class TestChaosDeterminism:
    def test_same_seed_same_everything(self):
        cfg = ft_config(CHAOS, enable_tracing=True)
        s1, r1 = run_single(chaos_video(), cfg)
        s2, r2 = run_single(chaos_video(), cfg)
        assert signature(s1, r1) == signature(s2, r2)
        assert s1.last_obs.decisions.summary() == s2.last_obs.decisions.summary()
        stats = s1.last_context.scan_stats
        assert stats.faults_injected > 0
        assert stats.model_retries > 0

    def test_feed_order_invariance(self):
        """Fault draws are keyed, not ordered: the feed order is irrelevant."""
        names = ("cam-a", "cam-b")
        forward = MultiCameraSession(
            {name: chaos_video(name) for name in names}, config=ft_config(CHAOS)
        )
        backward = MultiCameraSession(
            {name: chaos_video(name) for name in reversed(names)}, config=ft_config(CHAOS)
        )
        merged = forward.execute(RedCarQuery())
        reverse = backward.execute(RedCarQuery())
        for name in names:
            assert merged.camera(name) == reverse.camera(name)
            mine, theirs = (m.sessions[name].last_context for m in (forward, backward))
            assert mine.clock.by_account == theirs.clock.by_account
            assert mine.scan_stats.as_dict() == theirs.scan_stats.as_dict()
            assert mine.scan_stats.faults_injected > 0

    @pytest.mark.parametrize("stride", [False, True])
    def test_stride_composes_deterministically(self, stride):
        cfg = ft_config(CHAOS, enable_stride_sampling=stride)
        s1, r1 = run_single(chaos_video(), cfg)
        s2, r2 = run_single(chaos_video(), cfg)
        assert signature(s1, r1) == signature(s2, r2)
        assert r1.num_frames_processed == chaos_video().num_frames


#: CHAOS plus a scheduled detector outage near the tail: degradation is then
#: guaranteed for every soak seed, not just ones whose corruption draw fires.
CHAOS_WITH_OUTAGE = replace(CHAOS, dead_models=(("yolox", 190),))


class TestDegradationAccounting:
    @pytest.mark.parametrize("stride", [False, True])
    def test_chaos_scan_completes_and_degrades_honestly(self, stride):
        """5% transient + 1% corruption + a detector outage from frame 190:
        the scan completes, non-degraded frames are identical to the
        fault-free run, and every degraded frame is accounted in the
        decision log and ``Event.skipped_frames``.  With stride sampling on,
        stride fills and fault fills share the scan, and the fault-free run
        samples with the same stride."""
        query = DurationQuery(RedCarQuery(), duration_s=1.0)
        base_cfg = PlannerConfig(profile_plans=False, enable_stride_sampling=stride)
        base_session, base = run_single(chaos_video(), base_cfg, query)
        cfg = ft_config(CHAOS_WITH_OUTAGE, enable_tracing=True, enable_stride_sampling=stride)
        session, result = run_single(chaos_video(), cfg, query)

        assert result.num_frames_processed == chaos_video().num_frames

        stats = session.last_context.scan_stats
        assert (stats.frames_interpolated > 0) == stride
        degraded = {
            d.frame_id
            for d in session.last_obs.decisions.records(action="frame-degraded")
        }
        assert degraded, "chaos run produced no degraded frames"
        assert len(degraded) == stats.frames_degraded

        # Non-degraded frames match the fault-free scan exactly.
        base_rows = dict(zip(base.matched_frames, base.matches))
        chaos_rows = dict(zip(result.matched_frames, result.matches))
        for frame_id in set(base_rows) | set(chaos_rows):
            if frame_id in degraded:
                continue
            assert chaos_rows.get(frame_id) == base_rows.get(frame_id), frame_id

        # Degraded frames inside an event span are labelled skipped.
        accounted = set()
        for event in result.events:
            accounted.update(event.skipped_frames)
            for frame_id in degraded:
                if event.start_frame <= frame_id <= event.end_frame:
                    assert frame_id in event.skipped_frames
        assert accounted <= degraded | set(base.matched_frames)

    @pytest.mark.parametrize("gating", [True, False])
    def test_dead_frame_filter_degrades_with_or_without_the_gate(self, gating):
        """Every frame-filter invocation goes through the fault layer: a
        dead filter degrades every frame whether the scan gate or the
        in-pipeline FrameFilterOp evaluates it, and is never run."""
        video = chaos_video(duration_s=5)
        cfg = ft_config(
            FaultConfig(dead_models=(("no_red_on_road", 0),)), enable_scan_gating=gating
        )
        session, result = run_single(video, cfg, GatedRedCarQuery())
        stats = session.last_context.scan_stats
        assert stats.frames_degraded == video.num_frames
        assert stats.model_failures >= video.num_frames
        assert session.last_context.clock.calls.get("no_red_on_road", 0) == 0
        assert result.matched_frames == []

    @pytest.mark.parametrize("gating", [True, False])
    def test_dead_frame_filter_fails_once_per_frame(self, gating):
        """The ``model-unavailable`` re-run of a frame whose filter failed
        past retries re-raises the remembered failure instead of invoking
        the dead filter a second time."""
        from repro.videosim.datasets import camera_clip

        video = camera_clip("jackson", duration_s=20, seed=12)
        cfg = ft_config(
            FaultConfig(dead_models=(("no_red_on_road", 0),)), enable_scan_gating=gating
        )
        session, result = run_single(video, cfg, GatedRedCarQuery())
        stats = session.last_context.scan_stats
        assert video.num_frames == 300
        assert stats.frames_degraded == 300
        assert stats.model_failures == 300
        assert result.matched_frames == []
        assert session.last_context._filter_failures == {}, "released frames keep no memo"

    def test_unknown_model_is_not_hidden_as_a_fault(self):
        """A misconfigured model name fails the query with fault tolerance
        on, exactly as with it off: only injected, retryable faults
        degrade frames."""
        video = chaos_video(duration_s=3)
        with pytest.raises(ModelError):
            run_single(video, PlannerConfig(profile_plans=False), MisconfiguredQuery())
        with pytest.raises(ModelError):
            run_single(video, ft_config(FaultConfig(seed=1)), MisconfiguredQuery())

    def test_explain_reports_fault_counters(self):
        cfg = ft_config(CHAOS_WITH_OUTAGE, enable_tracing=True)
        _, result = run_single(chaos_video(), cfg)
        report = result.explain()
        assert "Fault tolerance:" in report
        assert "retries=" in report
        assert "frame-degraded" in report

    def test_fault_free_explain_omits_fault_section(self):
        cfg = ft_config(FaultConfig(seed=CHAOS_SEED), enable_tracing=True)
        _, result = run_single(chaos_video(), cfg)
        assert "Fault tolerance:" not in result.explain()


class TestFeedIsolation:
    @staticmethod
    def feeds():
        return {name: chaos_video(name) for name in ("cam-a", "cam-b", "cam-c")}

    def test_mid_scan_feed_death_is_isolated(self):
        fault_config = FaultConfig(
            seed=11,
            transient_rate=0.05,
            corrupt_frame_rate=0.01,
            dead_feeds=(("cam-b", 80),),
        )
        multi = MultiCameraSession(self.feeds(), config=ft_config(fault_config))
        merged = multi.execute(RedCarQuery())
        assert set(merged.per_camera) == {"cam-a", "cam-c"}
        assert set(merged.feed_failures) == {"cam-b"}
        failure = merged.feed_failures["cam-b"]
        assert failure.frame_id == 80
        assert "cam-b" in failure.error
        assert multi.last_feed_failures == merged.feed_failures
        # Survivors are unaffected by the sibling's death.
        for name in ("cam-a", "cam-c"):
            solo = QuerySession(chaos_video(name), config=ft_config(fault_config)).execute(
                RedCarQuery()
            )
            assert merged.camera(name).matched_frames == solo.matched_frames

    def test_feed_death_without_ft_aborts_the_batch(self):
        cfg = PlannerConfig(
            profile_plans=False,
            enable_fault_tolerance=False,
        )
        # Without the fault layer nothing injects the death; emulate a feed
        # blowing up to check the settle-then-abort contract instead.
        multi = MultiCameraSession(self.feeds(), config=cfg)

        def boom(*a, **kw):
            raise FeedFailedError("feed 'cam-b' died", feed="cam-b", frame_id=80)

        multi.sessions["cam-b"].execute_many = boom
        with pytest.raises(ExecutionError) as excinfo:
            multi.execute(RedCarQuery())
        assert "cam-b" in str(excinfo.value)
        assert set(excinfo.value.failed_feeds) == {"cam-b"}
        assert set(excinfo.value.partial_results) == {"cam-a", "cam-c"}

    def test_all_feeds_dead_aborts_even_with_ft(self):
        fault_config = FaultConfig(
            seed=11, dead_feeds=(("cam-a", 10), ("cam-b", 10), ("cam-c", 10))
        )
        multi = MultiCameraSession(self.feeds(), config=ft_config(fault_config))
        with pytest.raises(ExecutionError):
            multi.execute(RedCarQuery())


class TestCheckpointResume:
    def test_crash_resumes_from_checkpoint_and_matches_baseline(self):
        base_session, base = run_single(chaos_video(), PlannerConfig(profile_plans=False))
        fault_config = FaultConfig(
            seed=11, crash_frames=(("chaos", 120),), checkpoint_interval=50
        )
        session, result = run_single(chaos_video(), ft_config(fault_config))
        assert result.matched_frames == base.matched_frames
        assert result.matches == base.matches
        stats = session.last_context.scan_stats
        assert stats.scan_resumes == 1
        assert stats.checkpoints_taken >= 1
        # The restored timeline is byte-identical to fault-free: the clock
        # rolls back to the checkpoint, and a checkpoint never contains the
        # read charge of its own resume frame (else every resume would
        # double-charge one video_reader call).
        base_clock = base_session.last_context.clock
        clock = session.last_context.clock
        assert clock.elapsed_ms == base_clock.elapsed_ms
        assert dict(clock.calls) == dict(base_clock.calls)
        assert dict(clock.by_account) == dict(base_clock.by_account)

    def test_crash_resume_is_deterministic(self):
        fault_config = FaultConfig(
            seed=11,
            transient_rate=0.05,
            crash_frames=(("chaos", 120),),
            checkpoint_interval=50,
        )
        sig1 = signature(*run_single(chaos_video(), ft_config(fault_config)))
        sig2 = signature(*run_single(chaos_video(), ft_config(fault_config)))
        assert sig1 == sig2

    def test_repeated_resumes_from_one_checkpoint_are_all_counted(self):
        # Both crashes land before the next checkpoint, so the second resume
        # restores the same snapshot as the first.  Restoring must neither
        # forget the first resume nor leak state into the reused snapshot.
        base_session, base = run_single(
            chaos_video(), PlannerConfig(profile_plans=False, enable_tracing=True)
        )
        fault_config = FaultConfig(
            seed=CHAOS_SEED,
            crash_frames=(("chaos", 120), ("chaos", 130)),
            checkpoint_interval=50,
            max_resumes=2,
        )
        session, result = run_single(
            chaos_video(), ft_config(fault_config, enable_tracing=True)
        )
        assert session.last_context.scan_stats.scan_resumes == 2
        assert session.last_obs.decisions.count("scan-resumed") == 2
        assert result.matched_frames == base.matched_frames
        assert result.matches == base.matches
        base_clock = base_session.last_context.clock
        clock = session.last_context.clock
        assert clock.elapsed_ms == base_clock.elapsed_ms
        assert dict(clock.calls) == dict(base_clock.calls)
        assert dict(clock.by_account) == dict(base_clock.by_account)

    @pytest.mark.parametrize(
        "crash_frames",
        [(("chaos", 120),), (("chaos", 120), ("chaos", 130))],
        ids=["one-crash", "two-crashes"],
    )
    def test_resumed_scan_counts_every_checkpoint(self, crash_frames):
        # A restore rolls ScanStats back to the snapshot, so the snapshot
        # must already count the checkpoint it was taken for.
        def run(**crash):
            fault_config = FaultConfig(
                seed=CHAOS_SEED, checkpoint_interval=50, max_resumes=2, **crash
            )
            session, _ = run_single(chaos_video(), ft_config(fault_config, enable_tracing=True))
            return session

        clean = run()
        crashed = run(crash_frames=crash_frames)
        stats = crashed.last_context.scan_stats
        assert stats.scan_resumes == len(crash_frames)
        assert stats.checkpoints_taken == clean.last_context.scan_stats.checkpoints_taken
        assert stats.checkpoints_taken == crashed.last_obs.decisions.count("checkpoint-taken")

    def test_crash_without_checkpointing_aborts(self):
        fault_config = FaultConfig(seed=CHAOS_SEED, crash_frames=(("chaos", 120),))
        with pytest.raises(ExecutionError, match="injected scan crash"):
            run_single(chaos_video(), ft_config(fault_config))

    def test_checkpointer_rejects_invalid_interval(self):
        from repro.faults import ScanCheckpointer

        with pytest.raises(ValueError):
            ScanCheckpointer(0)
        with pytest.raises(CheckpointError):
            ScanCheckpointer(10).restore()


def shared_value_samples():
    """One instance of every value type a checkpoint shares with the live scan."""
    box = BBox(10.0, 20.0, 110.0, 70.0)
    gt = GTInstance(1, "car", box, 0, {"color": "red"}, (0.8, 0.0))
    return [
        box,
        Detection("car", box, 0.9, 0, gt_object_id=1, track_id=3),
        MatchRecord(0, (("car", 3),), outputs=(3, box)),
        Event(0, 4, (("car", 3),), skipped_frames=(2,)),
        gt,
        chaos_video().frame(0),
    ]


class TestSnapshotSharing:
    @pytest.mark.parametrize("value", shared_value_samples(), ids=lambda v: type(v).__name__)
    def test_shared_value_types_are_frozen_and_deep_copy_as_themselves(self, value):
        assert is_dataclass(value) and type(value).__dataclass_params__.frozen
        assert copy.deepcopy(value) is value

    def test_snapshot_shares_records_and_copies_mutable_state(self, monkeypatch):
        captured = []
        real_capture = ScanCheckpointer.capture

        def spy(self, scheduler, next_frame):
            real_capture(self, scheduler, next_frame)
            captured.append((self, scheduler))

        monkeypatch.setattr(ScanCheckpointer, "capture", spy)
        fault_config = replace(CHAOS, checkpoint_interval=50)
        query = DurationQuery(RedCarQuery(), duration_s=1.0)
        session, result = run_single(chaos_video(), ft_config(fault_config), query)
        assert len(captured) >= 2 and result.matched_frames
        checkpointer, live = captured[-1]
        payload = checkpointer._checkpoint.payload
        snap = payload["scheduler"]
        assert snap.ctx is live.ctx
        shared = 0
        for snap_leaf, live_leaf in zip(snap._active_leaves, live._active_leaves):
            assert snap_leaf is not live_leaf
            assert snap_leaf.result is not live_leaf.result
            assert snap_leaf._grouper is not None
            assert snap_leaf._grouper is not live_leaf._grouper
            for frame_id, records in snap_leaf.result.matches.items():
                live_records = live_leaf.result.matches[frame_id]
                assert records is not live_records
                assert all(a is b for a, b in zip(records, live_records, strict=True))
                shared += len(records)
        assert shared > 0
        snap_trackers = payload["ctx_state"]["_trackers"]
        assert snap_trackers
        for key, tracker in snap_trackers.items():
            assert tracker is not live.ctx._trackers[key]


class TestResilienceUnits:
    def test_breaker_opens_cools_down_and_probes(self):
        breaker = CircuitBreaker(threshold=3, cooldown_ms=100.0)
        assert breaker.state == "closed"
        assert not breaker.record_failure(now_ms=0.0)
        assert not breaker.record_failure(now_ms=1.0)
        assert breaker.record_failure(now_ms=2.0)  # third strike opens it
        assert breaker.state == "open"
        assert not breaker.allow(now_ms=50.0)
        assert breaker.allow(now_ms=102.0)  # half-open probe admitted
        assert not breaker.record_failure(now_ms=102.0)  # probe fails: stays open
        assert not breaker.allow(now_ms=150.0)  # cooldown restarted
        assert breaker.allow(now_ms=250.0)
        assert breaker.record_success()
        assert breaker.state == "closed"

    def test_retries_charge_backoff_and_surface_transient_error(self):
        clock = SimClock()
        manager = FaultManager(
            FaultConfig(seed=1, transient_rate=1.0, max_retries=2), clock, feed="unit"
        )
        calls = []
        with pytest.raises(TransientModelError):
            manager.invoke("yolox", 0, lambda: calls.append(1))
        assert calls == []  # every attempt failed before running the model
        assert clock.by_account.get("fault-backoff", 0.0) > 0.0

    def test_timeout_charges_at_most_the_budget(self):
        clock = SimClock()
        manager = FaultManager(
            FaultConfig(seed=1, latency_spike_rate=1.0, timeout_ms=20.0, max_retries=0),
            clock,
            feed="unit",
        )

        def slow_model():
            clock.charge("model", 10.0)  # spiked 10x => 100ms > 20ms budget

        with pytest.raises(ModelTimeoutError):
            manager.invoke("yolox", 0, slow_model)
        assert clock.by_account["fault-timeout:yolox"] == pytest.approx(10.0)

    def test_open_circuit_fails_fast(self):
        clock = SimClock()
        manager = FaultManager(
            FaultConfig(
                seed=1,
                dead_models=(("yolox", 0),),
                max_retries=0,
                breaker_threshold=1,
                breaker_cooldown_ms=1e9,
            ),
            clock,
            feed="unit",
        )
        with pytest.raises(TransientModelError):
            manager.invoke("yolox", 0, lambda: None)
        assert manager.breaker("yolox").state == "open"
        with pytest.raises(TransientModelError, match="circuit open"):
            manager.invoke("yolox", 1, lambda: None)

    def test_dead_model_degrades_frames_but_scan_completes(self):
        fault_config = FaultConfig(seed=CHAOS_SEED, dead_models=(("yolox", 100),))
        session, result = run_single(chaos_video(), ft_config(fault_config))
        assert result.num_frames_processed == chaos_video().num_frames
        stats = session.last_context.scan_stats
        assert stats.circuit_opens >= 1
        assert stats.frames_degraded > 0
