"""Fault-tolerance benches: recovery overhead under chaos.

Measures the virtual-time cost of surviving faults: a chaos run (5%
transient model failures, 1% frame corruption) must complete with a
detector budget within 1.5x the fault-free run — retries, backoff, and
degradation are bounded overhead, not a meltdown — and checkpoint/resume
must recover a crashed scan onto the exact fault-free virtual timeline
(the clock rolls back to the checkpoint, so delivered cost never double
counts the replayed gap).
"""

from __future__ import annotations

from _bench_output import record_bench
from _scale import scaled

from repro.backend.planner import PlannerConfig
from repro.backend.session import QuerySession
from repro.common.config import FaultConfig, VideoSpec
from repro.frontend.builtin import Car
from repro.frontend.query import Query
from repro.videosim.entities import ObjectSpec
from repro.videosim.trajectory import LinearTrajectory
from repro.videosim.video import SyntheticVideo

#: Recovery-overhead gate: chaos-run detector budget vs fault-free.
MAX_OVERHEAD = 1.5

CHAOS = FaultConfig(seed=11, transient_rate=0.05, corrupt_frame_rate=0.01)


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


def chaos_video(duration_s: float) -> SyntheticVideo:
    spec = VideoSpec("chaos", fps=10, width=640, height=480, duration_s=duration_s)
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
    return SyntheticVideo(spec, cars, seed=3)


def _run(duration_s: float, config: PlannerConfig):
    session = QuerySession(chaos_video(duration_s), config=config)
    result = session.execute(RedCarQuery())
    clock = session.last_context.clock
    return {
        "total_ms": round(clock.elapsed_ms, 1),
        "detector_ms": round(clock.by_account.get("yolox", 0.0), 1),
        "detector_calls": clock.calls.get("yolox", 0),
        "stats": session.last_context.scan_stats.as_dict(),
        "matched_frames": len(result.matched_frames),
    }


def test_recovery_overhead_under_chaos(benchmark):
    duration = scaled(120.0, minimum=20.0)

    def run_both():
        clean = _run(duration, PlannerConfig(profile_plans=False))
        chaos = _run(
            duration,
            PlannerConfig(
                profile_plans=False, faults=CHAOS
            ),
        )
        return clean, chaos

    clean, chaos = benchmark.pedantic(run_both, rounds=1, iterations=1)
    overhead = chaos["detector_ms"] / max(clean["detector_ms"], 1e-9)
    print()
    print(
        f"fault-free detector: {clean['detector_ms']}ms / {clean['detector_calls']} calls\n"
        f"chaos detector:      {chaos['detector_ms']}ms / {chaos['detector_calls']} calls "
        f"(overhead {overhead:.2f}x, gate {MAX_OVERHEAD}x)\n"
        f"retries={chaos['stats']['model_retries']} "
        f"degraded={chaos['stats']['frames_degraded']} "
        f"injected={chaos['stats']['faults_injected']}"
    )
    record_bench(
        "fault_tolerance",
        "recovery_overhead",
        {
            "fault_free": clean,
            "chaos": chaos,
            "detector_overhead_x": round(overhead, 3),
            "gate_max_overhead_x": MAX_OVERHEAD,
        },
    )
    # The scan must complete every frame and stay within the overhead gate.
    assert chaos["stats"]["frames_scanned"] == clean["stats"]["frames_scanned"]
    assert chaos["stats"]["faults_injected"] > 0
    assert overhead <= MAX_OVERHEAD


def test_checkpoint_resume_cheaper_than_rescan(benchmark):
    duration = scaled(120.0, minimum=20.0)
    frames = int(duration * 10)
    crash_at = int(frames * 0.6)
    interval = max(frames // 8, 1)

    def run_crash():
        return _run(
            duration,
            PlannerConfig(
                profile_plans=False,
                faults=FaultConfig(
                    seed=11,
                    crash_frames=(("chaos", crash_at),),
                    checkpoint_interval=interval,
                ),
            ),
        )

    crash = benchmark.pedantic(run_crash, rounds=1, iterations=1)
    clean = _run(duration, PlannerConfig(profile_plans=False))
    budget_ratio = crash["detector_ms"] / max(clean["detector_ms"], 1e-9)
    print()
    print(
        f"crash+resume detector budget: {crash['detector_ms']}ms "
        f"vs fault-free {clean['detector_ms']}ms (ratio {budget_ratio:.2f}x)\n"
        f"checkpoints={crash['stats']['checkpoints_taken']} "
        f"resumes={crash['stats']['scan_resumes']}"
    )
    record_bench(
        "fault_tolerance",
        "checkpoint_resume",
        {
            "fault_free": clean,
            "crash_resume": crash,
            "detector_budget_ratio_x": round(budget_ratio, 3),
            "crash_frame": crash_at,
            "checkpoint_interval": interval,
        },
    )
    # Delivered results match a fault-free run...
    assert crash["matched_frames"] == clean["matched_frames"]
    assert crash["stats"]["scan_resumes"] == 1
    # ...and the virtual timeline contains each delivered frame exactly once:
    # the clock rolls back to the checkpoint on restore, so the replayed gap
    # re-charges deterministically and the delivered budget equals fault-free
    # (a naive restart-from-zero would land well above 1x).
    assert budget_ratio == 1.0
