"""Live-ingestion benches: graceful degradation under sustained overload.

Drives a standing query from a paced feed delivering frames 10x faster
than the scan can process them and gates on the three promises live mode
makes: the ingest buffer never exceeds its hard cap while alerts keep
flowing, every delivered frame is accounted exactly once
(processed + shed + late_dropped == delivered), and degradation is
ordered — the scheduler's pressure stride coarsens *before* the first
hard frame drop, so accuracy is shed ahead of data.  A disconnect bench
gates recovery: the watchdog reconnects and standing-query state
survives the outage.
"""

from __future__ import annotations

from dataclasses import replace

from _bench_output import record_bench
from _scale import scaled

from repro.backend.live import LiveSession
from repro.backend.planner import PlannerConfig
from repro.backend.session import QuerySession
from repro.common.config import LiveConfig, ObsConfig, StrideConfig, VideoSpec
from repro.frontend.builtin import Car
from repro.frontend.query import Query
from repro.videosim.entities import ObjectSpec
from repro.videosim.livefeed import LiveFeed
from repro.videosim.trajectory import LinearTrajectory
from repro.videosim.video import SyntheticVideo

#: Hard bound on buffered frames during the overload run (the config cap).
BUFFER_CAP = 64
#: Overload factor: feed fps vs the recording's native 10 fps.
OVERLOAD_X = 10

LIVE_OVERLOAD = PlannerConfig(
    profile_plans=False, live=LiveConfig(), stride=StrideConfig(), obs=ObsConfig()
)


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


def live_video(duration_s: float) -> SyntheticVideo:
    spec = VideoSpec("livecam", fps=10, width=640, height=480, duration_s=duration_s)
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


def _live_run(video: SyntheticVideo, feed: LiveFeed, config: PlannerConfig):
    session = LiveSession(feed, config=config)
    stats = session.run([RedCarQuery()])
    return session, stats


def test_overload_sheds_accuracy_before_frames(benchmark):
    duration = scaled(60.0, minimum=20.0)
    video = live_video(duration)
    config = replace(LIVE_OVERLOAD, live=LiveConfig(max_buffered_frames=BUFFER_CAP))

    def run():
        feed = LiveFeed(video, fps=10 * OVERLOAD_X, seed=11)
        return _live_run(video, feed, config)

    session, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    accounted = stats.frames_processed + stats.frames_shed + stats.frames_late_dropped
    records = session.last_obs.decisions.records()
    first_raise = next(
        (i for i, d in enumerate(records) if d.action == "pressure-stride-raised"),
        None,
    )
    first_shed = next(
        (i for i, d in enumerate(records) if d.action == "frame-shed"), None
    )
    print()
    print(
        f"{OVERLOAD_X}x overload: delivered={stats.frames_delivered} "
        f"processed={stats.frames_processed} shed={stats.frames_shed} "
        f"late_dropped={stats.frames_late_dropped}\n"
        f"peak_buffered={stats.peak_buffered} (cap {BUFFER_CAP}) "
        f"peak_pressure_stride={stats.peak_pressure_stride} "
        f"alerts={stats.alerts_emitted}"
    )
    record_bench(
        "live_ingestion",
        "overload_degradation",
        {
            "overload_x": OVERLOAD_X,
            "buffer_cap": BUFFER_CAP,
            "stats": stats.as_dict(),
            "accounted": accounted,
            "first_pressure_raise_index": first_raise,
            "first_shed_index": first_shed,
        },
    )
    # Gate (a): memory bounded while answers still flow.
    assert stats.peak_buffered <= BUFFER_CAP
    assert stats.alerts_emitted > 0
    # Gate (b): exact accounting — every delivered frame has one fate.
    assert accounted == stats.frames_delivered
    # Gate (c): accuracy shed before data — the stride floor rose before
    # (or instead of) the first hard drop.
    assert first_raise is not None
    if first_shed is not None:
        assert first_raise < first_shed


def test_clean_replay_matches_batch(benchmark):
    duration = scaled(60.0, minimum=20.0)
    video = live_video(duration)

    def run():
        session = LiveSession(
            LiveFeed(video),
            config=PlannerConfig(profile_plans=False, live=LiveConfig()),
        )
        stats = session.run([RedCarQuery()])
        return session, stats

    session, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    live_events = sorted(
        (a.event.start_frame, a.event.end_frame, a.event.signature)
        for a in session.alerts()
    )
    batch = QuerySession(
        video, config=PlannerConfig(profile_plans=False)
    ).execute_many([RedCarQuery()], ensure_events=True)
    batch_events = sorted(
        (e.start_frame, e.end_frame, e.signature) for r in batch for e in r.events
    )
    print()
    print(
        f"replay: processed={stats.frames_processed}/{video.num_frames} "
        f"events live={len(live_events)} batch={len(batch_events)}"
    )
    record_bench(
        "live_ingestion",
        "replay_equality",
        {
            "stats": stats.as_dict(),
            "live_events": len(live_events),
            "batch_events": len(batch_events),
            "equal": live_events == batch_events,
        },
    )
    assert stats.frames_processed == video.num_frames
    assert stats.frames_shed == 0 and stats.frames_late_dropped == 0
    assert live_events == batch_events


def test_disconnect_recovery_keeps_standing_state(benchmark):
    duration = scaled(60.0, minimum=20.0)
    video = live_video(duration)
    outage_start = duration * 1000.0 * 0.4
    outage_end = duration * 1000.0 * 0.55
    config = PlannerConfig(profile_plans=False, live=LiveConfig(stall_timeout_ms=300.0))

    def run():
        feed = LiveFeed(video, disconnects=[(outage_start, outage_end)])
        return _live_run(video, feed, config)

    session, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        f"outage [{outage_start:.0f}, {outage_end:.0f}]ms: "
        f"lost={stats.frames_lost} reconnects={stats.reconnects} "
        f"stalls={stats.stalls} processed={stats.frames_processed}"
    )
    record_bench(
        "live_ingestion",
        "disconnect_recovery",
        {
            "outage_ms": [outage_start, outage_end],
            "stats": stats.as_dict(),
        },
    )
    assert stats.reconnects >= 1
    assert stats.frames_lost > 0
    # One scheduler processed frames on both sides of the outage.
    assert stats.frames_processed == video.num_frames - stats.frames_lost
    assert stats.frames_delivered == (
        stats.frames_processed + stats.frames_shed + stats.frames_late_dropped
    )
