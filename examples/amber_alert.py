"""Amber-alert as a *standing query*: live monitoring with immediate alerts.

The paper's amber-alert query (§4.2, §4.4) — a red car whose license plate
ends in "45" — is not a question you ask of a recording once; it is a query
that stands against a camera feed indefinitely, alerting the moment the
vehicle is seen.  This demo runs it in live mode (`live=LiveConfig()`):

* Stage 1 registers two standing queries against a paced live feed with
  an alert-sink callback — the plate-specific alert and the broadcast
  "be on the lookout for a red car" sighting — and every closed event
  prints the moment the engine closes it, mid-stream, instead of
  accumulating in a `QueryResult`.  A mid-stream disconnect shows the
  watchdog reconnecting with standing-query state intact.
* Stage 2 turns the pressure up — the feed delivers 8x faster than the
  scan can process, with jitter and out-of-order delivery — and shows
  graceful degradation: the stride coarsens before any frame is dropped
  and the final accounting is exact (delivered == processed + shed +
  late).
* Stage 3 chases the same vehicle across a camera network with
  cross-camera re-identification (the batch side of an actual manhunt).

Run with:  python examples/amber_alert.py
"""

from repro import LiveSession, MultiCameraSession, PlannerConfig
from repro.backend.crosscamera import CrossCameraSequence
from repro.backend.live import CallbackSink
from repro.common.config import LiveConfig, ReidConfig, StrideConfig
from repro.frontend import Query
from repro.frontend.builtin import RedCar
from repro.videosim import datasets
from repro.videosim.livefeed import LiveFeed
from repro.videosim.multicam import CameraPlacement, handoff_scenario


class AmberAlertQuery(Query):
    """A red car with a license plate ending in '45'."""

    def __init__(self):
        self.car = RedCar("red_car")

    def frame_constraint(self):
        return (
            (self.car.score > 0.5)
            & (self.car.color == "red")
            & self.car.license_plate.endswith("45")
        )

    def frame_output(self):
        return (self.car.track_id, self.car.license_plate, self.car.bbox)


class RedCarSightingQuery(Query):
    """Any red-car sighting (the per-camera side of the chase)."""

    def __init__(self):
        self.car = RedCar("red_car")

    def frame_constraint(self):
        return (self.car.score > 0.5) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.license_plate)


def on_alert(alert) -> None:
    event = alert.event
    print(
        f"  ALERT [{alert.feed}] {alert.query_name}: "
        f"frames {event.start_frame}-{event.end_frame} "
        f"(emitted at t={alert.emitted_at_ms / 1000:.1f}s virtual)"
    )


def main() -> None:
    # ---- stage 1: standing queries, alerting as events close --------------
    video = datasets.camera_clip("jackson", duration_s=90, seed=11)
    live_cfg = PlannerConfig(profile_plans=False, live=LiveConfig(stall_timeout_ms=500.0))

    print("standing queries against the live feed (with a 2 s outage):")
    feed = LiveFeed(video, disconnects=[(30_000.0, 32_000.0)])
    session = LiveSession(feed, config=live_cfg, sinks=[CallbackSink(on_alert)])
    stats = session.run([AmberAlertQuery(), RedCarSightingQuery()])
    print(
        f"  feed ended: {stats.frames_processed}/{stats.frames_delivered} "
        f"frames processed, {stats.alerts_emitted} alert(s)"
    )
    print(
        f"  watchdog: {stats.stalls} stall(s), {stats.reconnects} reconnect(s), "
        f"{stats.frames_lost} frame(s) lost to the outage — "
        f"standing-query state survived"
    )

    # ---- stage 2: sustained overload, degrading gracefully ----------------
    print("\nsame queries, 8x overload with jitter and reordering:")
    stressed = LiveFeed(
        video, fps=video.fps * 8, jitter_ms=5.0, reorder_rate=0.05, seed=11
    )
    stress_config = PlannerConfig(profile_plans=False, live=LiveConfig(), stride=StrideConfig())
    session = LiveSession(stressed, config=stress_config)
    stats = session.run([AmberAlertQuery(), RedCarSightingQuery()])
    print(
        f"  accounting: delivered={stats.frames_delivered} = "
        f"processed {stats.frames_processed} + shed {stats.frames_shed} "
        f"+ late-dropped {stats.frames_late_dropped}"
    )
    print(
        f"  degradation: peak stride {stats.peak_pressure_stride} "
        f"(raised {stats.pressure_raises}x before any drop), "
        f"peak buffered {stats.peak_buffered}, "
        f"{stats.alerts_emitted} alert(s) still emitted"
    )

    # ---- stage 3: chain the cameras along the alert corridor --------------
    scenario = handoff_scenario(
        cameras=(
            CameraPlacement("school_zone", fps=15, start_offset_s=0.0),
            CameraPlacement("main_street", fps=10, start_offset_s=5.0),
            CameraPlacement("interstate_onramp", fps=20, start_offset_s=10.0),
        ),
        num_entities=2,
        dwell_s=5.0,
        travel_gap_s=8.0,
        background_vehicles_per_minute=5.0,
        seed=45,
    )
    chase_config = PlannerConfig(profile_plans=False, reid=ReidConfig())
    network = MultiCameraSession(
        scenario.videos, config=chase_config, start_offsets=scenario.start_offsets
    )
    alert = CrossCameraSequence(
        RedCarSightingQuery(),
        first_camera="school_zone",
        max_gap_s=60.0,
    )
    pairs = network.execute_sequence(alert)
    timeline = network.timeline()

    print("\namber alert across the camera network:")
    print(f"  cameras: {', '.join(network.cameras)}")
    print(f"  identities linked: {network.last_links.num_identities}")
    if not pairs:
        print("  suspect not re-acquired downstream")
    for pair in pairs:
        (cam_a, ev_a), (cam_b, ev_b) = pair.segments
        lost = timeline.event_interval(cam_a, ev_a)[1]
        found = timeline.event_interval(cam_b, ev_b)[0]
        print(
            f"  identity {pair.global_id}: left {cam_a} at {lost:.1f}s, "
            f"re-acquired on {cam_b} at {found:.1f}s (+{found - lost:.1f}s)"
        )


if __name__ == "__main__":
    main()
