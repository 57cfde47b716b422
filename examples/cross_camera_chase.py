"""Cross-camera chase: re-identification + a wall-clock global timeline.

A suspect vehicle moves between camera coverage areas.  Per-feed queries
find red-car sightings; cross-camera re-identification (cosine matching of
the tracks' re-id embeddings) recognises the *same* car when it reappears
on the next camera, and the global timeline places every sighting on one
wall-clock axis even though the feeds record at different frame rates and
started at different moments.  The chase itself is expressed with the
cross-camera temporal operator: "a red car on the highway camera, then the
same car on the bridge camera within 40 seconds".

Run with:  python examples/cross_camera_chase.py
"""

from repro import MultiCameraSession, PlannerConfig
from repro.backend.crosscamera import CrossCameraSequence
from repro.common.config import ReidConfig
from repro.frontend import Query
from repro.frontend.builtin import Car
from repro.videosim.multicam import CameraPlacement, handoff_scenario


class SuspectRedCarQuery(Query):
    """A red vehicle sighting; plates are read out for cross-referencing."""

    def __init__(self):
        self.car = Car("suspect")

    def frame_constraint(self):
        return (self.car.score > 0.5) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.license_plate)


def main() -> None:
    # Three cameras along the escape route: different frame rates, staggered
    # recording starts, and background traffic as distractors.  The scripted
    # entities cross all three in order; entity 0 is the red suspect car.
    scenario = handoff_scenario(
        cameras=(
            CameraPlacement("highway_north", fps=10, start_offset_s=0.0),
            CameraPlacement("downtown", fps=15, start_offset_s=4.0),
            CameraPlacement("bridge_cam", fps=20, start_offset_s=8.0),
        ),
        num_entities=3,
        dwell_s=6.0,
        travel_gap_s=5.0,
        background_vehicles_per_minute=4.0,
        seed=12,
    )
    config = PlannerConfig(profile_plans=False, reid=ReidConfig())
    session = MultiCameraSession(
        scenario.videos, config=config, start_offsets=scenario.start_offsets
    )

    merged = session.execute(SuspectRedCarQuery())
    links = session.last_links

    print(f"cameras searched: {', '.join(merged.cameras)}")
    print(f"tracks linked   : {len(links.identities)} -> {links.num_identities} global identities")
    print(f"cross-camera ids: {sorted(links.cross_camera_identities())}\n")

    print("sightings on the global wall clock:")
    timeline = merged.timeline
    for camera, event in merged.merged_events():
        start_ts, end_ts = timeline.event_interval(camera, event)
        gids = sorted(
            {
                links.global_id(camera, tid)
                for _, tid in event.signature
                if isinstance(tid, int) and links.global_id(camera, tid) is not None
            }
        )
        print(
            f"  {start_ts:7.2f}s - {end_ts:7.2f}s  [{camera:>13}]  "
            f"frames {event.start_frame}-{event.end_frame}, identity {gids or '?'}"
        )

    print("\nstitched chase arcs (one span per identity):")
    for span in merged.global_events():
        if not span.is_cross_camera:
            continue
        print(
            f"  identity {span.global_id}: {span.start_ts:.2f}s -> {span.end_ts:.2f}s "
            f"across {' -> '.join(span.cameras)} ({span.num_segments} sightings)"
        )

    chase = CrossCameraSequence(
        SuspectRedCarQuery(),
        first_camera="highway_north",
        second_camera="bridge_cam",
        max_gap_s=40.0,
    )
    pairs = session.execute_sequence(chase)
    print("\n'red car on highway_north, then the SAME car on bridge_cam within 40s':")
    if not pairs:
        print("  no matching chase in these clips")
    for pair in pairs:
        (cam_a, ev_a), (cam_b, ev_b) = pair.segments
        gap = timeline.event_interval(cam_b, ev_b)[0] - timeline.event_interval(cam_a, ev_a)[1]
        print(
            f"  identity {pair.global_id}: seen on {cam_a} until {timeline.event_interval(cam_a, ev_a)[1]:.2f}s, "
            f"reappears on {cam_b} {gap:.1f}s later"
        )


if __name__ == "__main__":
    main()
