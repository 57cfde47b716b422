"""Result records returned by the execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.common.values import shared_value

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.backend.crosscamera import CrossCameraLinks, GlobalEvent, GlobalTimeline
    from repro.obs.explain import ExplainData


@shared_value
@dataclass(frozen=True)
class MatchRecord:
    """One matching binding (objects for each query variable) on one frame."""

    frame_id: int
    #: variable name -> object identity: the track id, or an ``"@<node_id>"``
    #: positional fallback when the plan has no tracker.
    binding: Tuple[Tuple[str, Any], ...]
    #: Values of the query's frame_output expressions.
    outputs: Tuple[Any, ...] = ()
    #: Whether the binding satisfies the frame-level constraint.
    frame_match: bool = True
    #: Whether the binding also satisfies the video-level constraint.
    video_match: bool = False
    #: Values of the video_output aggregate expressions (aligned by index).
    aggregate_values: Tuple[Any, ...] = ()

    @property
    def signature(self) -> Tuple[Tuple[str, Any], ...]:
        """Identity of the participating objects (used to group events)."""
        return self.binding


@shared_value
@dataclass(frozen=True)
class Event:
    """A time interval during which a condition held for a fixed object set."""

    start_frame: int
    end_frame: int
    signature: Tuple[Tuple[str, Optional[int]], ...] = ()
    label: str = ""
    #: Frames inside [start_frame, end_frame] that the scan scheduler's
    #: frame-filter gate skipped (never ran detectors on).  The reported
    #: range stays contiguous; this records where it was sampled.
    skipped_frames: Tuple[int, ...] = ()

    @property
    def num_frames(self) -> int:
        return self.end_frame - self.start_frame + 1

    @property
    def num_observed_frames(self) -> int:
        """Frames in the range that were actually inspected (not gate-skipped)."""
        return self.num_frames - len(self.skipped_frames)


@dataclass
class QueryResult:
    """The full result of executing one query over one video."""

    query_name: str
    num_frames_processed: int = 0
    matched_frames: List[int] = field(default_factory=list)
    #: frame_id -> match records for that frame (only frames with matches).
    matches: Dict[int, List[MatchRecord]] = field(default_factory=dict)
    #: Video-level aggregate results keyed by the aggregate's label.
    aggregates: Dict[str, Any] = field(default_factory=dict)
    #: label -> aggregate kind ("count_distinct", "max_per_frame", ...); lets
    #: multi-camera merging combine each aggregate the right way.
    aggregate_kinds: Dict[str, str] = field(default_factory=dict)
    #: Duration / temporal events (higher-order queries).
    events: List[Event] = field(default_factory=list)
    #: Virtual milliseconds charged while processing each frame (in order).
    per_frame_ms: List[float] = field(default_factory=list)
    total_ms: float = 0.0
    cost_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Number of property computations avoided by intrinsic reuse.
    reuse_hits: int = 0
    plan_variant: str = "base"
    #: EXPLAIN ANALYZE payload attached by the executor when tracing is
    #: enabled (``PlannerConfig.enable_tracing``).  Excluded from equality
    #: and repr so traced and untraced results compare byte-identical.
    obs: Optional["ExplainData"] = field(default=None, compare=False, repr=False)

    def explain(self) -> str:
        """EXPLAIN ANALYZE-style report: planner candidates (estimated vs.
        profiled vs. actual cost), gate hit rates, the stride timeline,
        detector-budget consumption, and the decision summary."""
        if self.obs is None:
            raise ValueError(
                "no observability data on this result — execute with "
                "PlannerConfig(enable_tracing=True) to populate explain()"
            )
        from repro.obs.explain import render_explain

        return render_explain(self.obs)

    @property
    def num_matches(self) -> int:
        return sum(len(records) for records in self.matches.values())

    @property
    def ms_per_frame(self) -> float:
        if self.num_frames_processed == 0:
            return 0.0
        return self.total_ms / self.num_frames_processed

    def all_records(self) -> List[MatchRecord]:
        out: List[MatchRecord] = []
        for frame_id in sorted(self.matches):
            out.extend(self.matches[frame_id])
        return out

    def video_records(self) -> List[MatchRecord]:
        return [r for r in self.all_records() if r.video_match]

    def distinct_tracks(self, var_name: Optional[str] = None) -> set:
        """Distinct track ids across matches (optionally for one variable).

        Only real tracker-assigned ids count; the positional ``"@<node_id>"``
        fallback identities of untracked plans are not object identities.
        """
        tracks = set()
        for record in self.all_records():
            for name, track_id in record.binding:
                if not isinstance(track_id, int):
                    continue
                if var_name is None or name == var_name:
                    tracks.add((name, track_id))
        return tracks


@dataclass(frozen=True)
class FeedFailure:
    """Structured status of one camera feed that died during an execution.

    Attached to :attr:`MultiCameraResult.feed_failures` when per-feed
    isolation (``enable_fault_tolerance``) lets the surviving feeds finish;
    the failed feed simply has no entry in ``per_camera``.
    """

    #: The feed's alias in the session (the ``per_camera`` key it would have had).
    feed: str
    #: Human-readable failure description (the underlying error message).
    error: str
    #: Frame the feed died at, when known (injected feed death records it).
    frame_id: Optional[int] = None


@dataclass
class MultiCameraResult:
    """One query's results sharded across several camera feeds.

    Cameras keep their insertion order (the order the session was built
    with), so every merged view below is deterministic.
    """

    query_name: str
    #: camera name -> that feed's QueryResult (insertion-ordered).
    per_camera: Dict[str, QueryResult] = field(default_factory=dict)
    #: camera name -> structured failure status for feeds that died mid-scan
    #: under fault-tolerant execution (empty when every feed survived; never
    #: populated with fault tolerance off — a dead feed then aborts the batch
    #: with :class:`~repro.common.errors.ExecutionError`).
    feed_failures: Dict[str, FeedFailure] = field(default_factory=dict)
    #: Cross-camera identity links (set by the session when
    #: ``enable_cross_camera_reid`` is on; None otherwise).
    links: Optional["CrossCameraLinks"] = None
    #: The wall-clock timeline the feeds are aligned on (set alongside
    #: ``links``; None keeps the frame-ordered PR-4 merge semantics).
    timeline: Optional["GlobalTimeline"] = None

    def camera(self, name: str) -> QueryResult:
        try:
            return self.per_camera[name]
        except KeyError:
            raise KeyError(f"no camera {name!r}; have {sorted(self.per_camera)}") from None

    @property
    def cameras(self) -> List[str]:
        return list(self.per_camera)

    def __iter__(self) -> Iterator[Tuple[str, QueryResult]]:
        return iter(self.per_camera.items())

    # -- merged views ------------------------------------------------------
    @property
    def total_ms(self) -> float:
        """Total virtual compute across all feeds."""
        return sum(r.total_ms for r in self.per_camera.values())

    @property
    def num_matches(self) -> int:
        return sum(r.num_matches for r in self.per_camera.values())

    @property
    def num_frames_processed(self) -> int:
        return sum(r.num_frames_processed for r in self.per_camera.values())

    def matched_frames(self) -> Dict[str, List[int]]:
        """Matching frame ids per camera (frame ids are feed-local)."""
        return {name: list(r.matched_frames) for name, r in self.per_camera.items()}

    def merged_events(self) -> List[Tuple[str, Event]]:
        """All events across feeds, tagged with their camera, in time order.

        Without a timeline, "time" is the feed-local frame id (the PR-4
        merge; only meaningful when the feeds are frame-aligned).  When the
        session attached a :class:`GlobalTimeline` (cross-camera re-id
        runs), events order by their wall-clock interval instead, so feeds
        with different frame rates and start offsets interleave correctly.
        Ties break by camera name either way, keeping the merge
        deterministic regardless of per-feed event counts.
        """
        tagged = [
            (name, event)
            for name, result in self.per_camera.items()
            for event in result.events
        ]
        if self.timeline is not None:
            return self.timeline.order_events(tagged)
        tagged.sort(key=lambda pair: (pair[1].start_frame, pair[1].end_frame, pair[0]))
        return tagged

    # -- cross-camera views (require enable_cross_camera_reid) ----------------
    def global_tracks(self) -> Dict[int, List[Tuple[str, int]]]:
        """global identity -> this query's (camera, track_id) sightings.

        Restricted to tracks that actually appear in this query's match
        records; the session-wide assignment (every track of every feed)
        lives on ``links.global_tracks()``.
        """
        from repro.backend.crosscamera import require_links

        links = require_links(self.links, "MultiCameraResult.global_tracks()")
        out: Dict[int, List[Tuple[str, int]]] = {}
        for camera, result in self.per_camera.items():
            for _, track_id in sorted(result.distinct_tracks(), key=lambda t: t[1]):
                gid = links.identities.get((camera, track_id))
                if gid is not None and (camera, track_id) not in out.get(gid, ()):
                    out.setdefault(gid, []).append((camera, track_id))
        return {gid: members for gid, members in sorted(out.items())}

    def global_events(self, max_gap_s: Optional[float] = None) -> List["GlobalEvent"]:
        """Per-identity spans stitching this query's events across cameras.

        ``max_gap_s`` splits an identity's story when it goes unseen longer
        than that (plus the clock-skew tolerance); the default ``None``
        keeps each identity's whole sighting history as one span.
        """
        from repro.backend.crosscamera import require_links, stitch_global_events

        links = require_links(self.links, "MultiCameraResult.global_events()")
        if self.timeline is None:
            raise ValueError("global_events() needs the session's GlobalTimeline")
        return stitch_global_events(self.merged_events(), links, self.timeline, max_gap_s)

    def cost_breakdown(self) -> Dict[str, float]:
        """Per-account virtual-ms summed across feeds.

        Each feed's breakdown covers the scan the query ran in (shared with
        its batch mates, like ``QueryResult.cost_breakdown``); the sum here
        is the multi-camera view of that same accounting.
        """
        merged: Dict[str, float] = {}
        for result in self.per_camera.values():
            for account, ms in result.cost_breakdown.items():
                merged[account] = merged.get(account, 0.0) + ms
        return dict(sorted(merged.items(), key=lambda kv: -kv[1]))

    def merged_aggregates(self) -> Dict[str, Any]:
        """Combine per-camera aggregates under each label, by aggregate kind.

        Counts (``count_distinct``, event counts) sum across feeds.
        ``max_per_frame`` takes the maximum (it is an extremum, not a
        count), ``collect`` lists concatenate in camera order, and
        ``average_per_frame`` merges as a frame-weighted average.  Labels
        without kind metadata fall back to the same rules keyed on the
        value's type (lists concatenate, ints sum, floats average).

        Caveat: only the per-feed *counts* survive into ``aggregates``, so
        summed ``count_distinct`` is exact for feed-local identities (track
        ids) but over-counts values that can recur across feeds (license
        plates, colors).  For a cross-feed distinct count, aggregate with
        ``collect`` and dedupe the concatenated values instead.
        """
        merged: Dict[str, Any] = {}
        weights: Dict[str, int] = {}
        for result in self.per_camera.values():
            frames = max(result.num_frames_processed, 1)
            for label, value in result.aggregates.items():
                kind = result.aggregate_kinds.get(label, "")
                if label not in merged:
                    merged[label] = list(value) if isinstance(value, list) else value
                    weights[label] = frames
                elif kind == "collect" or isinstance(value, list):
                    merged[label] = list(merged[label]) + list(value)
                elif kind == "max_per_frame":
                    merged[label] = max(merged[label], value)
                elif kind == "average_per_frame":
                    seen = weights[label]
                    merged[label] = (merged[label] * seen + value * frames) / (seen + frames)
                    weights[label] = seen + frames
                elif kind in ("count_distinct", "count"):
                    merged[label] += value
                elif isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue  # non-numeric without kind: keep the first camera's value
                elif isinstance(value, int) and isinstance(merged[label], int):
                    merged[label] += value
                else:
                    seen = weights[label]
                    merged[label] = (merged[label] * seen + value * frames) / (seen + frames)
                    weights[label] = seen + frames
        return merged
