"""Cross-camera re-identification and wall-clock-aligned global timelines.

The paper's headline workloads — amber alerts, hit-and-run reconstruction,
cross-camera chases — are inherently multi-feed: an object must be
recognised as *the same object* when it reappears on another camera, and
events from feeds with different frame rates must be ordered on one shared
wall-clock axis.  This module supplies both halves:

* :class:`ReidMatcher` — links tracks across feeds by cosine-matching their
  re-id embeddings (the ``feature_vector`` intrinsic, cached by object-level
  reuse, or a fresh ``reid_feature`` invocation on a cache miss) against a
  growing gallery of global identities.  Assignment within a camera is
  one-to-one (Hungarian, or greedy as a cheaper fallback), so two tracks
  from the same feed can never collapse into one identity.  Matching work is
  charged to a :class:`~repro.common.clock.SimClock` like every other model.
* :class:`GlobalTimeline` — maps each feed's ``frame_id / fps`` (plus a
  per-camera start offset) onto the shared wall-clock axis, so feeds with
  different frame rates and staggered recording starts merge into one
  ordered timeline.
* :class:`GlobalEvent` / :func:`stitch_global_events` — stitch the
  per-camera events of one global identity into camera-spanning story arcs.
* :class:`CrossCameraSequence` / :func:`pair_cross_camera_events` — the
  cross-camera temporal operator: "a red car on camera A, then the *same*
  car on camera B within 30 seconds".  Per-feed sides compile to the
  existing streaming machinery (each feed's batch still runs as one adaptive
  scan); only the identity-aware wall-clock pairing happens here.

Everything in this module is read-only over finished per-feed results: the
unlinked path (``PlannerConfig.reid`` None, the default) leaves
multi-camera execution byte-identical to the unlinked merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backend.results import Event
from repro.common.clock import SimClock
from repro.common.config import ReidConfig
from repro.common.errors import ExecutionError
from repro.index.schema import KIND_EMBEDDING
from repro.metrics.accuracy import PrecisionRecall
from repro.models.base import Detection
from repro.models.properties import FeatureVectorModel
from repro.obs.core import DISABLED, Obs


# ---------------------------------------------------------------------------
# Track profiles and link results
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrackProfile:
    """One feed-local track as seen by the cross-camera matcher."""

    camera: str
    track_id: int
    class_name: str
    #: Unit-norm re-id embedding (cached intrinsic value or a fresh model call).
    embedding: np.ndarray
    #: Frame span the track was actually observed over (feed-local ids).
    first_frame: int
    last_frame: int
    #: The last real (tracker-observed) detection backing the embedding.
    source: Optional[Detection] = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.camera, self.track_id)


@dataclass
class CrossCameraLinks:
    """The identity assignment produced by one :meth:`ReidMatcher.link` run."""

    #: (camera, track_id) -> global identity id (dense, 0-based).
    identities: Dict[Tuple[str, int], int] = field(default_factory=dict)
    #: (camera, track_id) -> cosine similarity to the gallery identity it
    #: joined (1.0 for the identity's founding track).
    scores: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: camera -> the profiles that were linked (insertion order preserved).
    profiles: Dict[str, List[TrackProfile]] = field(default_factory=dict)
    #: The similarity threshold the assignment was made with.
    threshold: float = 0.0

    def global_id(self, camera: str, track_id: int) -> Optional[int]:
        """The global identity of a feed-local track (None if unlinked)."""
        return self.identities.get((camera, track_id))

    @property
    def num_identities(self) -> int:
        return len(set(self.identities.values()))

    def global_tracks(self) -> Dict[int, List[Tuple[str, int]]]:
        """global id -> the (camera, track_id) members, in camera order."""
        out: Dict[int, List[Tuple[str, int]]] = {}
        for key, gid in self.identities.items():
            out.setdefault(gid, []).append(key)
        return {gid: members for gid, members in sorted(out.items())}

    def cross_camera_identities(self) -> Dict[int, List[Tuple[str, int]]]:
        """Only the identities observed on more than one camera."""
        return {
            gid: members
            for gid, members in self.global_tracks().items()
            if len({camera for camera, _ in members}) > 1
        }


def reid_identity_scores(links: CrossCameraLinks) -> PrecisionRecall:
    """Pairwise identity precision/recall of a link result vs ground truth.

    Measurement-only oracle access (like every accuracy metric in this
    repo): the true identity behind a track is its source detection's
    ``gt_object_id``.  Counted over all cross-camera track pairs whose
    ground truth is known: a pair is positive when both tracks stem from
    the same ground-truth entity, predicted-positive when the matcher gave
    them the same global id.
    """
    labelled = [
        profile
        for profiles in links.profiles.values()
        for profile in profiles
        if profile.source is not None and profile.source.gt_object_id is not None
    ]
    tp = fp = fn = 0
    for i, a in enumerate(labelled):
        for b in labelled[i + 1 :]:
            if a.camera == b.camera:
                continue
            actual = a.source.gt_object_id == b.source.gt_object_id
            predicted = links.identities.get(a.key) == links.identities.get(b.key)
            if predicted and actual:
                tp += 1
            elif predicted and not actual:
                fp += 1
            elif actual and not predicted:
                fn += 1
    return PrecisionRecall(tp, fp, fn)


# ---------------------------------------------------------------------------
# The matcher
# ---------------------------------------------------------------------------


class ReidMatcher:
    """Cosine matching of track embeddings into a gallery of global identities.

    Cameras are processed in insertion order; each camera's tracks are
    assigned one-to-one against the gallery built from the preceding
    cameras (so two tracks of one feed can never share an identity), and
    unmatched tracks found new identities.  Gallery centroids are the
    renormalised mean of their member embeddings.  The whole procedure is
    deterministic for a fixed input order, which the session guarantees
    regardless of how many worker threads executed the feeds.
    """

    #: Virtual cost of one matching pass over a camera's tracks.
    MATCH_BASE_MS = 2.0
    #: Virtual cost per (track, gallery identity) similarity comparison.
    MATCH_PER_PAIR_MS = 0.02

    def __init__(
        self,
        config: Optional[ReidConfig] = None,
        clock: Optional[SimClock] = None,
        obs: Obs = DISABLED,
    ) -> None:
        self.config = config or ReidConfig()
        self.clock = clock
        self.obs = obs

    # -- assignment strategies ---------------------------------------------------
    def _assign_hungarian(self, sims: np.ndarray) -> List[Tuple[int, int]]:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-sims)
        return [
            (int(r), int(c))
            for r, c in zip(rows, cols)
            if sims[r, c] >= self.config.threshold
        ]

    def _assign_greedy(self, sims: np.ndarray) -> List[Tuple[int, int]]:
        order = np.dstack(np.unravel_index(np.argsort(-sims, axis=None), sims.shape))[0]
        taken_rows: set = set()
        taken_cols: set = set()
        pairs: List[Tuple[int, int]] = []
        for r, c in order:
            r, c = int(r), int(c)
            if sims[r, c] < self.config.threshold:
                break
            if r in taken_rows or c in taken_cols:
                continue
            pairs.append((r, c))
            taken_rows.add(r)
            taken_cols.add(c)
        return pairs

    # -- public API ----------------------------------------------------------------
    def link(self, profiles_by_camera: Mapping[str, Sequence[TrackProfile]]) -> CrossCameraLinks:
        """Assign a global identity to every profile, camera by camera."""
        links = CrossCameraLinks(threshold=self.config.threshold)
        links.profiles = {name: list(profiles) for name, profiles in profiles_by_camera.items()}
        centroids: List[np.ndarray] = []       # unit-norm gallery centroids
        sums: List[np.ndarray] = []            # running member sums
        classes: List[str] = []                # one class per identity
        for camera, profiles in links.profiles.items():
            pairs: List[Tuple[int, int]] = []
            sims = raw = None
            if profiles and centroids:
                if self.clock is not None:
                    self.clock.charge(
                        "reid_matcher",
                        self.MATCH_BASE_MS + self.MATCH_PER_PAIR_MS * len(profiles) * len(centroids),
                    )
                sims = FeatureVectorModel.similarity_matrix(
                    [p.embedding for p in profiles], centroids
                )
                # Pre-mask similarities disambiguate *why* a track went
                # unmatched (class mismatch vs genuinely below threshold).
                raw = sims.copy()
                # An identity only ever holds one object class; mismatched
                # classes are pushed below any admissible threshold.
                for i, profile in enumerate(profiles):
                    for j, class_name in enumerate(classes):
                        if profile.class_name != class_name:
                            sims[i, j] = -1.0
                if self.config.assignment == "hungarian":
                    pairs = self._assign_hungarian(sims)
                else:
                    pairs = self._assign_greedy(sims)
            matched = {i: j for i, j in pairs}
            for i, profile in enumerate(profiles):
                j = matched.get(i)
                if j is None:
                    self._note_unmatched(profile, i, sims, raw)
                    gid = len(centroids)
                    centroids.append(profile.embedding)
                    sums.append(np.asarray(profile.embedding, dtype=float).copy())
                    classes.append(profile.class_name)
                    links.scores[profile.key] = 1.0
                else:
                    gid = j
                    links.scores[profile.key] = float(sims[i, j])
                    sums[j] = sums[j] + profile.embedding
                    norm = float(np.linalg.norm(sums[j]))
                    centroids[j] = sums[j] / norm if norm > 0 else sums[j]
                links.identities[profile.key] = gid
        return links

    def _note_unmatched(self, profile: TrackProfile, i: int, sims, raw) -> None:
        """Record why a track founded a new identity instead of matching."""
        if raw is None:
            reason, best = "empty-gallery", None
        else:
            raw_best = float(raw[i].max())
            masked_best = float(sims[i].max())
            best = raw_best
            if raw_best < self.config.threshold:
                reason = "below-threshold"
            elif masked_best < self.config.threshold:
                reason = "class-mismatch"
            else:
                # Its best gallery identity cleared the threshold but was
                # won by a same-camera sibling in the one-to-one assignment.
                reason = "identity-contended"
        attrs = {} if best is None else {"best_similarity": round(best, 4)}
        self.obs.decisions.record(
            "reid-unmatched",
            reason,
            subject=f"{profile.camera}:{profile.track_id}",
            camera=profile.camera,
            track_id=profile.track_id,
            **attrs,
        )


# ---------------------------------------------------------------------------
# The global timeline
# ---------------------------------------------------------------------------


class GlobalTimeline:
    """Maps (camera, frame_id) onto one shared wall-clock axis.

    Each camera contributes its frame rate and a start offset (seconds on
    the global clock at which its frame 0 was captured), so feeds recorded
    at different frame rates — and started at different moments — become
    comparable: ``wall_clock(camera, frame_id) = offset + frame_id / fps``.
    """

    def __init__(
        self,
        fps_by_camera: Mapping[str, float],
        start_offsets: Optional[Mapping[str, float]] = None,
        max_clock_skew_s: float = 0.0,
    ) -> None:
        if not fps_by_camera:
            raise ValueError("GlobalTimeline needs at least one camera")
        for camera, fps in fps_by_camera.items():
            if fps <= 0:
                raise ValueError(f"camera {camera!r} has non-positive fps {fps}")
        offsets = dict(start_offsets or {})
        unknown = set(offsets) - set(fps_by_camera)
        if unknown:
            raise ValueError(f"start offsets for unknown cameras: {sorted(unknown)}")
        self._fps = dict(fps_by_camera)
        self._offsets = {name: float(offsets.get(name, 0.0)) for name in fps_by_camera}
        if max_clock_skew_s < 0:
            raise ValueError("max_clock_skew_s must be non-negative")
        self.max_clock_skew_s = max_clock_skew_s

    @property
    def cameras(self) -> List[str]:
        return list(self._fps)

    def _check(self, camera: str) -> None:
        if camera not in self._fps:
            raise KeyError(f"no camera {camera!r} on this timeline; have {sorted(self._fps)}")

    def fps(self, camera: str) -> float:
        self._check(camera)
        return self._fps[camera]

    def start_offset(self, camera: str) -> float:
        self._check(camera)
        return self._offsets[camera]

    def wall_clock(self, camera: str, frame_id: int) -> float:
        """Global capture time (seconds) of a feed-local frame."""
        self._check(camera)
        return self._offsets[camera] + frame_id / self._fps[camera]

    def frame_at(self, camera: str, wall_clock_s: float) -> int:
        """The feed-local frame nearest a global timestamp (clamped at 0)."""
        self._check(camera)
        return max(int(round((wall_clock_s - self._offsets[camera]) * self._fps[camera])), 0)

    def event_interval(self, camera: str, event: Event) -> Tuple[float, float]:
        """An event's (start, end) on the wall clock."""
        return (
            self.wall_clock(camera, event.start_frame),
            self.wall_clock(camera, event.end_frame),
        )

    def order_events(self, tagged: Sequence[Tuple[str, Event]]) -> List[Tuple[str, Event]]:
        """Camera-tagged events sorted by wall-clock (start, end), then camera."""
        return sorted(
            tagged,
            key=lambda pair: (*self.event_interval(pair[0], pair[1]), pair[0]),
        )


# ---------------------------------------------------------------------------
# Global (camera-spanning) events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalEvent:
    """A wall-clock span of one global identity, stitched across cameras."""

    #: The identity the span belongs to (None for events whose signature
    #: carries no linked track, e.g. untracked plans).
    global_id: Optional[int]
    start_ts: float
    end_ts: float
    #: The per-camera events making up the span, in wall-clock order.
    segments: Tuple[Tuple[str, Event], ...]

    @property
    def duration_s(self) -> float:
        return self.end_ts - self.start_ts

    @property
    def cameras(self) -> Tuple[str, ...]:
        """Cameras in order of first appearance within the span."""
        seen: List[str] = []
        for camera, _ in self.segments:
            if camera not in seen:
                seen.append(camera)
        return tuple(seen)

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def is_cross_camera(self) -> bool:
        return len(self.cameras) > 1


def _event_global_ids(camera: str, event: Event, links: CrossCameraLinks) -> List[int]:
    """The global identities referenced by an event's binding signature."""
    gids = {
        links.identities.get((camera, track_id))
        for _, track_id in event.signature
        if isinstance(track_id, int)
    }
    gids.discard(None)
    return sorted(gids)  # type: ignore[arg-type]


def _sorted_spans(spans: List[GlobalEvent]) -> List[GlobalEvent]:
    return sorted(
        spans,
        key=lambda s: (s.start_ts, s.end_ts, s.global_id is None, s.global_id or 0),
    )


def stitch_global_events(
    tagged_events: Sequence[Tuple[str, Event]],
    links: CrossCameraLinks,
    timeline: GlobalTimeline,
    max_gap_s: Optional[float] = None,
) -> List[GlobalEvent]:
    """Stitch per-camera events of each global identity into spans.

    Events whose signatures reference the same global identity are grouped,
    ordered on the wall clock, and merged into :class:`GlobalEvent` spans.
    With ``max_gap_s`` set, a silence longer than ``max_gap_s`` plus the
    timeline's clock-skew tolerance splits the identity's story into
    separate spans; by default the whole sighting history forms one span
    (the "chase arc" view).  An event that references several identities
    (multi-variable queries) contributes a segment to each; events with no
    linked track become standalone single-segment spans.
    """
    by_identity: Dict[int, List[Tuple[float, float, str, Event]]] = {}
    spans: List[GlobalEvent] = []
    for camera, event in tagged_events:
        start_ts, end_ts = timeline.event_interval(camera, event)
        gids = _event_global_ids(camera, event, links)
        if not gids:
            spans.append(
                GlobalEvent(
                    global_id=None,
                    start_ts=start_ts,
                    end_ts=end_ts,
                    segments=((camera, event),),
                )
            )
            continue
        for gid in gids:
            by_identity.setdefault(gid, []).append((start_ts, end_ts, camera, event))

    slack = timeline.max_clock_skew_s
    for gid, entries in by_identity.items():
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        current: List[Tuple[str, Event]] = []
        span_start = span_end = 0.0
        for start_ts, end_ts, camera, event in entries:
            if current and max_gap_s is not None and start_ts - span_end > max_gap_s + slack:
                spans.append(GlobalEvent(gid, span_start, span_end, tuple(current)))
                current = []
            if not current:
                span_start = start_ts
                span_end = end_ts
            current.append((camera, event))
            span_end = max(span_end, end_ts)
        if current:
            spans.append(GlobalEvent(gid, span_start, span_end, tuple(current)))
    return _sorted_spans(spans)


# ---------------------------------------------------------------------------
# The cross-camera temporal operator
# ---------------------------------------------------------------------------


class CrossCameraSequence:
    """"X on camera A, then the *same* object on camera B within T seconds."

    The per-feed sides are ordinary queries and compile to the existing
    streaming machinery (both execute in each feed's one adaptive scan);
    :meth:`~repro.backend.session.MultiCameraSession.execute_sequence` then
    pairs the resulting events across cameras on the wall clock, requiring
    the two sightings to share a global identity (unless
    ``same_identity=False``).  With ``second`` omitted, the same query is
    used for both hops — the classic chase.  Camera filters of ``None``
    accept any camera, with the two hops still required to be *different*
    cameras unless both filters explicitly name the same one.
    """

    def __init__(
        self,
        first,
        second=None,
        first_camera: Optional[str] = None,
        second_camera: Optional[str] = None,
        min_gap_s: float = 0.0,
        max_gap_s: float = 30.0,
        same_identity: bool = True,
    ) -> None:
        if max_gap_s < min_gap_s:
            raise ValueError("CrossCameraSequence: max_gap_s must be >= min_gap_s")
        self.first = first
        self.second = second if second is not None else first
        self.first_camera = first_camera
        self.second_camera = second_camera
        self.min_gap_s = min_gap_s
        self.max_gap_s = max_gap_s
        self.same_identity = same_identity

    @property
    def queries(self) -> List:
        """The distinct queries the sequence needs executed per feed."""
        return [self.first] if self.second is self.first else [self.first, self.second]


def pair_cross_camera_events(
    first_tagged: Sequence[Tuple[str, Event]],
    second_tagged: Sequence[Tuple[str, Event]],
    links: CrossCameraLinks,
    timeline: GlobalTimeline,
    sequence: CrossCameraSequence,
) -> List[GlobalEvent]:
    """Pair first-hop and second-hop events across cameras on the wall clock.

    A pair forms when the second event starts between ``min_gap_s`` and
    ``max_gap_s`` after the first event ends — widened by the timeline's
    clock-skew tolerance on both sides, since independent camera clocks may
    disagree by up to that much — and (by default) the two events share a
    global identity.  Each pair becomes a two-segment :class:`GlobalEvent`.
    """
    skew = timeline.max_clock_skew_s
    allow_same_camera = (
        sequence.first_camera is not None
        and sequence.first_camera == sequence.second_camera
    )
    # Intervals and identity sets of the second hop are loop-invariant:
    # precompute them once instead of per (first, second) combination.
    seconds = [
        (cam_b, ev_b, timeline.event_interval(cam_b, ev_b), set(_event_global_ids(cam_b, ev_b, links)))
        for cam_b, ev_b in second_tagged
        if sequence.second_camera is None or cam_b == sequence.second_camera
    ]
    pairs: List[GlobalEvent] = []
    for cam_a, ev_a in first_tagged:
        if sequence.first_camera is not None and cam_a != sequence.first_camera:
            continue
        a_start, a_end = timeline.event_interval(cam_a, ev_a)
        gids_a = set(_event_global_ids(cam_a, ev_a, links))
        for cam_b, ev_b, (b_start, b_end), gids_b in seconds:
            if cam_a == cam_b and not allow_same_camera:
                continue
            gap = b_start - a_end
            if not (sequence.min_gap_s - skew <= gap <= sequence.max_gap_s + skew):
                continue
            shared = gids_a & gids_b
            if sequence.same_identity and not shared:
                continue
            pairs.append(
                GlobalEvent(
                    global_id=min(shared) if shared else None,
                    start_ts=a_start,
                    end_ts=b_end,
                    segments=((cam_a, ev_a), (cam_b, ev_b)),
                )
            )
    return _sorted_spans(pairs)


def build_track_profiles(
    camera: str,
    ctx,
    config: ReidConfig,
    model,
    clock: Optional[SimClock] = None,
    obs: Obs = DISABLED,
) -> List[TrackProfile]:
    """Profile every track of one finished execution context.

    Embeddings come from the object-level reuse cache when the feed's
    pipelines already computed the track's ``feature_vector`` intrinsic
    (counted as a reuse hit, no model invocation); the remaining tracks'
    crops are embedded in **one batched** re-id invocation (base cost paid
    once, per-item cost per crop), charged to ``clock``.  A synthesized
    crop is never embedded: interpolation-seeded frames produce no track
    sources, and cached intrinsics *computed on* a seeded frame are
    bypassed in favour of a fresh embedding of the real source.  Tracks
    observed over fewer than ``config.min_track_frames`` frames are
    dropped entirely — sliver fragments at the frame edge and
    false-positive births would otherwise fragment identities (and waste
    embedding invocations).
    """
    cached = ctx.intrinsic_track_values(
        config.embedding_property, exclude_frames=ctx.seeded_frames
    )
    seeded_only: set = set()
    if obs.enabled and ctx.seeded_frames:
        # Tracks whose only cached intrinsic was computed on an
        # interpolation-seeded frame: the cache is bypassed and the real
        # source re-embedded — worth a decision record.
        seeded_only = set(ctx.intrinsic_track_values(config.embedding_property)) - set(cached)
    sources = ctx.track_sources()
    kept: List[Tuple[int, Detection, int]] = []  # (track_id, source, first frame)
    misses: List[Detection] = []
    for track_id in sorted(sources):
        detection = sources[track_id]
        first = ctx.track_first_seen(track_id)
        if first is None:
            first = detection.frame_id
        observed = detection.frame_id - first + 1
        if observed < config.min_track_frames:
            obs.decisions.record(
                "reid-excluded",
                "below-min-track-frames",
                subject=f"{camera}:{track_id}",
                camera=camera,
                track_id=track_id,
                observed=observed,
                required=config.min_track_frames,
            )
            continue
        kept.append((track_id, detection, first))
        if track_id in cached:
            ctx.count_reuse(config.embedding_property)
        else:
            if track_id in seeded_only:
                obs.decisions.record(
                    "reid-embedding-recomputed",
                    "seeded-frame-provenance",
                    frame_id=detection.frame_id,
                    subject=f"{camera}:{track_id}",
                    camera=camera,
                    track_id=track_id,
                )
            misses.append(detection)
    embeddings = dict(cached)
    if misses:
        # The persistent index stores embeddings keyed by *source detection*
        # (track ids are batch-local): consult it per miss, then embed only
        # the remainder in one batched invocation and write those through.
        index = ctx.index
        remaining: List[Detection] = []
        for detection in misses:
            hit, vector = index.lookup(KIND_EMBEDDING, model.name, detection, detection.frame_id)
            if hit:
                embeddings[detection.track_id] = vector
            else:
                remaining.append(detection)
        if remaining:
            # One batched call, so no single frame's fault layer applies.
            with obs.tracer.span(
                "model-invocation", clock=clock, model=model.name, kind=KIND_EMBEDDING, items=len(remaining)
            ):
                vectors = model.predict_batch(remaining, clock=clock)
            for detection, embedding in zip(remaining, vectors):
                embeddings[detection.track_id] = embedding
                index.record(KIND_EMBEDDING, model.name, detection, embedding, detection.frame_id)
    return [
        TrackProfile(
            camera=camera,
            track_id=track_id,
            class_name=detection.class_name,
            embedding=embeddings[track_id],
            first_frame=first,
            last_frame=detection.frame_id,
            source=detection,
        )
        for track_id, detection, first in kept
    ]


def require_links(links: Optional[CrossCameraLinks], what: str) -> CrossCameraLinks:
    """Raise a helpful error when a cross-camera view is used without re-id."""
    if links is None:
        raise ExecutionError(
            f"{what} needs cross-camera re-identification: enable it with "
            "PlannerConfig(reid=ReidConfig()) and re-run the batch"
        )
    return links
