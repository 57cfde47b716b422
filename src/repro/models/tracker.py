"""Object trackers: associate detections across frames into tracks.

Two trackers are provided, mirroring the ones the paper uses:

* :class:`KalmanTracker` — a SORT-style tracker (Kalman prediction +
  Hungarian assignment on IoU).  This is the "lightweight tracker based on
  the Kalman filter" of §4.2 that enables object-level computation reuse.
* :class:`IoUTracker` — a simpler greedy-IoU tracker standing in for the
  "nor-fair" tracker that EVA's ``EXTRACT_OBJECT`` uses in §5.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.common.clock import CostProfile, SimClock
from repro.common.geometry import BBox, iou_matrix, iou_matrix_xyxy
from repro.models.base import Detection, SimulatedModel
from repro.models.kalman import KalmanBoxFilter, KalmanStack


@dataclass
class Track:
    """One tracked object: a stable id plus its per-frame detections."""

    track_id: int
    class_name: str
    detections: List[Detection] = field(default_factory=list)
    misses: int = 0
    #: The Kalman filter tracking this object: a live handle onto its row of
    #: the tracker's stack (None for trackers without a motion model, e.g.
    #: :class:`IoUTracker`).
    kalman: Optional[KalmanBoxFilter] = None

    @property
    def last_detection(self) -> Detection:
        return self.detections[-1]

    @property
    def last_bbox(self) -> BBox:
        return self.detections[-1].bbox

    @property
    def last_frame_id(self) -> int:
        return self.detections[-1].frame_id

    @property
    def length(self) -> int:
        return len(self.detections)

    def bbox_history(self, n: int) -> List[BBox]:
        """The last ``n`` boxes, oldest first."""
        return [d.bbox for d in self.detections[-n:]]

    # -- stride-sampling support --------------------------------------------
    def velocity_per_frame(self) -> tuple[float, float]:
        """Centre velocity in pixels *per frame* (not per tracker update).

        Derived from the last two recorded detections and their frame ids,
        so it stays correct when the tracker is only updated on sampled
        frames (the Kalman state's velocity is per *update* and would be
        ``stride``× too large).  Falls back to the Kalman velocity, then to
        zero, when the track is too short.
        """
        if len(self.detections) >= 2:
            prev, last = self.detections[-2], self.detections[-1]
            dt = max(last.frame_id - prev.frame_id, 1)
            (px, py), (lx, ly) = prev.bbox.center, last.bbox.center
            return ((lx - px) / dt, (ly - py) / dt)
        if self.kalman is not None:
            return self.kalman.velocity
        return (0.0, 0.0)

    def interpolate(
        self,
        frame_id: int,
        future_bbox: Optional[BBox] = None,
        future_frame_id: Optional[int] = None,
    ) -> BBox:
        """The track's box on ``frame_id`` without a detection there.

        With a known future endpoint (the matched detection on the next
        sampled frame) the box is linearly interpolated between the last
        detection and that endpoint — this is how the scan scheduler fills
        the frames a raised stride skipped.  Without one it extrapolates:
        constant per-frame velocity from the detection history, or the
        (non-mutating) Kalman prediction for single-detection tracks — this
        is how predicted positions are validated against fresh detections.
        """
        last = self.last_detection
        if frame_id <= last.frame_id:
            return last.bbox
        if future_bbox is not None and future_frame_id is not None and future_frame_id > last.frame_id:
            t = min((frame_id - last.frame_id) / (future_frame_id - last.frame_id), 1.0)
            a, b = last.bbox, future_bbox
            return BBox(
                a.x1 + (b.x1 - a.x1) * t,
                a.y1 + (b.y1 - a.y1) * t,
                a.x2 + (b.x2 - a.x2) * t,
                a.y2 + (b.y2 - a.y2) * t,
            )
        steps = frame_id - last.frame_id
        if len(self.detections) < 2 and self.kalman is not None:
            return self.kalman.predict_ahead(steps)
        vx, vy = self.velocity_per_frame()
        return self.last_bbox.translated(vx * steps, vy * steps)


class KalmanTracker(SimulatedModel):
    """SORT-style multi-object tracker.

    Detections are associated to existing tracks by solving a linear
    assignment problem on the IoU between Kalman-predicted boxes and new
    detections.  Unmatched detections start new tracks; tracks that go
    unmatched for ``max_misses`` consecutive frames are retired.

    Every active track's Kalman state is one row of a single
    :class:`~repro.models.kalman.KalmanStack`, keyed by track id and kept in
    birth order: a frame costs one vectorised predict over all tracks and
    one vectorised update over the matched ones.  Each ``Track.kalman`` is a
    handle onto its track's row.
    """

    def __init__(
        self,
        name: str = "kalman_tracker",
        iou_threshold: float = 0.2,
        max_misses: int = 15,
        cost_profile: CostProfile = CostProfile(base_ms=0.5, per_item_ms=0.05),
        seed: int = 0,
    ) -> None:
        super().__init__(name, cost_profile, seed)
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self.reset()

    def reset(self) -> None:
        """Forget all state (used when a pipeline starts a new video)."""
        self._next_track_id = 1
        self._kalman = KalmanStack()
        self._tracks: Dict[int, Track] = {}

    # -- association --------------------------------------------------------
    def _associate(self, boxes: np.ndarray) -> Tuple[List[int], List[int]]:
        """Matched ``(rows, detection indices)`` pairs, rows ascending."""
        if not len(self._kalman) or not len(boxes):
            return [], []
        ious = iou_matrix_xyxy(self._kalman.boxes(), boxes)
        row, col = linear_sum_assignment(-ious)
        keep = ious[row, col] >= self.iou_threshold
        return row[keep].tolist(), col[keep].tolist()

    # -- public API ----------------------------------------------------------
    def update(self, detections: Sequence[Detection], clock: Optional[SimClock] = None) -> List[Detection]:
        """Assign track ids to this frame's detections and return them.

        The returned detections are copies with ``track_id`` filled in,
        in the same order as the input.
        """
        self.charge(clock, n_items=len(detections))
        kalman, tracks = self._kalman, self._tracks
        # Sparse scenes see many frames without tracks: skip the array work.
        if len(kalman):
            kalman.predict()
        boxes = np.array([d.bbox.as_tuple() for d in detections], dtype=float).reshape(-1, 4)
        rows, cols = self._associate(boxes)

        out: List[Optional[Detection]] = [None] * len(detections)
        if rows:
            kalman.update(np.array(rows), boxes[cols])
        for row, det_idx in zip(rows, cols):
            tid = kalman.keys[row]
            det = detections[det_idx].with_track(tid)
            track = tracks[tid]
            track.detections.append(det)
            track.misses = 0
            out[det_idx] = det

        matched = set(rows)
        retired = []
        for row, tid in enumerate(kalman.keys):
            if row not in matched:
                track = tracks[tid]
                track.misses += 1
                if track.misses > self.max_misses:
                    track.kalman.detach()
                    del tracks[tid]
                    retired.append(row)
        if retired:
            kalman.keep(np.delete(np.arange(len(kalman)), retired))

        born = [i for i, det in enumerate(out) if det is None]
        if born:
            tids = list(range(self._next_track_id, self._next_track_id + len(born)))
            self._next_track_id += len(born)
            kalman.add(tids, boxes[born])
            for tid, det_idx in zip(tids, born):
                det = detections[det_idx].with_track(tid)
                tracks[tid] = Track(
                    track_id=tid,
                    class_name=det.class_name,
                    detections=[det],
                    kalman=KalmanBoxFilter(stack=kalman, key=tid),
                )
                out[det_idx] = det
        return out

    @property
    def active_tracks(self) -> List[Track]:
        return list(self._tracks.values())

    def track(self, track_id: int) -> Optional[Track]:
        return self._tracks.get(track_id)


class IoUTracker(SimulatedModel):
    """A greedy-IoU tracker (stand-in for the nor-fair tracker used by EVA).

    No motion model: each detection is matched to the track whose last box
    overlaps it the most.  Slightly cheaper and slightly less robust than
    :class:`KalmanTracker`.
    """

    def __init__(
        self,
        name: str = "norfair_tracker",
        iou_threshold: float = 0.25,
        max_misses: int = 10,
        cost_profile: CostProfile = CostProfile(base_ms=0.3, per_item_ms=0.03),
        seed: int = 0,
    ) -> None:
        super().__init__(name, cost_profile, seed)
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self.reset()

    def reset(self) -> None:
        self._next_track_id = 1
        self._tracks: Dict[int, Track] = {}

    def update(self, detections: Sequence[Detection], clock: Optional[SimClock] = None) -> List[Detection]:
        """Assign track ids greedily by IoU with each track's last box."""
        self.charge(clock, n_items=len(detections))
        track_ids = list(self._tracks)
        last_boxes = [self._tracks[t].last_bbox for t in track_ids]
        ious = iou_matrix(last_boxes, [d.bbox for d in detections])
        assigned_tracks: set[int] = set()
        assigned_dets: set[int] = set()
        out: List[Optional[Detection]] = [None] * len(detections)

        # Greedy: repeatedly take the best remaining (track, detection) pair.
        if ious.size:
            order = np.dstack(np.unravel_index(np.argsort(-ious, axis=None), ious.shape))[0]
            for r, c in order:
                r, c = int(r), int(c)
                if ious[r, c] < self.iou_threshold:
                    break
                tid = track_ids[r]
                if tid in assigned_tracks or c in assigned_dets:
                    continue
                det = detections[c].with_track(tid)
                self._tracks[tid].detections.append(det)
                self._tracks[tid].misses = 0
                assigned_tracks.add(tid)
                assigned_dets.add(c)
                out[c] = det

        for i, det in enumerate(detections):
            if i in assigned_dets:
                continue
            tid = self._next_track_id
            self._next_track_id += 1
            tracked = det.with_track(tid)
            self._tracks[tid] = Track(track_id=tid, class_name=det.class_name, detections=[tracked])
            out[i] = tracked

        for tid in track_ids:
            if tid not in assigned_tracks:
                self._tracks[tid].misses += 1
                if self._tracks[tid].misses > self.max_misses:
                    del self._tracks[tid]
        # Output preserves the input order (like KalmanTracker), which lets
        # callers align raw and tracked detections positionally.
        return [d for d in out if d is not None]

    @property
    def active_tracks(self) -> List[Track]:
        return list(self._tracks.values())

    def track(self, track_id: int) -> Optional[Track]:
        return self._tracks.get(track_id)
