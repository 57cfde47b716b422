"""Tests for the Kalman filter and the two trackers."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.common.clock import SimClock
from repro.common.geometry import BBox, iou_matrix
from repro.models.base import Detection
from repro.models.kalman import KalmanBoxFilter, bbox_to_z, z_to_bbox
from repro.models.tracker import IoUTracker, KalmanTracker


def det(x, y, frame_id=0, cls="car", w=60, h=40, score=0.9):
    return Detection(cls, BBox.from_center(x, y, w, h), score, frame_id, gt_object_id=None)


# -- reference: the per-track SORT filter and tracker, one box at a time ------


class RefFilter:
    """The textbook per-box filter, matrix by matrix."""

    def __init__(self, bbox):
        self.F = np.eye(7)
        self.F[0, 4] = self.F[1, 5] = self.F[2, 6] = 1.0
        self.H = np.zeros((4, 7))
        self.H[:4, :4] = np.eye(4)
        self.R = np.diag([1.0, 1.0, 10.0, 0.01])
        self.P = np.diag([10.0, 10.0, 10.0, 10.0, 1000.0, 1000.0, 1000.0])
        self.Q = np.diag([1.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.0001])
        self.x = np.zeros(7)
        self.x[:4] = self._z(bbox)

    @staticmethod
    def _z(bbox):
        cx, cy = bbox.center
        return np.array([cx, cy, max(bbox.area, 1e-6), bbox.width / max(bbox.height, 1e-6)])

    @staticmethod
    def _box(x):
        s, r = max(float(x[2]), 1e-6), max(float(x[3]), 1e-6)
        w = float(np.sqrt(s * r))
        return BBox.from_center(float(x[0]), float(x[1]), w, s / max(w, 1e-6))

    def _advance(self, x):
        if x[2] + x[6] <= 0:
            x[6] = 0.0
        return self.F @ x

    def predict(self):
        self.x = self._advance(self.x)
        self.P = self.F @ self.P @ self.F.T + self.Q
        return self._box(self.x)

    def predict_ahead(self, steps):
        x = self.x.copy()
        for _ in range(steps):
            x = self._advance(x)
        return self._box(x)

    def update(self, bbox):
        y = self._z(bbox) - self.H @ self.x
        S = self.H @ self.P @ self.H.T + self.R
        K = self.P @ self.H.T @ np.linalg.inv(S)
        self.x = self.x + K @ y
        self.P = (np.eye(7) - K @ self.H) @ self.P


class RefTracker:
    """SORT association over one :class:`RefFilter` per track."""

    def __init__(self, max_misses):
        self.max_misses = max_misses
        self.next_id = 1
        self.filters = {}
        self.misses = {}
        self.retired = {}

    def update(self, detections):
        ids = list(self.filters)
        predicted = [self.filters[t].predict() for t in ids]
        out = [None] * len(detections)
        if ids and detections:
            ious = iou_matrix(predicted, [d.bbox for d in detections])
            for r, c in zip(*linear_sum_assignment(-ious)):
                if ious[r, c] >= 0.2:
                    self.filters[ids[r]].update(detections[c].bbox)
                    self.misses[ids[r]] = 0
                    out[c] = ids[r]
        for i, d in enumerate(detections):
            if out[i] is None:
                out[i] = self.next_id
                self.filters[self.next_id] = RefFilter(d.bbox)
                self.misses[self.next_id] = 0
                self.next_id += 1
        for t in ids:
            if t not in out:
                self.misses[t] += 1
                if self.misses[t] > self.max_misses:
                    self.retired[t] = self.filters.pop(t)
                    del self.misses[t]
        return out


@st.composite
def detection_streams(draw):
    """Frames of a few linearly moving boxes that appear and vanish at random
    (births, misses, retirements, empty frames), plus stray boxes."""
    coord = st.floats(-10, 10)
    objects = draw(st.lists(
        st.tuples(st.floats(50, 600), st.floats(50, 400), coord, coord,
                  st.floats(15, 80), st.floats(15, 80)),
        min_size=1, max_size=5,
    ))
    frames = []
    for f in range(draw(st.integers(1, 30))):
        visible = draw(st.lists(st.booleans(), min_size=len(objects), max_size=len(objects)))
        dets = [det(x + vx * f, y + vy * f, f, w=w, h=h)
                for (x, y, vx, vy, w, h), seen in zip(objects, visible) if seen]
        stray = draw(st.none() | st.tuples(st.floats(0, 640), st.floats(0, 480)))
        if stray is not None:
            dets.insert(draw(st.integers(0, len(dets))), det(*stray, f, w=30, h=30))
        frames.append(dets)
    return frames


def assert_filter_matches(got, want):
    np.testing.assert_allclose(got.x, want.x, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.P, want.P, rtol=1e-9, atol=1e-9)
    assert got.velocity == pytest.approx((want.x[4], want.x[5]), rel=1e-9, abs=1e-9)
    assert got.bbox.as_tuple() == pytest.approx(want._box(want.x).as_tuple(), rel=1e-9)
    for steps in (1, 3):
        assert got.predict_ahead(steps).as_tuple() == pytest.approx(
            want.predict_ahead(steps).as_tuple(), rel=1e-9
        )


def assert_tracks_match(tracker, ref):
    assert [t.track_id for t in tracker.active_tracks] == list(ref.filters)
    for track in tracker.active_tracks:
        assert track.misses == ref.misses[track.track_id]
        assert_filter_matches(track.kalman, ref.filters[track.track_id])


class TestStackedTrackerMatchesPerTrackReference:
    @settings(max_examples=60, deadline=None)
    @given(detection_streams(), st.integers(0, 3), st.data())
    def test_ids_and_states_follow_the_reference(self, frames, max_misses, data):
        split = data.draw(st.integers(0, len(frames)), label="checkpoint frame")
        tracker, ref = KalmanTracker(max_misses=max_misses), RefTracker(max_misses)
        seen = {}
        for frame in frames[:split]:
            assert [d.track_id for d in tracker.update(frame)] == ref.update(frame)
            assert_tracks_match(tracker, ref)
            seen.update((t.track_id, t) for t in tracker.active_tracks)

        # A retired track's handle keeps reading its state at retirement.
        assert set(seen) == set(ref.filters) | set(ref.retired)
        for tid, filt in ref.retired.items():
            assert_filter_matches(seen[tid].kalman, filt)

        # The checkpoint path: a deepcopy taken mid-sequence continues
        # identically, its tracks' handles reading the copy's own state,
        # while the original stays where it was.
        resumed, frozen = copy.deepcopy(tracker), copy.deepcopy(ref)
        for frame in frames[split:]:
            assert [d.track_id for d in resumed.update(frame)] == ref.update(frame)
            assert_tracks_match(resumed, ref)
        assert_tracks_match(tracker, frozen)


class TestKalmanFilter:
    def test_bbox_z_roundtrip(self):
        box = BBox(10, 20, 70, 60)
        recovered = z_to_bbox(bbox_to_z(box))
        assert recovered.center == pytest.approx(box.center)
        assert recovered.area == pytest.approx(box.area, rel=1e-6)

    def test_stationary_prediction_stays_close(self):
        box = BBox.from_center(100, 100, 40, 40)
        kf = KalmanBoxFilter(box)
        for _ in range(5):
            kf.predict()
            kf.update(box)
        assert kf.bbox.center == pytest.approx((100, 100), abs=1.0)

    def test_moving_object_velocity_learned(self):
        kf = KalmanBoxFilter(BBox.from_center(0, 100, 40, 40))
        for step in range(1, 20):
            kf.predict()
            kf.update(BBox.from_center(5.0 * step, 100, 40, 40))
        predicted = kf.predict()
        assert predicted.center[0] == pytest.approx(100, abs=5.0)

    def test_scale_never_negative(self):
        kf = KalmanBoxFilter(BBox.from_center(0, 0, 10, 10))
        kf.x[6] = -100.0  # force a large negative scale velocity
        box = kf.predict()
        assert box.area > 0


class TestKalmanTracker:
    def test_track_ids_stable_across_frames(self):
        tracker = KalmanTracker()
        first = tracker.update([det(100, 100, 0), det(400, 300, 0)])
        ids = {d.bbox.center[0]: d.track_id for d in first}
        second = tracker.update([det(104, 100, 1), det(404, 300, 1)])
        for d in second:
            original = min(ids, key=lambda cx: abs(cx - d.bbox.center[0]))
            assert d.track_id == ids[original]

    def test_new_object_gets_new_track(self):
        tracker = KalmanTracker()
        tracker.update([det(100, 100, 0)])
        out = tracker.update([det(103, 100, 1), det(600, 400, 1)])
        assert len({d.track_id for d in out}) == 2

    def test_track_retired_after_misses(self):
        tracker = KalmanTracker(max_misses=2)
        tracker.update([det(100, 100, 0)])
        for frame in range(1, 5):
            tracker.update([])
        assert tracker.active_tracks == []

    def test_output_preserves_input_order(self):
        tracker = KalmanTracker()
        tracker.update([det(100, 100, 0), det(400, 300, 0)])
        out = tracker.update([det(400, 302, 1), det(102, 100, 1)])
        assert [d.bbox.center[1] for d in out] == [302, 100]

    def test_charges_clock(self):
        clock = SimClock()
        KalmanTracker().update([det(1, 1)], clock)
        assert clock.by_account["kalman_tracker"] > 0

    def test_reset_clears_state(self):
        tracker = KalmanTracker()
        tracker.update([det(100, 100, 0)])
        tracker.reset()
        assert tracker.active_tracks == []

    def test_track_history_accessible(self):
        tracker = KalmanTracker()
        out = tracker.update([det(100, 100, 0)])
        tid = out[0].track_id
        tracker.update([det(105, 100, 1)])
        track = tracker.track(tid)
        assert track.length == 2
        assert len(track.bbox_history(5)) == 2

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.floats(50, 600), st.floats(50, 400)), min_size=0, max_size=6))
    def test_every_detection_gets_a_track(self, centers):
        tracker = KalmanTracker()
        detections = [det(x, y) for x, y in centers]
        out = tracker.update(detections)
        assert len(out) == len(detections)
        assert all(d.track_id is not None for d in out)


class TestIoUTracker:
    def test_greedy_association(self):
        tracker = IoUTracker()
        first = tracker.update([det(100, 100, 0)])
        second = tracker.update([det(102, 100, 1)])
        assert second[0].track_id == first[0].track_id

    def test_disjoint_objects_get_distinct_tracks(self):
        tracker = IoUTracker()
        out = tracker.update([det(100, 100, 0), det(500, 400, 0)])
        assert len({d.track_id for d in out}) == 2

    def test_track_retired_after_misses(self):
        tracker = IoUTracker(max_misses=1)
        tracker.update([det(100, 100, 0)])
        tracker.update([])
        tracker.update([])
        assert tracker.active_tracks == []

    def test_output_preserves_input_order(self):
        tracker = IoUTracker()
        tracker.update([det(100, 100, 0), det(400, 300, 0)])
        out = tracker.update([det(401, 300, 1), det(101, 100, 1)])
        assert [round(d.bbox.center[0]) for d in out] == [401, 101]
