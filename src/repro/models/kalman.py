"""A constant-velocity Kalman filter for bounding-box tracking, over stacks.

This is the "lightweight tracker based on the Kalman filter" that §4.2 uses
to re-identify video objects across frames so intrinsic property values can
be reused.  The state follows the SORT convention: centre position, box
scale (area), aspect ratio, and the velocities of the first three.

Every box's state lives in a :class:`KalmanStack`: means of shape ``(N, 7)``
and covariances of shape ``(N, 7, 7)``, one row per box, so a tracker
advances all of its tracks with one vectorised predict and folds a frame's
matches in with one vectorised update.  :class:`KalmanBoxFilter` is a handle
onto one row; standalone it owns a one-row stack (the N=1 case).

Each row computes what the textbook per-box filter computes, in the same
order.  ``F`` and ``H`` only select and add components, so ``F x``,
``F P Fᵀ``, ``H x`` and ``H P Hᵀ`` reduce to exact slices and additions,
while the gain and the covariance update keep the per-box products: batched
``inv`` and ``matmul`` run the same LAPACK/BLAS kernel on every row that a
single box would, so stacked and per-box states agree bit for bit.
"""

from __future__ import annotations

import copy
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.common.geometry import BBox

STATE_DIM = 7
MEAS_DIM = 4

#: Measurement noise, initial covariance and process noise (SORT's values).
_R = np.diag([1.0, 1.0, 10.0, 0.01])
_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1000.0, 1000.0, 1000.0])
_Q = np.diag([1.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.0001])
_EYE = np.eye(STATE_DIM)


def boxes_to_z(boxes: np.ndarray) -> np.ndarray:
    """``(N, 4)`` ``x1, y1, x2, y2`` boxes to measurements ``[cx, cy, area, aspect]``."""
    x1, y1, x2, y2 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    w, h = x2 - x1, y2 - y1
    z = np.empty((len(boxes), MEAS_DIM))
    z[:, 0] = (x1 + x2) / 2.0
    z[:, 1] = (y1 + y2) / 2.0
    z[:, 2] = np.maximum(w * h, 1e-6)
    z[:, 3] = w / np.maximum(h, 1e-6)
    return z


def z_to_boxes(z: np.ndarray) -> np.ndarray:
    """Measurement parts ``(N, 4)`` back to ``x1, y1, x2, y2`` boxes."""
    cx, cy = z[:, 0], z[:, 1]
    s, r = np.maximum(z[:, 2], 1e-6), np.maximum(z[:, 3], 1e-6)
    w = np.sqrt(s * r)
    hw, hh = w / 2.0, s / np.maximum(w, 1e-6) / 2.0
    boxes = np.empty((len(z), 4))
    boxes[:, 0] = cx - hw
    boxes[:, 1] = cy - hh
    boxes[:, 2] = cx + hw
    boxes[:, 3] = cy + hh
    return boxes


def bbox_to_z(bbox: BBox) -> np.ndarray:
    """Convert a box to the measurement vector ``[cx, cy, area, aspect]``."""
    return boxes_to_z(bbox.as_array()[None])[0]


def z_to_bbox(z: np.ndarray) -> BBox:
    """Convert a state's measurement part back to a box."""
    return BBox(*z_to_boxes(np.asarray(z, dtype=float)[None, :MEAS_DIM])[0].tolist())


def _advance_means(x: np.ndarray) -> None:
    """One constant-velocity transition ``x ← F x`` of ``(N, 7)`` means, in place."""
    # Keep the scale non-negative: if the predicted area would go negative,
    # zero its velocity first (standard SORT guard).
    x[x[:, 2] + x[:, 6] <= 0, 6] = 0.0
    x[:, :3] += x[:, 4:]


class KalmanStack:
    """The Kalman state of N boxes, one row each, addressed by key.

    ``x`` is ``(N, 7)``, ``P`` is ``(N, 7, 7)`` and ``age`` counts each
    row's predicts.  ``keys`` lists the rows' keys in row order and
    ``rows`` maps a key back to its row; :meth:`add` appends rows and
    :meth:`keep` compacts them, both preserving the order of the others.
    """

    def __init__(self) -> None:
        self.x = np.zeros((0, STATE_DIM))
        self.P = np.zeros((0, STATE_DIM, STATE_DIM))
        self.age = np.zeros(0, dtype=int)
        self.keys: List[Hashable] = []
        self.rows: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, keys: Sequence[Hashable], boxes: np.ndarray) -> None:
        """Append one row per key, at rest at its ``(M, 4)`` box."""
        x = np.zeros((len(keys), STATE_DIM))
        x[:, :MEAS_DIM] = boxes_to_z(boxes)
        self.x = np.concatenate([self.x, x])
        self.P = np.concatenate([self.P, np.broadcast_to(_P0, (len(keys), STATE_DIM, STATE_DIM))])
        self.age = np.concatenate([self.age, np.zeros(len(keys), dtype=int)])
        for key in keys:
            self.rows[key] = len(self.keys)
            self.keys.append(key)

    def keep(self, rows: Sequence[int]) -> None:
        """Drop every row not in ``rows`` (ascending) in one fancy-index."""
        self.x, self.P, self.age = self.x[rows], self.P[rows], self.age[rows]
        self.keys = [self.keys[r] for r in rows]
        self.rows = {key: row for row, key in enumerate(self.keys)}

    def boxes(self) -> np.ndarray:
        """Every row's current box, ``(N, 4)``."""
        return z_to_boxes(self.x[:, :MEAS_DIM])

    def predict(self, rows: slice = slice(None)) -> None:
        """Advance ``rows`` one frame."""
        x, P = self.x[rows], self.P[rows]
        _advance_means(x)
        P[:, :3] += P[:, 4:]
        P[:, :, :3] += P[:, :, 4:]
        P += _Q
        self.age[rows] += 1

    def update(self, rows: slice | np.ndarray, boxes: np.ndarray) -> None:
        """Fold one measured ``(n, 4)`` box into each of ``rows``."""
        x, P = self.x[rows], self.P[rows]
        y = boxes_to_z(boxes) - x[:, :MEAS_DIM]
        K = P[:, :, :MEAS_DIM] @ np.linalg.inv(P[:, :MEAS_DIM, :MEAS_DIM] + _R)
        self.x[rows] = x + (K @ y[:, :, None])[:, :, 0]
        I_KH = np.repeat(_EYE[None], len(K), axis=0)
        I_KH[:, :, :MEAS_DIM] -= K
        self.P[rows] = I_KH @ P


class KalmanBoxFilter:
    """Constant-velocity Kalman filter over ``[cx, cy, s, r, vcx, vcy, vs]``.

    A live handle onto row ``key`` of ``stack``: it reads the row's current
    state, and its :meth:`predict`/:meth:`update` move that row alone.
    ``KalmanBoxFilter(bbox)`` owns a fresh one-row stack; a tracker passes
    its shared ``stack`` and the track's ``key`` instead, and calls
    :meth:`detach` before the stack drops the row.
    """

    def __init__(
        self, bbox: Optional[BBox] = None, stack: Optional[KalmanStack] = None, key: Hashable = 0
    ) -> None:
        if stack is None:
            stack = KalmanStack()
            stack.add([key], bbox.as_array()[None])
        self.stack = stack
        self.key = key

    @property
    def _row(self) -> int:
        return self.stack.rows[self.key]

    @property
    def x(self) -> np.ndarray:
        """The state vector (a view: writes go to the stack)."""
        return self.stack.x[self._row]

    @property
    def P(self) -> np.ndarray:
        return self.stack.P[self._row]

    @property
    def age(self) -> int:
        return int(self.stack.age[self._row])

    def detach(self) -> None:
        """Move onto a private one-row copy of this row, so the handle keeps
        reading its last state after the shared stack drops the row."""
        own = copy.copy(self.stack)
        own.keep([self._row])  # rebinds own's arrays; the shared stack is untouched
        self.stack = own

    def predict(self) -> BBox:
        """Advance the state one frame and return the predicted box."""
        row = self._row
        self.stack.predict(slice(row, row + 1))
        return self.bbox

    def predict_ahead(self, steps: int = 1) -> BBox:
        """The box ``steps`` transitions ahead, *without* advancing the state.

        Used by the scan scheduler's stride sampler to ask "where would this
        object be on a frame we have not detected on" — unlike
        :meth:`predict`, repeated calls do not accumulate into the filter, so
        probing a skipped frame never perturbs the tracker.  Note the step
        unit is *filter updates*, not frames: under stride sampling the
        filter's velocity is learned per sampled frame.
        """
        x = self.x[None].copy()
        for _ in range(max(int(steps), 0)):
            _advance_means(x)
        return z_to_bbox(x[0])

    def update(self, bbox: BBox) -> None:
        """Fold a new measurement into the state."""
        row = self._row
        self.stack.update(slice(row, row + 1), bbox.as_array()[None])

    @property
    def bbox(self) -> BBox:
        return z_to_bbox(self.x)

    @property
    def velocity(self) -> tuple[float, float]:
        x = self.x
        return (float(x[4]), float(x[5]))
