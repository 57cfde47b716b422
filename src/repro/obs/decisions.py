"""Structured, bounded-memory decision records.

Every discretionary choice the engine makes — gating a frame, deferring
it under stride sampling, interpolating or rescanning a gap, retiring a
stream early, excluding a track from re-id linking — lands here as a
``Decision`` with a machine-readable ``action``/``reason`` pair.

Memory is bounded two ways: the record deque evicts oldest-first past
``max_records``, while the ``(action, reason)`` count table is never
trimmed, so aggregate accounting (e.g. "decision log covers 100% of
gated frames") stays exact even after eviction.

Decision catalog (action / reasons) — see docs/observability.md:

* ``frame-gated`` / ``frame-filter-rejected``
* ``frame-deferred`` / ``stride-skip``
* ``frame-interpolated`` / ``predictions-validated``
* ``frame-rescanned`` / ``validation-failed``, ``scan-ended-mid-gap``
* ``stride-raised`` / ``stable-streak``; ``stride-reset`` / ``prediction-mismatch``
* ``stream-retired`` / ``answer-determined``; ``scan-early-exit`` / ``all-streams-done``
* ``reid-excluded`` / ``below-min-track-frames``
* ``reid-embedding-recomputed`` / ``seeded-frame-provenance``
* ``reid-unmatched`` / ``empty-gallery``, ``below-threshold``,
  ``class-mismatch``, ``identity-contended``
* ``model-retry`` / ``transient-fault``, ``timeout``
* ``circuit-opened`` / ``failure-threshold``; ``circuit-closed`` /
  ``probe-succeeded``
* ``frame-degraded`` / ``frame-corrupted``, ``frame-dropped``,
  ``model-unavailable``
* ``checkpoint-taken`` / ``checkpoint-interval``; ``scan-resumed`` /
  ``crash-recovery``
* ``frame-shed`` / ``queue-over-cap``
* ``frame-reordered`` / ``out-of-order-arrival``
* ``late-frame-dropped`` / ``behind-watermark``, ``duplicate-delivery``
* ``frame-lost`` / ``feed-outage``
* ``feed-stalled`` / ``no-arrivals``; ``feed-reconnected`` /
  ``reconnect-success``
* ``pressure-stride-raised`` / ``queue-pressure``
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Decision:
    """One engine choice: what happened, to what, and why."""

    action: str
    reason: str
    frame_id: Optional[int] = None
    subject: Optional[str] = None
    attrs: Tuple[Tuple[str, Any], ...] = field(default=())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "action": self.action,
            "reason": self.reason,
            "frame_id": self.frame_id,
            "subject": self.subject,
            **dict(self.attrs),
        }


class DecisionLog:
    """Ring buffer of decisions with exact aggregate counts.

    Not thread-safe: one log serves one execution on one thread.
    """

    def __init__(self, max_records: int = 4096) -> None:
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self._records: Deque[Decision] = deque(maxlen=max_records)
        self._counts: Dict[Tuple[str, str], int] = {}
        self.evicted = 0

    def record(
        self,
        action: str,
        reason: str,
        frame_id: Optional[int] = None,
        subject: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        decision = Decision(action, reason, frame_id, subject, tuple(sorted(attrs.items())))
        if len(self._records) == self._records.maxlen:
            self.evicted += 1
        self._records.append(decision)
        key = (action, reason)
        self._counts[key] = self._counts.get(key, 0) + 1

    def records(
        self, action: Optional[str] = None, reason: Optional[str] = None
    ) -> List[Decision]:
        snapshot = list(self._records)
        if action is not None:
            snapshot = [d for d in snapshot if d.action == action]
        if reason is not None:
            snapshot = [d for d in snapshot if d.reason == reason]
        return snapshot

    def count(self, action: str, reason: Optional[str] = None) -> int:
        """Exact lifetime count for an action (never affected by eviction)."""
        if reason is not None:
            return self._counts.get((action, reason), 0)
        return sum(v for (a, _), v in self._counts.items() if a == action)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """``{action: {reason: count}}`` over the full log lifetime."""
        out: Dict[str, Dict[str, int]] = {}
        for (action, reason), count in sorted(self._counts.items()):
            out.setdefault(action, {})[reason] = count
        return out

    def __len__(self) -> int:
        return len(self._records)


class NullDecisionLog:
    """API-compatible decision log that discards every record (tracing off)."""

    evicted = 0

    def record(
        self,
        action: str,
        reason: str,
        frame_id: Optional[int] = None,
        subject: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        pass

    def records(
        self, action: Optional[str] = None, reason: Optional[str] = None
    ) -> List[Decision]:
        return []

    def count(self, action: str, reason: Optional[str] = None) -> int:
        return 0

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {}

    def __len__(self) -> int:
        return 0
