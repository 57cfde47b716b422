"""Deterministic fault injection.

Every injection decision is a pure function of
``(fault seed, feed, fault kind, model, frame, attempt)`` via
:func:`repro.common.rng.stable_uniform`, never of invocation order.  That is
the property the chaos-determinism tests rely on: the same seed produces the
same fault schedule whether feeds run on one worker thread or four, and
whether stride sampling skips frames or not (a fault attached to a frame
that is never sampled simply never fires).

The injector is stateless except for one-shot *crash* faults, which record
that they fired so a checkpoint-resumed scan does not re-crash on the same
frame (the fault manager — and with it this injector — is shared across
resume, not snapshotted).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Set, Tuple

from repro.common.config import FaultConfig
from repro.common.rng import stable_uniform
from repro.videosim.video import Frame


class FaultInjector:
    """Draws deterministic fault decisions for one feed's scan."""

    def __init__(self, config: FaultConfig, feed: str = "") -> None:
        self.config = config
        self.feed = feed
        self._dead_models: Tuple[Tuple[str, int], ...] = config.dead_models
        self._fired_crashes: Set[Tuple[str, int]] = set()

    # ------------------------------------------------------------ draws --
    def _draw(self, kind: str, *key) -> float:
        return stable_uniform(self.config.seed, "fault", self.feed, kind, *key)

    def transient_failure(self, model_name: str, frame_id: int, attempt: int) -> bool:
        rate = self.config.transient_rate
        return rate > 0.0 and self._draw("transient", model_name, frame_id, attempt) < rate

    def latency_spike(self, model_name: str, frame_id: int, attempt: int) -> bool:
        rate = self.config.latency_spike_rate
        return rate > 0.0 and self._draw("latency", model_name, frame_id, attempt) < rate

    def model_dead(self, model_name: str, frame_id: int) -> bool:
        """True when ``model_name`` is permanently down at ``frame_id``."""
        return any(
            name == model_name and frame_id >= from_frame
            for name, from_frame in self._dead_models
        )

    def frame_fault(self, frame_id: int) -> Optional[str]:
        """``"dropped"`` / ``"corrupted"`` / None for this frame.

        A dropped frame wins over a corrupted one: there is nothing left to
        corrupt.  Both are degraded by the scheduler, never trusted.
        """
        if self.config.drop_frame_rate > 0.0 and self._draw("drop", frame_id) < self.config.drop_frame_rate:
            return "dropped"
        if self.config.corrupt_frame_rate > 0.0 and self._draw("corrupt", frame_id) < self.config.corrupt_frame_rate:
            return "corrupted"
        return None

    def feed_death_frame(self, frame_id: int) -> Optional[int]:
        """The frame this feed dies at, if ``frame_id`` has reached it."""
        for feed, at_frame in self.config.dead_feeds:
            if feed == self.feed and frame_id >= at_frame:
                return at_frame
        return None

    def crash_now(self, frame_id: int) -> bool:
        """One-shot scan crash at ``frame_id`` (fires at most once)."""
        for feed, at_frame in self.config.crash_frames:
            if feed == self.feed and frame_id == at_frame:
                key = (feed, at_frame)
                if key not in self._fired_crashes:
                    self._fired_crashes.add(key)
                    return True
        return False

    def backoff_jitter(self, model_name: str, frame_id: int, attempt: int) -> float:
        """Deterministic jitter in [0, 1) for one backoff interval."""
        return self._draw("jitter", model_name, frame_id, attempt)

    # ------------------------------------------------------------- hooks --
    def reader_hook(self, frame: Frame) -> Frame:
        """``videosim`` hook: tag corrupted/dropped frames in transit.

        The scheduler makes the degrade decision from the same deterministic
        draw, so the tag is advisory — it lets anything downstream of the
        reader see that the frame arrived faulty.  The ground-truth payload
        is left intact: degraded frames are still *processed* (over
        interpolation-seeded detections), and property models resolve their
        values against ``frame.instances``.  ``replace`` copies only the
        frame's header and its video, so a tagged frame is still unrendered
        and renders the same ground truth on first read.
        """
        kind = self.frame_fault(frame.frame_id)
        if kind is not None:
            return replace(frame, scene_attributes={**frame.scene_attributes, "fault": kind})
        return frame
