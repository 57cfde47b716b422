"""Scan checkpoint/resume: periodic snapshots of in-flight scan state.

A scan that dies mid-video (the fault layer's one-shot *crash* fault, or any
unexpected error) would otherwise forfeit every frame already processed.
The :class:`ScanCheckpointer` periodically captures the whole in-flight
state of a scan — the :class:`~repro.backend.scheduler.ScanScheduler` (with
its streams, groupers, gate memos, stride controllers, and counters), the
:class:`~repro.backend.runtime.ExecutionContext`'s mutable caches (trackers,
track states, per-frame caches), and the :class:`~repro.common.clock.SimClock`
— so the executor can resume from the last checkpoint instead of rescanning
from frame 0.

Three invariants make this safe:

* **Shared objects are shared, not copied.**  The capture is a ``deepcopy``
  whose memo pre-maps every object that must keep its identity (the context,
  video, zoo, clock, obs bundle, fault manager, executor, and plans) to
  itself, so the snapshot graph points at the *live* instances of everything
  that is either immutable, externally owned, or deliberately persistent
  across a crash (breaker state, the injector's one-shot crash memory, the
  decision log).
* **Frozen values are shared, not copied.**  Match records, events,
  detections, boxes, frames and their ground truth are frozen dataclasses
  marked :func:`~repro.common.values.shared_value`; they deep-copy as
  themselves, so the snapshot points at the live instances.  What a capture
  copies is the mutable state around them: the scheduler, streams, result
  lists and dicts, groupers, trackers and track states, caches and counters.
  Capture cost therefore tracks live scan state, not how much the scan has
  emitted.  A shared value type must stay frozen and hold nothing mutable
  of its own, or a snapshot would change along with the live scan.
* **Restore never consumes the snapshot.**  Restoring deepcopies the
  snapshot a second time (same shared memo), so one checkpoint can serve
  several resumes (``max_resumes``) without the resumed scan mutating it.

The context and clock are restored *in place* (:meth:`ExecutionContext.
restore_checkpoint_state`, :meth:`SimClock.restore_state`): every object
holding a reference to them — the session's ``last_context``, the video
reader's clock — stays valid across a resume.  Work performed between the
checkpoint and the crash is rolled off the virtual timeline: it was never
delivered, and replaying it re-charges it deterministically.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import CheckpointError


class ScanCheckpoint:
    """One captured scan state: resume point + deep-copied state graph."""

    def __init__(self, next_frame: int, payload: Dict[str, Any], shared: Tuple[Any, ...]) -> None:
        #: Frame id the resumed reader should start at.
        self.next_frame = next_frame
        #: ``{"scheduler": ..., "ctx_state": ..., "clock_state": ...}`` —
        #: one deepcopy, so cross-references inside it stay consistent.
        self.payload = payload
        #: The identity-preserved objects the payload's copies point into.
        self.shared = shared


class ScanCheckpointer:
    """Captures and restores scan checkpoints for one feed's scan."""

    def __init__(self, interval: int, max_resumes: int = 2) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1 frame")
        self.interval = interval
        self.max_resumes = max_resumes
        self.resumes_used = 0
        self._checkpoint: Optional[ScanCheckpoint] = None
        self._last_capture_frame: Optional[int] = None

    # ----------------------------------------------------------- capture --
    @property
    def can_resume(self) -> bool:
        return self._checkpoint is not None and self.resumes_used < self.max_resumes

    def maybe_capture(self, scheduler: Any, next_frame: int) -> None:
        """Capture when ``next_frame`` sits on the checkpoint grid.

        Anchored at absolute frame ids (like stride grids), so the capture
        schedule is identical whether or not the scan has already resumed;
        a just-restored scan is not re-captured on its resume frame.
        """
        if next_frame % self.interval != 0:
            return
        if next_frame == self._last_capture_frame:
            return
        self.capture(scheduler, next_frame)

    def capture(self, scheduler: Any, next_frame: int) -> None:
        """Snapshot the scheduler + context + clock as of ``next_frame``.

        Must be called *between* frames — before ``next_frame`` is read or
        stepped: every structure is then self-consistent (the clock holds no
        charge for ``next_frame`` yet) and the resumed reader can start
        exactly at ``next_frame`` without double-charging its read.
        """
        ctx = scheduler.ctx
        shared = self._shared_objects(scheduler)
        memo = {id(obj): obj for obj in shared}
        # Count first: the snapshot must include the checkpoint it belongs
        # to, or every scan resumed from it would be one short.
        scheduler.stats.checkpoints_taken += 1
        payload = copy.deepcopy(
            {
                "scheduler": scheduler,
                "ctx_state": ctx.checkpoint_state(),
                "clock_state": ctx.clock.state_snapshot(),
            },
            memo,
        )
        self._checkpoint = ScanCheckpoint(next_frame, payload, shared)
        self._last_capture_frame = next_frame
        scheduler.obs.decisions.record(
            "checkpoint-taken", "checkpoint-interval", frame_id=next_frame
        )

    # ----------------------------------------------------------- restore --
    def restore(self) -> Tuple[Any, int]:
        """Rebuild the scan at the last checkpoint; ``(scheduler, next_frame)``.

        Raises :class:`~repro.common.errors.CheckpointError` when there is
        nothing to restore or the resume budget is spent.
        """
        if self._checkpoint is None:
            raise CheckpointError("no checkpoint to resume from")
        if self.resumes_used >= self.max_resumes:
            raise CheckpointError(
                f"resume budget exhausted ({self.max_resumes} resumes)"
            )
        self.resumes_used += 1
        cp = self._checkpoint
        memo = {id(obj): obj for obj in cp.shared}
        payload = copy.deepcopy(cp.payload, memo)
        scheduler = payload["scheduler"]
        ctx = scheduler.ctx  # identity-preserved: the live context
        ctx.restore_checkpoint_state(payload["ctx_state"])
        ctx.clock.restore_state(payload["clock_state"])
        ctx.scan_stats = scheduler.stats
        # The snapshot's stats predate every resume: count them all here, or
        # a second resume from the same checkpoint would drop the first.
        scheduler.stats.scan_resumes = self.resumes_used
        ctx.faults.bind_stats(scheduler.stats)
        scheduler.obs.decisions.record(
            "scan-resumed",
            "crash-recovery",
            frame_id=cp.next_frame,
            resume=self.resumes_used,
        )
        return scheduler, cp.next_frame

    # --------------------------------------------------------- internals --
    @staticmethod
    def _shared_objects(scheduler: Any) -> Tuple[Any, ...]:
        """Everything the snapshot must reference by identity, not copy."""
        ctx = scheduler.ctx
        shared = [ctx, ctx.video, ctx.zoo, ctx.clock, ctx.obs, ctx.faults, ctx.index]
        for stream in scheduler.streams:
            for leaf in stream.plan_streams():
                shared.append(leaf.executor)
                shared.append(leaf.plan)
                # Operators are stateless config (all mutable scan state
                # lives in the context), and the frame graph keys nodes by
                # ``id(variable)``: copying an operator would fork its VObj
                # variables away from ``plan.analysis``, so bindings built
                # by the copy would be invisible to the sink.
                shared.extend(ScanCheckpointer._flatten_ops(leaf.operators))
        return tuple(shared)

    @staticmethod
    def _flatten_ops(operators: Any) -> list:
        """All operators plus fused children, flattened."""
        out = []
        for op in operators:
            out.append(op)
            children = getattr(op, "children", None)
            if children:
                out.extend(ScanCheckpointer._flatten_ops(children))
        return out
