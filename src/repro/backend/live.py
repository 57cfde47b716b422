"""Push-driven live execution: standing queries over a paced, unbounded feed.

Batch execution (:class:`~repro.backend.session.QuerySession`) pulls frames
as fast as the scan can process them and finalizes results from history.  A
live source inverts both assumptions: frames arrive at the *feed's* pace —
possibly faster than compute, out of order, duplicated, or not at all — and
the scan never ends, so nothing may accumulate without bound and answers
must leave the engine the moment they exist.

:class:`LiveSession` is the push-driven counterpart.  Standing queries are
registered once and run indefinitely; closed events are emitted immediately
as :class:`Alert`\\ s to pluggable sinks instead of waiting for a
``finalize()`` that never comes.  Between the feed and the scan sit four
cooperating mechanisms, all on the ``SimClock``'s virtual timeline:

* **Re-sequencing** — arrivals are held in a reorder buffer of at most
  ``LiveConfig.reorder_window`` frames and released in frame-id order;
  frames arriving behind the release watermark (too late, or duplicates)
  are counted and discarded with a decision-log entry.
* **Backpressure that sheds accuracy first** — when the buffered depth
  crosses ``pressure_high`` the session doubles the scheduler's *pressure
  stride* (``ScanScheduler.set_pressure_stride``): interpolation-capable
  cohorts sample coarser and reconstruct the gaps, trading accuracy for
  throughput while every frame still gets an answer.  The stride floor
  halves back as the queue drains below ``pressure_low``.
* **Hard shedding as the last resort** — only past ``max_buffered_frames``
  are frames dropped outright (oldest first), each labelled into event
  provenance via ``ScanScheduler.note_missing_frame`` so any event spanning
  the loss carries it in ``Event.skipped_frames``.  Accounting is exact:
  ``delivered == processed + shed + late_dropped``, always.
* **A per-feed watchdog** — silence past ``stall_timeout_ms`` marks the
  feed stalled and drives disconnect → reconnect through the same
  retry/backoff + circuit-breaker machinery the fault layer uses
  (:class:`~repro.faults.resilience.CircuitBreaker`), with all waiting
  charged under ``"live-reconnect"``.  Standing-query state (open runs,
  tracker state, watermarks) survives the reconnection; frames lost to the
  outage are labelled missing exactly once.

Memory stays bounded forever: the ingest buffer is capped, alert queues are
bounded deques, the decision log is a ring buffer, and every
``prune_interval_frames`` dispatched frames each stream's
``prune_live()`` releases match/event history behind its own watermarks
(safe because a standing query never finalizes from history).

Everything here is gated behind ``PlannerConfig(enable_live=True)``; with
the flag off this module is never imported by the batch path, which stays
byte-identical.  The scan itself is built by the same
:meth:`~repro.backend.executor.Executor.build_scan` the batch path uses.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Union

from repro.backend.executor import Executor
from repro.backend.planner import Planner, PlannerConfig
from repro.backend.results import Event
from repro.backend.runtime import ExecutionContext
from repro.backend.scheduler import ScanScheduler
from repro.backend.streaming import QueryStream
from repro.common.clock import SimClock
from repro.common.config import LiveConfig
from repro.common.errors import ExecutionError, FeedFailedError
from repro.faults.resilience import CircuitBreaker
from repro.frontend.query import Query
from repro.frontend.registry import get_library_zoo
from repro.models.zoo import ModelZoo
from repro.obs.core import Obs
from repro.videosim.livefeed import LiveFeed
from repro.videosim.video import Frame, SyntheticVideo, VideoReader


# --------------------------------------------------------------------- alerts --
@dataclass(frozen=True)
class Alert:
    """One standing-query event, emitted the moment the engine closed it."""

    feed: str
    query_name: str
    event: Event
    emitted_at_ms: float


class CallbackSink:
    """Delivers each alert to a user callback as it is emitted."""

    def __init__(self, fn: Callable[[Alert], None]) -> None:
        self.fn = fn

    def emit(self, alert: Alert) -> None:
        self.fn(alert)


class QueueSink:
    """Bounded in-memory alert queue: oldest alerts are evicted past the cap.

    The cap is what keeps a never-ending session's alert path bounded when
    nobody drains; ``evicted`` counts the loss so it is visible, not silent.
    """

    def __init__(self, max_alerts: int = 1024) -> None:
        if max_alerts < 1:
            raise ValueError(f"max_alerts must be >= 1, got {max_alerts}")
        self._queue: Deque[Alert] = deque(maxlen=max_alerts)
        self.evicted = 0

    def emit(self, alert: Alert) -> None:
        if len(self._queue) == self._queue.maxlen:
            self.evicted += 1
        self._queue.append(alert)

    def drain(self) -> List[Alert]:
        """All queued alerts, oldest first (the queue is left empty)."""
        out = list(self._queue)
        self._queue.clear()
        return out

    def __len__(self) -> int:
        return len(self._queue)


# ------------------------------------------------------------------ accounting --
@dataclass
class LiveStats:
    """Exact frame/alert accounting for one live run.

    The load-shedding invariant — checked by the live benchmark's gate —
    is that every delivered frame is accounted exactly once:
    ``frames_delivered == frames_processed + frames_shed +
    frames_late_dropped``.  ``frames_lost`` counts outage losses the feed
    never delivered (they are labelled, not processed), so it sits outside
    that identity on purpose.
    """

    frames_delivered: int = 0
    frames_processed: int = 0
    frames_shed: int = 0
    frames_late_dropped: int = 0
    frames_reordered: int = 0
    frames_lost: int = 0
    duplicates_delivered: int = 0
    reconnects: int = 0
    reconnect_failures: int = 0
    stalls: int = 0
    alerts_emitted: int = 0
    peak_buffered: int = 0
    peak_pressure_stride: int = 1
    pressure_raises: int = 0

    def accounted(self) -> int:
        """Frames whose fate is settled; equals ``frames_delivered``."""
        return self.frames_processed + self.frames_shed + self.frames_late_dropped

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class _SequencedFrame:
    """Reorder-buffer entry ordered by frame id (duplicates after originals)."""

    __slots__ = ("frame", "duplicate")

    def __init__(self, frame: Frame, duplicate: bool) -> None:
        self.frame = frame
        self.duplicate = duplicate

    def __lt__(self, other: "_SequencedFrame") -> bool:
        return (self.frame.frame_id, self.duplicate) < (
            other.frame.frame_id,
            other.duplicate,
        )


# -------------------------------------------------------------------- session --
class LiveSession:
    """Runs standing queries against a paced live feed until it ends.

    Construction mirrors :class:`~repro.backend.session.QuerySession`
    (same zoo, planner, executor, and — when tracing is on — one shared
    :class:`~repro.obs.core.Obs` bundle), but execution is push-driven by
    :meth:`run`: the session polls the feed on the virtual clock, pays the
    decode cost per arrival, re-sequences, sheds, and steps the very same
    :class:`~repro.backend.scheduler.ScanScheduler` the batch path uses —
    so a replay of a finite recording with no overload produces exactly the
    events a batch execution would.

    Requires ``PlannerConfig(enable_live=True)``; the constructor refuses
    to build otherwise so the flag stays the single opt-in switch.
    """

    def __init__(
        self,
        feed: Union[LiveFeed, SyntheticVideo],
        zoo: Optional[ModelZoo] = None,
        config: Optional[PlannerConfig] = None,
        sinks: Optional[Sequence[Any]] = None,
    ) -> None:
        self.config = config or PlannerConfig()
        if not self.config.enable_live:
            raise ExecutionError(
                "live execution is opt-in: construct the session with "
                "PlannerConfig(enable_live=True)"
            )
        self.live: LiveConfig = self.config.live_config
        self.feed = feed if isinstance(feed, LiveFeed) else LiveFeed(feed)
        self.video = self.feed.video
        self.zoo = zoo or get_library_zoo()
        self.planner = Planner(self.zoo, self.config)
        self.executor = Executor(self.config)
        self.clock = SimClock()
        self.stats = LiveStats()
        #: Always-attached bounded queue; ``alerts()`` drains it.
        self.queue_sink = QueueSink(self.live.max_alert_queue)
        self.sinks: List[Any] = [self.queue_sink] + list(sinks or [])
        #: Observability bundle of the run; None unless ``enable_tracing``.
        self.last_obs: Optional[Obs] = None
        self.last_context: Optional[ExecutionContext] = None
        self._scheduler: Optional[ScanScheduler] = None
        self._streams: List[QueryStream] = []
        self._closed = False

        # -- ingest state ----------------------------------------------------
        #: Released-but-not-dispatched frames, in frame-id order.
        self._queue: Deque[_SequencedFrame] = deque()
        #: Out-of-order arrivals awaiting their predecessors.
        self._reorder: List[_SequencedFrame] = []
        #: Next frame id the re-sequencer wants to release.
        self._next_expected = 0
        #: Outage losses already labelled missing; the re-sequencer skips them.
        self._missing: set = set()
        #: Highest frame id seen arriving (out-of-order detection).
        self._highest_arrived = -1
        #: Frame id of the most recent dispatch (prune watermark).
        self._dispatched = -1
        self._last_prune = 0
        self._pressure = 1
        self._last_arrival_ms = 0.0
        self._breaker = CircuitBreaker(
            self.live.breaker_threshold, self.live.breaker_cooldown_ms
        )

    # -- public surface ----------------------------------------------------------
    def alerts(self) -> List[Alert]:
        """Drain the session's bounded alert queue (oldest first)."""
        return self.queue_sink.drain()

    def run(self, queries: Sequence[Query]) -> LiveStats:
        """Drive the standing queries until the feed is exhausted.

        Returns the session's exact frame accounting; events reach the
        sinks as they close during the run, with still-open runs flushed
        at shutdown (:meth:`close` semantics are folded in).
        """
        queries = list(queries)
        if not queries:
            raise ExecutionError("a live session needs at least one standing query")
        obs = Obs.from_config(self.config.obs())
        self.last_obs = obs if obs.enabled else None
        ctx = ExecutionContext(
            self.video, self.zoo, clock=self.clock, reuse_enabled=self.config.enable_reuse
        )
        self.last_context = ctx
        self.planner.begin_batch(queries)
        self._streams = [
            self.executor.compile(q, self.video, self.planner, ensure_events=True, obs=obs)
            for q in queries
        ]
        # Standing queries never early-exit: done() can fire for bounded
        # queries, but the feed — not the answer set — ends a live scan.
        scheduler = self.executor.build_scan(
            self._streams, ctx, self.feed.feed, obs, early_exit=False
        )
        self._scheduler = scheduler

        with obs.tracer.span(
            "live-session", clock=self.clock, feed=self.feed.feed,
            queries=len(queries),
        ):
            self._loop(scheduler, obs)
        self._shutdown(scheduler)
        return self.stats

    # -- main loop ---------------------------------------------------------------
    def _loop(self, scheduler: ScanScheduler, obs: Obs) -> None:
        decode_ms = VideoReader.DECODE_MS_PER_MEGAPIXEL * self.video.spec.megapixels
        while True:
            now = self.clock.elapsed_ms
            self._label_outage_losses(scheduler, now, obs)
            for frame, delivery in self.feed.poll(now):
                # A live source decodes on arrival, not on demand.
                self.clock.charge("video_reader", decode_ms)
                self._last_arrival_ms = max(self._last_arrival_ms, delivery.delivery_ms)
                self.stats.frames_delivered += 1
                if delivery.duplicate:
                    self.stats.duplicates_delivered += 1
                obs.metrics.observe(
                    "live_lag_ms", now - delivery.capture_ms, feed=self.feed.feed
                )
                self._admit(frame, delivery.duplicate, scheduler, obs)
            self._release_in_order(obs)
            # Accuracy first, frames last: widen the stride floor the moment
            # the high watermark is crossed — before the hard cap may shed in
            # the very same iteration — so coarsening always precedes drops.
            self._update_pressure(scheduler, obs)
            self._shed_over_cap(scheduler, obs)
            if self._queue:
                self._dispatch(scheduler)
                continue
            if not self._idle(scheduler, obs):
                return

    # -- ingest ------------------------------------------------------------------
    def _admit(self, frame: Frame, duplicate: bool, scheduler: ScanScheduler, obs: Obs) -> None:
        """Route one arrival: late-drop behind the watermark, else buffer."""
        fid = frame.frame_id
        if fid < self._next_expected:
            # Behind the release watermark: a duplicate of a frame already
            # sequenced, or an out-of-order frame the window gave up on.
            self._drop_late(fid, duplicate, scheduler, obs)
            return
        if fid < self._highest_arrived:
            self.stats.frames_reordered += 1
            obs.metrics.inc("frames_reordered", feed=self.feed.feed)
            obs.decisions.record(
                "frame-reordered", "out-of-order-arrival", frame_id=fid,
                behind=self._highest_arrived,
            )
        self._highest_arrived = max(self._highest_arrived, fid)
        insort(self._reorder, _SequencedFrame(frame, duplicate))

    def _drop_late(self, fid: int, duplicate: bool, scheduler: ScanScheduler, obs: Obs) -> None:
        self.stats.frames_late_dropped += 1
        if not duplicate:
            # The original copy: it was never sequenced, so the scan will
            # never step it — label the gap into event provenance.
            scheduler.note_missing_frame(fid)
        obs.metrics.inc("frames_late_dropped", feed=self.feed.feed)
        obs.decisions.record(
            "late-frame-dropped",
            "duplicate-delivery" if duplicate else "behind-watermark",
            frame_id=fid,
            watermark=self._next_expected - 1,
        )

    def _release_in_order(self, obs: Obs) -> None:
        """Move contiguous (or timed-out) reorder-buffer frames to the queue."""
        window = self.live.reorder_window
        while self._reorder:
            while self._next_expected in self._missing:
                self._missing.discard(self._next_expected)
                self._next_expected += 1
            head = self._reorder[0]
            fid = head.frame.frame_id
            if fid < self._next_expected:
                # A duplicate buffered while its original was still pending;
                # the original has since been released ahead of it.
                self._reorder.pop(0)
                self._drop_late(fid, head.duplicate, self._scheduler, obs)
                continue
            if fid == self._next_expected or len(self._reorder) > window:
                # In order — or the window is full and the gap frame has not
                # shown up: release out of order and let the gap frame be
                # late-dropped (and labelled missing) if it ever arrives.
                self._reorder.pop(0)
                self._queue.append(head)
                self._next_expected = fid + 1
                continue
            break

    def _buffered(self) -> int:
        return len(self._queue) + len(self._reorder)

    def _shed_over_cap(self, scheduler: ScanScheduler, obs: Obs) -> None:
        """Hard cap: drop the oldest buffered frames past ``max_buffered_frames``."""
        cap = self.live.max_buffered_frames
        while self._buffered() > cap:
            if self._queue:
                victim = self._queue.popleft()
            else:
                victim = self._reorder.pop(0)
                self._next_expected = max(self._next_expected, victim.frame.frame_id + 1)
            fid = victim.frame.frame_id
            self.stats.frames_shed += 1
            if not victim.duplicate:
                scheduler.note_missing_frame(fid)
            obs.metrics.inc("frames_shed", feed=self.feed.feed)
            obs.decisions.record(
                "frame-shed", "queue-over-cap", frame_id=fid,
                buffered=self._buffered() + 1, cap=cap,
            )
        depth = self._buffered()
        self.stats.peak_buffered = max(self.stats.peak_buffered, depth)
        obs.metrics.observe("live_queue_depth", depth, feed=self.feed.feed)

    def _update_pressure(self, scheduler: ScanScheduler, obs: Obs) -> None:
        """Shed accuracy before frames: widen the stride floor under load."""
        cap = self.live.max_buffered_frames
        frac = self._buffered() / cap
        if frac >= self.live.pressure_high and self._pressure < self.live.max_pressure_stride:
            new = min(max(2, self._pressure * 2), self.live.max_pressure_stride)
            if scheduler.set_pressure_stride(new):
                obs.decisions.record(
                    "pressure-stride-raised", "queue-pressure",
                    frame_id=self._next_expected,
                    stride_from=self._pressure, stride_to=new,
                    queue_depth=self._buffered(),
                )
                self._pressure = new
                self.stats.pressure_raises += 1
                self.stats.peak_pressure_stride = max(
                    self.stats.peak_pressure_stride, new
                )
        elif frac <= self.live.pressure_low and self._pressure > 1:
            new = max(1, self._pressure // 2)
            if scheduler.set_pressure_stride(new):
                self._pressure = new

    # -- dispatch ----------------------------------------------------------------
    def _dispatch(self, scheduler: ScanScheduler) -> None:
        entry = self._queue.popleft()
        self.stats.frames_processed += 1
        self._dispatched = entry.frame.frame_id
        scheduler.step(scheduler.ctx.faults.reader_hook(entry.frame))
        self._emit_alerts()
        if self._dispatched - self._last_prune >= self.live.prune_interval_frames:
            for stream in self._streams:
                stream.prune_live(self._dispatched)
            self._last_prune = self._dispatched

    def _emit_alerts(self) -> None:
        now = self.clock.elapsed_ms
        for stream in self._streams:
            for event in stream.drain_events():
                self._emit(Alert(self.feed.feed, stream.query_name, event, now))

    def _emit(self, alert: Alert) -> None:
        self.stats.alerts_emitted += 1
        for sink in self.sinks:
            sink.emit(alert)

    # -- idle / watchdog ---------------------------------------------------------
    def _idle(self, scheduler: ScanScheduler, obs: Obs) -> bool:
        """Nothing to dispatch: wait for the feed, or handle its silence.

        Returns False when the feed is exhausted and fully drained — the
        only clean way out of the loop.
        """
        now = self.clock.elapsed_ms
        next_ms = self.feed.next_delivery_ms()
        if next_ms is None:
            if self._reorder:
                # No more arrivals will ever fill the gaps: flush the tail.
                while self._reorder:
                    head = self._reorder.pop(0)
                    if head.frame.frame_id < self._next_expected:
                        self._drop_late(head.frame.frame_id, head.duplicate, scheduler, obs)
                        continue
                    self._queue.append(head)
                    self._next_expected = head.frame.frame_id + 1
                return True
            # Surface any outage losses scheduled past the last delivery.
            self._label_outage_losses(scheduler, math.inf, obs)
            return False
        if next_ms <= now:
            return True
        deadline = self._last_arrival_ms + self.live.stall_timeout_ms
        if next_ms <= deadline:
            # Ordinary pacing gap: sleep the virtual clock to the arrival.
            self.clock.charge("live-idle", next_ms - now)
            return True
        if deadline > now:
            # Sleep only as far as the watchdog allows before declaring a stall.
            self.clock.charge("live-idle", deadline - now)
            return True
        self._handle_stall(scheduler, obs)
        return True

    def _handle_stall(self, scheduler: ScanScheduler, obs: Obs) -> None:
        """The watchdog path: silence past the deadline → reconnect or die."""
        now = self.clock.elapsed_ms
        self.stats.stalls += 1
        obs.decisions.record(
            "feed-stalled", "no-arrivals", frame_id=self._dispatched,
            subject=self.feed.feed, silent_ms=round(now - self._last_arrival_ms, 3),
        )
        backoff = self.live.reconnect_backoff_base_ms
        for attempt in range(1, self.live.max_reconnect_attempts + 1):
            self.clock.charge("live-reconnect", backoff)
            if not self._breaker.allow(self.clock.elapsed_ms):
                # Circuit open: wait the cooldown out before probing again.
                self.clock.charge("live-reconnect", self.live.breaker_cooldown_ms)
            now = self.clock.elapsed_ms
            if self.feed.reconnect(now):
                self._breaker.record_success()
                self.stats.reconnects += 1
                # Losses inside the outage are labelled on reconnect, before
                # post-outage frames reach the scan.
                self._label_outage_losses(scheduler, now, obs)
                self._last_arrival_ms = now
                obs.metrics.inc("reconnects", feed=self.feed.feed)
                obs.decisions.record(
                    "feed-reconnected", "reconnect-success",
                    subject=self.feed.feed, attempt=attempt,
                )
                return
            self.stats.reconnect_failures += 1
            self._breaker.record_failure(now)
            backoff *= self.live.reconnect_backoff_factor
        raise FeedFailedError(
            f"live feed {self.feed.feed!r} stalled and "
            f"{self.live.max_reconnect_attempts} reconnect attempts failed",
            feed=self.feed.feed,
            frame_id=self._dispatched if self._dispatched >= 0 else None,
        )

    def _label_outage_losses(self, scheduler: ScanScheduler, now: float, obs: Obs) -> None:
        for fid in self.feed.lost_before(now):
            scheduler.note_missing_frame(fid)
            self._missing.add(fid)
            self.stats.frames_lost += 1
            obs.decisions.record(
                "frame-lost", "feed-outage", frame_id=fid, subject=self.feed.feed
            )

    # -- shutdown ----------------------------------------------------------------
    def _shutdown(self, scheduler: ScanScheduler) -> None:
        """Resolve deferred tails, then force-close and emit open runs."""
        if self._closed:
            return
        self._closed = True
        scheduler.drain()
        self._emit_alerts()
        now = self.clock.elapsed_ms
        for stream in self._streams:
            for event in stream.flush_events():
                self._emit(Alert(self.feed.feed, stream.query_name, event, now))

    # -- reporting ---------------------------------------------------------------
    @property
    def last_scan_stats(self) -> Optional[Dict[str, object]]:
        """The scan scheduler's counters for the run (None before ``run``)."""
        if self._scheduler is None:
            return None
        return self._scheduler.stats.as_dict()

    def explain(self) -> str:
        """EXPLAIN ANALYZE-style report of the run, with a live section.

        Requires ``enable_tracing`` (the decision log and metrics feed the
        report); raises before :meth:`run`.
        """
        from repro.obs.explain import ExplainData, render_explain

        if self._scheduler is None:
            raise ExecutionError("explain() needs a completed run() first")
        obs = self.last_obs
        data = ExplainData(
            query_name=f"live[{self.feed.feed}]",
            plan_variant="live",
            scan_stats=self._scheduler.stats.as_dict(),
            cost_breakdown=dict(self.clock.breakdown()),
            model_calls=dict(self.clock.calls),
            total_ms=self.clock.elapsed_ms,
            decisions=obs.decisions if obs is not None else None,
            tracer=obs.tracer if obs is not None else None,
            live=self.stats.as_dict(),
        )
        return render_explain(data)
