"""Streaming query composition: every query runs in one pass over the video.

The executor compiles each query — basic, spatial, duration, or temporal —
into a :class:`QueryStream`.  A stream is a small tree whose leaves are
:class:`PlanStream`\\ s (one operator pipeline each) and whose inner nodes are
incremental composition operators:

* :class:`DurationStream` performs *online run-length event grouping* over
  its base stream's per-frame match signatures (via
  :class:`OnlineEventGrouper`), so duration filtering no longer needs a
  second pass over the video;
* :class:`TemporalStream` pairs the events its two sub-streams close *as
  they close* during the scan: windowed pairing is fully incremental, its
  candidate buffers are pruned against watermarks derived from the
  sub-streams' open runs, and bounded queries can therefore retire before
  the video ends.

Because every stream in a batch advances frame-by-frame against the same
:class:`~repro.backend.runtime.ExecutionContext`, detector, tracker, and
property-model results are computed exactly once per (model, frame) — the
paper's query-level computation reuse (§4.2, §5.3) now extends to
higher-order queries instead of being silently lost after the batched scan.
Leaves whose plans are structurally identical go one step further and share
one pipeline run per frame (:meth:`PlanStream.reuse_frame`).

Streams additionally speak the adaptive scan scheduler's protocol
(:mod:`repro.backend.scheduler`):

* ``done()`` — existence-style and top-k-bounded queries report when their
  answer is determined, so the scheduler can retire them from the batch
  (and stop the scan entirely once every stream is done);
* ``skip_frame()`` / ``OnlineEventGrouper.mark_skipped()`` — frames rejected
  by the batch-level frame-filter gate are accounted without running the
  pipeline, and closed events are labelled with the gate-skipped frames
  inside their range;
* ``lookback_frames()`` — how many recent frames a stream may still need,
  which bounds how eagerly the scheduler may evict per-frame caches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import zip_longest
from typing import Dict, Iterable, List, Optional, Tuple

from repro.backend.graph import FrameGraph
from repro.backend.operators import FrameFilterOp
from repro.backend.plan import QueryPlan
from repro.backend.results import Event, QueryResult
from repro.backend.runtime import ExecutionContext
from repro.videosim.video import Frame, SyntheticVideo


class OnlineEventGrouper:
    """Incremental run-length grouping of a per-frame match-signature stream.

    The streaming equivalent of :func:`repro.backend.executor.extract_events`:
    signatures observed within ``max_gap`` frames of their previous sighting
    extend the open run; larger gaps close the run (dropping it when shorter
    than ``min_length``) and start a new one.  Runs still open when the video
    ends are closed by :meth:`finish`.

    Consumers that need events *during* the scan (incremental temporal
    pairing, early-exit decisions) use :meth:`drain`, which hands out each
    closed event exactly once, in close order.  Frames the scan scheduler's
    gate skipped are recorded via :meth:`mark_skipped` and attached to the
    closed events whose range contains them, so reported event ranges stay
    contiguous while being honest about sampling.
    """

    def __init__(self, max_gap: int = 5, min_length: int = 1, label: str = "") -> None:
        self.max_gap = max_gap
        self.min_length = min_length
        self.label = label
        #: signature -> (start_frame, last_seen_frame) of the open run.
        self._open: Dict[Tuple, Tuple[int, int]] = {}
        self._closed: List[Event] = []
        #: Closed events not yet handed out by :meth:`drain` (close order).
        self._pending: List[Event] = []
        #: ``finish``'s presentation-sorted view of ``_closed`` (memoised).
        self._ordered: List[Event] = []
        #: Gate-skipped frames that may still fall inside an open run.
        self._skipped: List[int] = []
        self._finished = False
        #: Closed events forgotten by :meth:`trim_closed` (standing-query
        #: mode); keeps :attr:`num_closed` monotonic after trimming.
        self._dropped_closed = 0

    def observe(self, frame_id: int, signatures: Iterable[Tuple]) -> None:
        """Feed the signatures matched on ``frame_id`` (call once per frame)."""
        expired = [
            signature
            for signature, (_, last) in self._open.items()
            if frame_id - last > self.max_gap
        ]
        for signature in expired:
            self._close(signature)
        if self._skipped:
            # A skipped frame only matters while some open run can still
            # cover it; anything older than every possible run start is dead.
            horizon = min(
                (start for start, _ in self._open.values()),
                default=frame_id - self.max_gap,
            )
            if self._skipped[0] < horizon:
                self._skipped = [f for f in self._skipped if f >= horizon]
        for signature in signatures:
            run = self._open.get(signature)
            if run is None:
                self._open[signature] = (frame_id, frame_id)
            else:
                self._open[signature] = (run[0], frame_id)

    def mark_skipped(self, frame_id: int) -> None:
        """Record that the scan scheduler's gate skipped ``frame_id``."""
        self._skipped.append(frame_id)

    def _close(self, signature: Tuple) -> None:
        start, last = self._open.pop(signature)
        if last - start + 1 >= self.min_length:
            event = Event(
                start_frame=start,
                end_frame=last,
                signature=signature,
                label=self.label,
                skipped_frames=tuple(f for f in self._skipped if start <= f <= last),
            )
            self._closed.append(event)
            self._pending.append(event)

    @property
    def num_closed(self) -> int:
        """Events closed so far (drives top-k early-exit decisions)."""
        return self._dropped_closed + len(self._closed)

    def closed_in_order(self, k: int) -> List[Event]:
        """The first ``k`` events in *close* order (top-k bound semantics).

        A bounded query is done when its ``k``-th run closes, so its answer
        is exactly these events — stable whether the scan then stopped or
        ran on (``finish`` force-closes surviving runs *after* them, and a
        start-frame-sorted cut could wrongly prefer such a truncated run).
        """
        return self._closed[:k]

    def drain(self) -> List[Event]:
        """Events closed since the previous drain, in close order."""
        out, self._pending = self._pending, []
        return out

    def trim_closed(self) -> int:
        """Forget already-drained closed events; returns how many were dropped.

        Standing queries (live mode) hand each event out exactly once via
        :meth:`drain` and never finalize from history, so retaining every
        closed event forever would grow without bound.  Bounded queries must
        NOT trim — :meth:`closed_in_order` needs the close-order prefix —
        which is why callers gate this on ``limit is None``.
        """
        kept = len(self._pending)
        dropped = len(self._closed) - kept
        if dropped > 0:
            self._dropped_closed += dropped
            self._closed = self._closed[-kept:] if kept else []
        return max(dropped, 0)

    # -- watermarks (bounds on events this grouper may still close) -----------
    def start_watermark(self, frame_id: int) -> int:
        """Lower bound on the start frame of any event still to close."""
        return min((start for start, _ in self._open.values()), default=frame_id + 1)

    def end_watermark(self, frame_id: int) -> int:
        """Lower bound on the end frame of any event still to close."""
        return min((last for _, last in self._open.values()), default=frame_id + 1)

    def finish(self) -> List[Event]:
        """Close the remaining runs and return all events, ordered.

        ``_closed`` itself stays in close order (``closed_in_order`` relies
        on it); the sorted presentation view is built once here.
        """
        if not self._finished:
            for signature in list(self._open):
                self._close(signature)
            self._ordered = sorted(self._closed, key=lambda e: (e.start_frame, e.end_frame))
            self._finished = True
        return self._ordered


def _stream_query_name(stream: "QueryStream") -> str:
    """Best-effort query name of a stream (for paired-event labels)."""
    name = getattr(stream, "query_name", None)
    if name:
        return name
    result = getattr(stream, "result", None)
    return result.query_name if result is not None else ""


class QueryStream(ABC):
    """A compiled query: leaf operator pipelines plus incremental composition.

    Besides the three core hooks (:meth:`plan_streams`, :meth:`observe_frame`,
    :meth:`finalize`), streams speak the scan scheduler's protocol; the base
    class provides conservative defaults (never done, no lookback, no events
    closing during the scan) so simple stream implementations keep working.
    """

    @abstractmethod
    def plan_streams(self) -> List["PlanStream"]:
        """The leaf :class:`PlanStream`\\ s whose operators run on each frame."""

    @abstractmethod
    def observe_frame(self, frame_id: int) -> None:
        """Advance the composition layer once the frame's operators have run."""

    @abstractmethod
    def finalize(self, video: SyntheticVideo, ctx: ExecutionContext) -> QueryResult:
        """Flush open state and produce the stream's :class:`QueryResult`."""

    # -- scan-scheduler protocol ------------------------------------------------
    def done(self) -> bool:
        """True when the stream's answer is fully determined (early exit)."""
        return False

    def lookback_frames(self) -> int:
        """How many recent frames this stream may still need cached."""
        return 0

    def drain_events(self) -> List[Event]:
        """Events this stream closed since the last drain (close order)."""
        return []

    def min_future_event_start(self, frame_id: int) -> int:
        """Lower bound on the start frame of any event still to be closed."""
        return frame_id + 1

    def min_future_event_end(self, frame_id: int) -> int:
        """Lower bound on the end frame of any event still to be closed."""
        return frame_id + 1

    # -- standing-query (live-mode) protocol ------------------------------------
    def flush_events(self) -> List[Event]:
        """Force-close open runs and return the newly closed events.

        Called when a live session shuts a standing query down: runs still
        open at the last observed frame are closed as if the feed had ended,
        so their events reach the alert sinks instead of being lost.
        """
        return []

    def prune_live(self, frame_id: int) -> None:
        """Release accumulated state no future event can depend on.

        A standing query never finalizes from history — events are emitted
        incrementally via :meth:`drain_events` — so per-frame match records
        and already-drained events behind the stream's own watermarks are
        dead weight.  Implementations must no-op for bounded streams (their
        finalize genuinely replays history); the default does nothing.
        """


class PlanStream(QueryStream):
    """One operator pipeline fed frame-by-frame, accumulating its result.

    A parent composition stream may attach an :class:`OnlineEventGrouper`
    via :meth:`event_stream`; the grouper then consumes this stream's match
    signatures as frames are processed, and the finalized result carries the
    grouped events.

    With ``gated=True`` the plan's frame filters are *not* run inside the
    pipeline: they are exposed via :attr:`gate_filters` for the scan
    scheduler's batch-level :class:`~repro.backend.scheduler.FrameGate`,
    which evaluates each distinct filter model once per frame for the whole
    batch and calls :meth:`skip_frame` on every leaf whose gate rejects it.
    Without, :attr:`gate_filters` is empty and the gate admits every frame.
    """

    def __init__(
        self,
        plan: QueryPlan,
        executor,
        gated: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        self.plan = plan
        self.executor = executor
        #: Frame-filter operators hoisted out of the pipeline (gated mode).
        self.gate_filters = list(plan.frame_filters) if gated else []
        #: Detector models this leaf runs per frame (stride-sampler probes).
        self.detector_models = plan.detector_models()
        self.operators = plan.pipeline_operators() if gated else plan.operators()
        self._sink = executor.compile_sink(plan.analysis)
        #: Operators the last :meth:`process_frame` ran, up to and including
        #: the one that dropped the frame.
        self.ops_run = 0
        #: Result bound for early exit (None = unbounded).
        self.limit = limit
        self.result = QueryResult(query_name=plan.query_name, plan_variant=plan.variant)
        self._grouper: Optional[OnlineEventGrouper] = None
        #: True when the grouper was attached by :meth:`ensure_event_stream`
        #: (events belong to THIS stream's result and must honour its bound)
        #: rather than by a composition layer (whose pairing needs the full,
        #: untruncated event stream of a bounded child).
        self._grouper_ensured = False

    @property
    def query_name(self) -> str:
        return self.plan.query_name

    def event_stream(self, max_gap: int = 5, min_length: int = 1) -> OnlineEventGrouper:
        """Attach the grouper deriving events from this stream's matches."""
        if self._grouper is not None:
            raise ValueError(f"{self.plan.query_name}: event stream already attached")
        self._grouper = OnlineEventGrouper(max_gap=max_gap, min_length=min_length)
        return self._grouper

    def ensure_event_stream(self, max_gap: int = 5, min_length: int = 1) -> OnlineEventGrouper:
        """The attached grouper, attaching a default one if none exists yet.

        Cross-camera linking needs events from *every* stream in the batch —
        including bare basic queries that would otherwise only report
        per-frame matches — without a second pass over the matches.  Unlike
        :meth:`event_stream` this is idempotent, so a composition layer that
        attached its own grouper keeps it.
        """
        if self._grouper is None:
            self._grouper = OnlineEventGrouper(max_gap=max_gap, min_length=min_length)
            self._grouper_ensured = True
        return self._grouper

    def plan_streams(self) -> List["PlanStream"]:
        return [self]

    def share_key(self) -> Optional[Tuple]:
        """Structural identity this leaf shares with every leaf that would
        produce the same records on a frame (see :meth:`reuse_frame`).

        None when the leaf must always run itself: in-pipeline frame filters
        keep state and charge the clock, and relation states are not cached
        per frame, so rerunning either costs virtual time.
        """
        if self.plan.analysis.relations or any(
            isinstance(op, FrameFilterOp) for op in self.operators
        ):
            return None
        return self.plan.structural_key()

    def process_frame(self, frame: Frame, ctx: ExecutionContext) -> None:
        """Run the plan's operators and sink on one frame."""
        graph = FrameGraph(frame)
        ran = 0
        for op in self.operators:
            graph = op.run(graph, ctx)
            ran += 1
            if graph.dropped:
                break
        self.ops_run = ran
        self._sink(graph, ctx, self.result)
        self.result.num_frames_processed += 1

    def reuse_frame(self, frame: Frame, twin: "PlanStream", ctx: ExecutionContext) -> None:
        """Take the frame's records from a leaf with the same :meth:`share_key`.

        ``twin`` ran :meth:`process_frame` on this frame earlier in the same
        pass, so every detector, tracker and property value this leaf's
        pipeline would read is already cached and a rerun would only charge
        operator overhead.  That overhead is replayed charge by charge, so
        the virtual clock reads exactly as if the pipeline had run.  The
        frozen match records are shared; the list holding them is not.
        """
        for op in self.operators[: twin.ops_run]:
            op.charge_overhead(ctx)
        records = twin.result.matches.get(frame.frame_id)
        if records:
            if any(record.frame_match for record in records):
                self.result.matched_frames.append(frame.frame_id)
            self.result.matches[frame.frame_id] = list(records)
        self.result.num_frames_processed += 1

    def skip_frame(self, frame: Frame) -> None:
        """Account a gate-rejected frame without running the pipeline."""
        self.label_unobserved(frame.frame_id)
        self.result.num_frames_processed += 1

    def label_unobserved(self, frame_id: int) -> None:
        """Label a frame the detector never saw.

        Covers frames whose pipeline ran over track-interpolated seeds
        (stride gaps, degraded frames) and frames the scan never saw at all
        (live shed / feed outage: nothing ran, nothing was charged).  It
        only labels; it never counts the frame as processed.  The grouper
        records it so any
        event whose range spans it stays labelled via
        ``Event.skipped_frames``, keeping reported ranges honest about what
        was actually observed.
        """
        if self._grouper is not None:
            self._grouper.mark_skipped(frame_id)

    def observe_frame(self, frame_id: int) -> None:
        if self._grouper is not None:
            records = self.result.matches.get(frame_id, ())
            self._grouper.observe(frame_id, (r.signature for r in records))

    # -- scan-scheduler protocol ------------------------------------------------
    def done(self) -> bool:
        return self.limit is not None and len(self.result.matched_frames) >= self.limit

    def lookback_frames(self) -> int:
        return self._grouper.max_gap if self._grouper is not None else 0

    def drain_events(self) -> List[Event]:
        return self._grouper.drain() if self._grouper is not None else []

    def min_future_event_start(self, frame_id: int) -> int:
        if self._grouper is None:
            return frame_id + 1
        return self._grouper.start_watermark(frame_id)

    def min_future_event_end(self, frame_id: int) -> int:
        if self._grouper is None:
            return frame_id + 1
        return self._grouper.end_watermark(frame_id)

    # -- standing-query (live-mode) protocol ------------------------------------
    def flush_events(self) -> List[Event]:
        if self._grouper is None:
            return []
        self._grouper.finish()
        return self._grouper.drain()

    def prune_live(self, frame_id: int) -> None:
        if self.limit is not None:
            # Bounded streams finalize from result.matches (regroup path);
            # their history must survive.  Live standing queries are
            # unbounded, so this guard never bites there.
            return
        horizon = frame_id + 1
        if self._grouper is not None:
            self._grouper.trim_closed()
            horizon = min(horizon, self._grouper.start_watermark(frame_id))
        if self.result.matches:
            self.result.matches = {
                fid: records
                for fid, records in self.result.matches.items()
                if fid >= horizon
            }
        if self.result.matched_frames:
            self.result.matched_frames = [
                f for f in self.result.matched_frames if f >= horizon
            ]
        # Positional per-frame cost samples cannot be pruned by frame id;
        # live cost accounting comes from the clock and LiveStats instead.
        del self.result.per_frame_ms[:]

    def finalize(self, video: SyntheticVideo, ctx: ExecutionContext) -> QueryResult:
        if self.limit is not None:
            kept = self.result.matched_frames[: self.limit]
            self.result.matched_frames = kept
            # Keep the per-frame records consistent with the bound: without
            # early exit the scan still covers the whole video, and matches
            # beyond the limit-th frame must not leak into num_matches.
            keep = set(kept)
            self.result.matches = {
                frame_id: records
                for frame_id, records in self.result.matches.items()
                if frame_id in keep
            }
        if self._grouper is not None:
            if self.limit is None or not self._grouper_ensured:
                # Composition-attached groupers deliberately ignore a child's
                # matched-frame bound: temporal pairing consumes the child's
                # FULL event stream (see "bounded children do not truncate
                # temporal events" in the scheduler tests).
                self.result.events = self._grouper.finish()
            else:
                # An ensure-attached grouper's events belong to this bounded
                # result: the scan grouper may have seen matches the bound
                # excludes — and how many depends on whether an early exit
                # stopped the scan — so regroup over the kept matches, which
                # are identical with early exit on or off.
                finished = self._grouper.finish()
                regrouped = OnlineEventGrouper(
                    max_gap=self._grouper.max_gap, min_length=self._grouper.min_length
                )
                skipped = {f for event in finished for f in event.skipped_frames}
                skipped.update(self._grouper._skipped)
                for frame_id in sorted(skipped):
                    regrouped.mark_skipped(frame_id)
                for frame_id in sorted(self.result.matches):
                    regrouped.observe(
                        frame_id, (r.signature for r in self.result.matches[frame_id])
                    )
                self.result.events = regrouped.finish()
        return self.result


class DurationStream(QueryStream):
    """Duration filtering as an incremental operator over the base stream.

    The base plan's matches are grouped online into per-object runs; at
    finalization the qualifying runs become the result's events and the
    matched frames are restricted to frames covered by a qualifying run.
    Because the grouper enforces ``min_length`` as runs close, a bounded
    duration query is *done* the moment its ``limit``-th qualifying run
    closes — long before finalize.
    """

    def __init__(
        self,
        base: PlanStream,
        required_frames: int,
        max_gap: int,
        limit: Optional[int] = None,
    ) -> None:
        self.base = base
        self.required_frames = required_frames
        self.limit = limit
        self.grouper = base.event_stream(max_gap=max_gap, min_length=required_frames)

    @property
    def query_name(self) -> str:
        return self.base.plan.query_name

    def plan_streams(self) -> List[PlanStream]:
        return self.base.plan_streams()

    def observe_frame(self, frame_id: int) -> None:
        self.base.observe_frame(frame_id)

    # -- scan-scheduler protocol ------------------------------------------------
    def done(self) -> bool:
        return self.limit is not None and self.grouper.num_closed >= self.limit

    def lookback_frames(self) -> int:
        return self.grouper.max_gap

    def drain_events(self) -> List[Event]:
        return self.grouper.drain()

    def min_future_event_start(self, frame_id: int) -> int:
        return self.grouper.start_watermark(frame_id)

    def min_future_event_end(self, frame_id: int) -> int:
        return self.grouper.end_watermark(frame_id)

    # -- standing-query (live-mode) protocol ------------------------------------
    def flush_events(self) -> List[Event]:
        if self.limit is not None:
            return []
        self.grouper.finish()
        return self.grouper.drain()

    def prune_live(self, frame_id: int) -> None:
        if self.limit is not None:
            return
        # The grouper is attached to the base stream, so the base's prune
        # trims it; the base's own limit is None whenever ours is.
        self.base.prune_live(frame_id)

    def finalize(self, video: SyntheticVideo, ctx: ExecutionContext) -> QueryResult:
        result = self.base.finalize(video, ctx)
        if self.limit is not None:
            # "First `limit` runs to close" — the answer done() determined.
            # finish() also force-closes runs cut short by an early exit;
            # a start-frame-sorted [:limit] could let such a truncated run
            # displace a qualifying one, so cut in close order and only
            # then sort for presentation.
            chosen = self.grouper.closed_in_order(self.limit)
            result.events = sorted(chosen, key=lambda e: (e.start_frame, e.end_frame))
        qualifying: set = set()
        for event in result.events:
            qualifying.update(range(event.start_frame, event.end_frame + 1))
        result.matched_frames = sorted(set(result.matched_frames) & qualifying)
        if self.limit is not None:
            # Per-frame records must match the bounded answer: frames of the
            # chosen events were all processed before the limit-th close, so
            # this cut is identical with early exit on or off.
            result.matches = {
                frame_id: records
                for frame_id, records in result.matches.items()
                if frame_id in qualifying
            }
        result.aggregates.setdefault("num_events", len(result.events))
        result.aggregate_kinds.setdefault("num_events", "count")
        return result


class TemporalStream(QueryStream):
    """Windowed event pairing over two sub-streams sharing the same scan.

    Both children advance on every frame.  Pairing is *fully incremental*:
    as either child closes an event, it is checked against the buffered
    events of the other side, and a (first, second) pair is emitted when the
    second event starts between ``min_gap`` and ``max_gap`` frames after the
    first event ends.  The paired event spans the *full* range from the
    first event's start to the second event's end — including the
    in-between gap frames.

    The candidate buffers are pruned against the children's event
    watermarks (the earliest start/end any still-open run could produce),
    which caps their size at the events alive inside the pairing window.
    Incremental pairing is also what makes :meth:`done` decidable: a
    top-k-bounded temporal query retires the moment its ``limit``-th pair
    forms, instead of waiting for finalize.
    """

    def __init__(
        self,
        query_name: str,
        first: QueryStream,
        second: QueryStream,
        min_gap_frames: int,
        max_gap_frames: int,
        limit: Optional[int] = None,
    ) -> None:
        self.query_name = query_name
        self.first = first
        self.second = second
        self.min_gap_frames = min_gap_frames
        self.max_gap_frames = max_gap_frames
        self.limit = limit
        # Plan-backed children expose their matches as an event stream with
        # the default grouping parameters (mirroring extract_events defaults).
        for child in (self.first, self.second):
            if isinstance(child, PlanStream):
                child.event_stream()
        #: Closed events still eligible to pair with a future partner.
        self._first_buf: List[Event] = []
        self._second_buf: List[Event] = []
        #: Every event ever ingested per side (guards finalize against
        #: re-ingesting events that already paired during the scan).
        self._seen_first: set = set()
        self._seen_second: set = set()
        #: (first, second, paired) triples, in pair-formation order.
        self._pairs: List[Tuple[Event, Event, Event]] = []
        #: Paired events not yet drained by an enclosing TemporalStream.
        self._pending_pairs: List[Event] = []

    def plan_streams(self) -> List[PlanStream]:
        return self.first.plan_streams() + self.second.plan_streams()

    def observe_frame(self, frame_id: int) -> None:
        self.first.observe_frame(frame_id)
        self.second.observe_frame(frame_id)
        self._ingest(self.first.drain_events(), self.second.drain_events())
        self._prune_buffers(frame_id)

    # -- incremental pairing ----------------------------------------------------
    def _ingest(self, new_first: Iterable[Event], new_second: Iterable[Event]) -> None:
        """Pair newly closed events against the opposite side's buffer.

        New firsts are buffered before new seconds are checked, so a pair
        whose two events close on the same frame is still found — and found
        exactly once.
        """
        for ev_a in new_first:
            if ev_a in self._seen_first:
                continue
            self._seen_first.add(ev_a)
            for ev_b in self._second_buf:
                self._try_pair(ev_a, ev_b)
            self._first_buf.append(ev_a)
        for ev_b in new_second:
            if ev_b in self._seen_second:
                continue
            self._seen_second.add(ev_b)
            for ev_a in self._first_buf:
                self._try_pair(ev_a, ev_b)
            self._second_buf.append(ev_b)

    def _try_pair(self, ev_a: Event, ev_b: Event) -> None:
        gap = ev_b.start_frame - ev_a.end_frame
        if self.min_gap_frames <= gap <= self.max_gap_frames:
            paired = Event(
                start_frame=ev_a.start_frame,
                end_frame=ev_b.end_frame,
                signature=ev_a.signature + ev_b.signature,
                label=f"{_stream_query_name(self.first)}->{_stream_query_name(self.second)}",
                # Keep the pair honest about sampling: frames the gate
                # skipped inside either constituent event stay labelled.
                skipped_frames=tuple(
                    sorted(set(ev_a.skipped_frames) | set(ev_b.skipped_frames))
                ),
            )
            self._pairs.append((ev_a, ev_b, paired))
            self._pending_pairs.append(paired)

    def _prune_buffers(self, frame_id: int) -> None:
        """Drop buffered events that can no longer pair with a future partner.

        A buffered first event only matters for *future* seconds (buffered
        seconds were already checked at ingest), which must start at or
        after the second child's start watermark; symmetrically for
        buffered seconds against the first child's end watermark.
        """
        if self._first_buf:
            start_wm = self.second.min_future_event_start(frame_id)
            self._first_buf = [
                a for a in self._first_buf if a.end_frame + self.max_gap_frames >= start_wm
            ]
        if self._second_buf:
            end_wm = self.first.min_future_event_end(frame_id)
            self._second_buf = [
                b for b in self._second_buf if b.start_frame - self.min_gap_frames >= end_wm
            ]

    # -- scan-scheduler protocol ------------------------------------------------
    def done(self) -> bool:
        # Only the stream's own pair bound can determine the answer early.
        # A child reporting done() (its matched-frame bound) does NOT mean
        # its event stream is determined — an open run can still extend, so
        # stopping there would truncate events and fabricate pairs.
        return self.limit is not None and len(self._pairs) >= self.limit

    def lookback_frames(self) -> int:
        return max(
            self.first.lookback_frames(),
            self.second.lookback_frames(),
            self.max_gap_frames,
        )

    def drain_events(self) -> List[Event]:
        out, self._pending_pairs = self._pending_pairs, []
        return out

    def min_future_event_start(self, frame_id: int) -> int:
        # A future pair starts at its first event's start: either a buffered
        # first event or one the first child has yet to close.
        return min(
            [self.first.min_future_event_start(frame_id)]
            + [a.start_frame for a in self._first_buf]
        )

    def min_future_event_end(self, frame_id: int) -> int:
        # A future pair ends at its second event's end: either a buffered
        # second event or one the second child has yet to close.
        return min(
            [self.second.min_future_event_end(frame_id)]
            + [b.end_frame for b in self._second_buf]
        )

    # -- standing-query (live-mode) protocol ------------------------------------
    def flush_events(self) -> List[Event]:
        """Flush both children, pair their freshly closed events, drain pairs."""
        self._ingest(self.first.flush_events(), self.second.flush_events())
        return self.drain_events()

    def prune_live(self, frame_id: int) -> None:
        if self.limit is not None:
            return
        self.first.prune_live(frame_id)
        self.second.prune_live(frame_id)
        # Pairs already handed out via drain_events never pair again; the
        # formation log only serves bounded finalize, which a standing query
        # never reaches.  The undrained tail of _pairs mirrors _pending_pairs.
        if len(self._pairs) > len(self._pending_pairs):
            del self._pairs[: len(self._pairs) - len(self._pending_pairs)]
        # The seen-sets only guard finalize-time re-ingest; during live
        # operation each event is drained exactly once, so entries no longer
        # buffered are dead.
        self._seen_first &= set(self._first_buf)
        self._seen_second &= set(self._second_buf)

    def finalize(self, video: SyntheticVideo, ctx: ExecutionContext) -> QueryResult:
        first = self.first.finalize(video, ctx)
        second = self.second.finalize(video, ctx)

        # Events closed only at finalize (runs still open when the scan
        # ended) have not been ingested yet; the seen-sets make this a no-op
        # for everything already paired during the scan.
        self._ingest(first.events, second.events)

        # Bounded semantics are "first `limit` pairs to form" — what done()
        # tested.  The cut happens in formation order BEFORE sorting: the
        # finalize-time ingest above may pair events force-closed by an
        # early exit, and those late fabrications sort by start frame and
        # could displace the pairs that determined the answer.
        chosen = self._pairs[: self.limit] if self.limit is not None else self._pairs
        ordered = sorted(
            chosen,
            key=lambda t: (
                t[0].start_frame,
                t[0].end_frame,
                t[1].start_frame,
                t[1].end_frame,
            ),
        )
        pairs = [paired for _, _, paired in ordered]
        matched_frames: set = set()
        for ev_a, ev_b, _ in ordered:
            matched_frames.update(range(ev_a.start_frame, ev_b.end_frame + 1))

        result = QueryResult(query_name=self.query_name)
        result.num_frames_processed = max(first.num_frames_processed, second.num_frames_processed)
        result.events = pairs
        result.matched_frames = sorted(matched_frames)
        result.total_ms = first.total_ms + second.total_ms
        # Sub-results can cover different frame counts (e.g. a nested stream
        # over a shorter feed); pad with zero cost instead of truncating.
        result.per_frame_ms = [
            a + b for a, b in zip_longest(first.per_frame_ms, second.per_frame_ms, fillvalue=0.0)
        ]
        result.aggregates["num_event_pairs"] = len(pairs)
        result.aggregate_kinds["num_event_pairs"] = "count"
        result.reuse_hits = max(first.reuse_hits, second.reuse_hits)
        return result
