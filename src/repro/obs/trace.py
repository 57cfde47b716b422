"""Hierarchical spans carrying wall-clock and virtual ``SimClock`` time.

Span taxonomy (parent → child):

    execute-batch → plan → profile
                  → feed-scan (one lane per camera feed)
                  → scan → frame-gate-eval
                         → model-invocation
                  → reid-link

Spans record *both* clocks: wall time via ``time.perf_counter()`` and
virtual milliseconds by snapshotting a ``SimClock`` at enter/exit.  A span
never charges the clock it observes, which is what keeps results
byte-identical with tracing on or off.

Parenting is implicit via one span stack per tracer: a tracer belongs to
one execution on one thread (a ``MultiCameraSession`` runs its feeds one
after another, so each ``feed-scan`` nests under ``execute-batch`` by the
stack alone).  A feed's span names a ``lane`` so exported traces render
each feed on its own lane.  ``Tracer.span`` is a context manager and must
be used in a ``with`` statement (staticcheck SC6xx enforces this).

Exporters: ``to_json`` (plain span dicts) and ``to_chrome_trace`` (Chrome
trace-event format — load the file in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed region.  Mutable while open; frozen in practice after exit."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "lane",
        "attrs",
        "wall_start_s",
        "wall_end_s",
        "virt_start_ms",
        "virt_end_ms",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        lane: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.lane = lane
        self.attrs = attrs
        self.wall_start_s: float = 0.0
        self.wall_end_s: Optional[float] = None
        self.virt_start_ms: Optional[float] = None
        self.virt_end_ms: Optional[float] = None

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute while the span is open."""
        self.attrs[key] = value

    @property
    def wall_ms(self) -> Optional[float]:
        if self.wall_end_s is None:
            return None
        return (self.wall_end_s - self.wall_start_s) * 1000.0

    @property
    def virt_ms(self) -> Optional[float]:
        if self.virt_start_ms is None or self.virt_end_ms is None:
            return None
        return self.virt_end_ms - self.virt_start_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "lane": self.lane,
            "wall_start_s": self.wall_start_s,
            "wall_ms": self.wall_ms,
            "virt_start_ms": self.virt_start_ms,
            "virt_ms": self.virt_ms,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, wall_ms={self.wall_ms}, virt_ms={self.virt_ms})"


_MAIN_LANE = "main"


class Tracer:
    """Collects spans; bounded by ``max_spans``.

    Not thread-safe: one tracer serves one execution on one thread.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: List[Span] = []
        self._next_id = 1
        #: The open spans, innermost last.
        self._stack: List[Span] = []
        self._epoch = time.perf_counter()

    @contextmanager
    def span(
        self,
        name: str,
        clock: Optional[Any] = None,
        lane: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a timed region under the innermost open span.  ``clock`` is
        a ``SimClock`` to snapshot (never charged); ``lane`` names the
        export lane (inherited from the parent when omitted)."""
        stack = self._stack
        parent_span = stack[-1] if stack else None
        if lane is None and parent_span is not None:
            lane = parent_span.lane
        if len(self._spans) < self.max_spans:
            span = Span(name, self._next_id, getattr(parent_span, "span_id", None), lane, attrs)
            self._next_id += 1
            self._spans.append(span)
        else:
            self.dropped += 1
            span = Span(name, -1, None, lane, attrs)
        span.wall_start_s = time.perf_counter() - self._epoch
        if clock is not None:
            span.virt_start_ms = clock.snapshot()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.wall_end_s = time.perf_counter() - self._epoch
            if clock is not None:
                span.virt_end_ms = clock.snapshot()

    # -- queries ----------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def total_virt_ms(self, name: Optional[str] = None) -> float:
        """Sum of virtual ms across (optionally name-filtered) spans."""
        return sum(s.virt_ms or 0.0 for s in self.spans(name))

    # -- exporters --------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [s.as_dict() for s in self.spans()]

    def to_json(self, path: Optional[str] = None) -> str:
        payload = json.dumps({"spans": self.to_dicts(), "dropped": self.dropped}, indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return payload

    def lanes(self) -> List[str]:
        """Lane names in first-appearance order (``main`` for lane-less spans)."""
        ordered: List[str] = []
        for span in self.spans():
            lane = span.lane or _MAIN_LANE
            if lane not in ordered:
                ordered.append(lane)
        return ordered

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON: ``X`` complete events on one ``tid`` per
        lane, plus ``M`` thread-name metadata so Perfetto labels the lanes."""
        lanes = self.lanes()
        tids = {lane: tid for tid, lane in enumerate(lanes)}
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro-engine"},
            }
        ]
        for lane in lanes:
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tids[lane],
                    "args": {"name": lane},
                }
            )
        for span in self.spans():
            if span.wall_end_s is None:
                continue
            args = dict(span.attrs)
            if span.virt_ms is not None:
                args["virt_ms"] = round(span.virt_ms, 3)
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "pid": 1,
                    "tid": tids[span.lane or _MAIN_LANE],
                    "ts": round(span.wall_start_s * 1e6, 3),
                    "dur": round((span.wall_end_s - span.wall_start_s) * 1e6, 3),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)
        return path


class _NullScope:
    """The one reusable, re-entrant context manager ``NullTracer.span`` returns."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc: Any) -> bool:
        return False


class NullTracer:
    """API-compatible no-op tracer (fast path when tracing is off).

    ``span()`` returns the same scope every time: no generator, no span
    object, no timestamps.  The null span's attributes are read-only, so a
    caller that tries to write state into it fails loudly.
    """

    max_spans = 0
    dropped = 0

    def __init__(self) -> None:
        self._scope = _NullScope(Span("null", -1, None, None, MappingProxyType({})))

    def span(self, name: str, clock=None, lane=None, **attrs) -> _NullScope:
        return self._scope

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def total_virt_ms(self, name: Optional[str] = None) -> float:
        return 0.0

    def lanes(self) -> List[str]:
        return []

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def to_json(self, path: Optional[str] = None) -> str:
        payload = json.dumps({"spans": [], "dropped": 0})
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return payload

    def to_chrome_trace(self) -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
        return path
