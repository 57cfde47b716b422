"""Labeled counter/gauge/histogram registry.

Tracing-mode instrumentation records labeled counters
(``detector_invocations{model=...}``) and bounded histogram summaries
(``gate_eval_ms{model=...}``, ``stride_level``) here.  ``ScanStats`` is
not backed by the registry: it is a plain per-scan dataclass the scheduler
increments directly.  With tracing off the engine holds a
:class:`NullMetrics`, which discards every sample.

Histograms store only ``(count, total, min, max)`` aggregates, so memory
stays O(label cardinality) regardless of how many samples arrive, and
snapshots are deterministic under concurrent recording (sums and extrema
are order-independent).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(key: LabelKey) -> str:
    """Render ``(name, labels)`` as ``name{k=v,...}`` (Prometheus-style)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class HistogramStat:
    """Bounded summary of an observed value series."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe registry of labeled counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[LabelKey, float] = {}
        self._gauges: Dict[LabelKey, object] = {}
        self._histograms: Dict[LabelKey, HistogramStat] = {}

    # -- counters ---------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def counter(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0)

    # -- gauges -----------------------------------------------------------

    def set_gauge(self, name: str, value: object, **labels: object) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def gauge(self, name: str, default: object = None, **labels: object) -> object:
        with self._lock:
            return self._gauges.get(_key(name, labels), default)

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = _key(name, labels)
        with self._lock:
            stat = self._histograms.get(key)
            if stat is None:
                stat = self._histograms[key] = HistogramStat()
            stat.observe(value)

    def histogram(self, name: str, **labels: object) -> Optional[HistogramStat]:
        with self._lock:
            return self._histograms.get(_key(name, labels))

    # -- snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics keyed ``name{label=value,...}``, sorted for stability."""
        with self._lock:
            return {
                "counters": {
                    format_key(k): v for k, v in sorted(self._counters.items())
                },
                "gauges": {
                    format_key(k): v for k, v in sorted(self._gauges.items())
                },
                "histograms": {
                    format_key(k): v.as_dict()
                    for k, v in sorted(self._histograms.items())
                },
            }


class NullMetrics:
    """API-compatible registry that discards every sample (tracing off)."""

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        pass

    def counter(self, name: str, **labels: object) -> float:
        return 0

    def set_gauge(self, name: str, value: object, **labels: object) -> None:
        pass

    def gauge(self, name: str, default: object = None, **labels: object) -> object:
        return default

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass

    def histogram(self, name: str, **labels: object) -> Optional[HistogramStat]:
        return None

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}
