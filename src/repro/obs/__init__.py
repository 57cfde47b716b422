"""Engine-wide observability: span tracing, metrics, decisions, explain.

Enable via ``PlannerConfig(enable_tracing=True)``.  When the knob is off
the engine runs with the shared disabled bundle (``repro.obs.core.DISABLED``)
whose sinks discard everything, and results are byte-identical.  See
docs/observability.md.
"""

from repro.obs.core import Obs
from repro.obs.decisions import Decision, DecisionLog
from repro.obs.explain import CandidateReport, ExplainData, render_explain
from repro.obs.metrics import HistogramStat, MetricsRegistry, format_key
from repro.obs.trace import NullTracer, Span, Tracer

__all__ = [
    "Obs",
    "Decision",
    "DecisionLog",
    "CandidateReport",
    "ExplainData",
    "render_explain",
    "HistogramStat",
    "MetricsRegistry",
    "format_key",
    "NullTracer",
    "Span",
    "Tracer",
]
