"""Engine-wide observability: span tracing, decisions, explain.

Enable via ``PlannerConfig(obs=ObsConfig())``.  When ``obs`` is None the
engine runs with the shared disabled bundle (``repro.obs.core.DISABLED``)
whose sinks discard everything, and results are byte-identical.  See
docs/observability.md.
"""

from repro.obs.core import Obs
from repro.obs.decisions import Decision, DecisionLog
from repro.obs.explain import CandidateReport, ExplainData, render_explain
from repro.obs.trace import NullTracer, Span, Tracer

__all__ = [
    "Obs",
    "Decision",
    "DecisionLog",
    "CandidateReport",
    "ExplainData",
    "render_explain",
    "NullTracer",
    "Span",
    "Tracer",
]
