"""The ``Obs`` bundle: one tracer + decision log.

A single ``Obs`` instance is shared across every layer of one execution
(session → executor → scheduler → context → re-id), so a multi-feed batch
produces one coherent trace with parallel feed lanes and one decision log.

Inside the engine an ``Obs`` is always present.  With tracing off
(``PlannerConfig.obs`` is None), ``Obs.from_config`` returns
:data:`DISABLED`, a shared bundle whose sinks discard everything
(:class:`~repro.obs.trace.NullTracer`,
:class:`~repro.obs.decisions.NullDecisionLog`), so every hook is one plain
no-op call and no obs object is built per execution.  ``enabled`` tells
the few call sites whose record arguments are real work whether to build
them.  Spans never charge the ``SimClock``, so results are byte-identical
either way.  The public handles (``QueryResult.obs``, ``last_obs``) stay
None when tracing is off.

The bundle holds no counters: each count lives in exactly one record,
``ScanStats``/``LiveStats``, the clock's ``calls``, the index view's
``counters``, or the decision log (see docs/observability.md).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import ObsConfig
from repro.obs.decisions import DecisionLog, NullDecisionLog
from repro.obs.trace import NullTracer, Tracer


class Obs:
    """Bundle of observability sinks for one execution (always recording)."""

    def __init__(self, config: ObsConfig) -> None:
        self.enabled = True
        self.tracer = Tracer(max_spans=config.max_spans)
        self.decisions = DecisionLog(max_records=config.max_decision_records)

    @classmethod
    def from_config(cls, config: Optional[ObsConfig]) -> "Obs":
        """A fresh ``Obs`` for a tracing config, :data:`DISABLED` for None."""
        return DISABLED if config is None else cls(config)


class _DisabledObs(Obs):
    """The bundle behind :data:`DISABLED`: sinks that discard everything."""

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = NullTracer()
        self.decisions = NullDecisionLog()


#: The shared do-nothing bundle used whenever tracing is off.  It holds no
#: state, so every execution and every thread can use the same instance.
DISABLED: Obs = _DisabledObs()
