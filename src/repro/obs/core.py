"""The ``Obs`` bundle: one tracer + decision log.

A single ``Obs`` instance is shared across every layer of one execution
(session → executor → scheduler → context → re-id), so a multi-feed batch
produces one coherent trace with parallel feed lanes and one decision log.

Inside the engine an ``Obs`` is always present.  With tracing off,
``Obs.from_config`` returns :data:`DISABLED`, a shared bundle whose sinks
discard everything (:class:`~repro.obs.trace.NullTracer`,
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
    """Bundle of observability sinks for one execution."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig(enabled=True)
        self.enabled = self.config.enabled
        if self.enabled:
            self.tracer = Tracer(max_spans=self.config.max_spans)
            self.decisions = DecisionLog(max_records=self.config.max_decision_records)
        else:
            self.tracer = NullTracer()
            self.decisions = NullDecisionLog()

    @classmethod
    def from_config(cls, config: Optional[ObsConfig]) -> "Obs":
        """A fresh ``Obs`` when the config enables tracing, else :data:`DISABLED`."""
        if config is None or not config.enabled:
            return DISABLED
        return cls(config)


#: The shared do-nothing bundle used whenever tracing is off.  It holds no
#: state, so every execution and every thread can use the same instance.
DISABLED = Obs(ObsConfig(enabled=False))
