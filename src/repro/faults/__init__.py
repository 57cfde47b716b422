"""Deterministic fault injection and fault-tolerant execution.

The fault layer has three parts, all behind
``PlannerConfig(faults=FaultConfig(...))``.  Absent by default: every scan
then shares the inert :data:`~repro.faults.resilience.NO_FAULTS`, which
runs each model once and injects nothing, so results are byte-identical.

* :mod:`repro.faults.injection` — a seeded, invocation-order-independent
  :class:`FaultInjector` that decides, per (feed, model, frame, attempt),
  whether to inject a transient model failure, a permanent model outage, a
  latency spike, a corrupted/dropped frame, a mid-scan feed death, or a
  one-shot scan crash.
* :mod:`repro.faults.resilience` — the :class:`FaultManager` every model
  invocation runs through: bounded retries with exponential backoff +
  deterministic jitter charged to the ``SimClock``, per-model timeout
  budgets, and per-model :class:`CircuitBreaker`\\ s.
* :mod:`repro.faults.checkpoint` — periodic :class:`ScanCheckpointer`
  snapshots of scheduler/stream/tracker/gate state so an aborted scan
  resumes from the last checkpoint instead of rescanning from frame 0.

See ``docs/robustness.md`` for the fault model and guarantees.
"""

from repro.faults.checkpoint import ScanCheckpoint, ScanCheckpointer
from repro.faults.injection import FaultInjector
from repro.faults.resilience import NO_FAULTS, CircuitBreaker, FaultManager, InertFaults

__all__ = [
    "CircuitBreaker",
    "FaultInjector",
    "FaultManager",
    "InertFaults",
    "NO_FAULTS",
    "ScanCheckpoint",
    "ScanCheckpointer",
]
