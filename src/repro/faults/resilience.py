"""Resilient model invocation: retries, backoff, timeouts, circuit breakers.

Every ``model.detect(...)`` / property-model / frame-filter invocation runs
through the execution context's fault layer.  With fault tolerance enabled
that is a :class:`FaultManager`, built per feed (each feed's scan builds its
own), so breaker state and retry counters never carry over from one feed
to the next — the chaos suite relies on that for feed-order determinism.
With it disabled it is :data:`NO_FAULTS`, which just calls.

Failure semantics:

* A *transient* failure (injected, or a timeout) is retried up to
  ``max_retries`` times with exponential backoff + deterministic jitter,
  charged to the ``SimClock`` under ``fault-backoff``.
* Consecutive failures past ``breaker_threshold`` open the model's
  :class:`CircuitBreaker`; while open, invocations fail fast (no retries)
  until ``breaker_cooldown_ms`` virtual ms pass, then one half-open probe
  decides whether to close it again.
* Exhausted retries / an open circuit surface as
  :class:`~repro.common.errors.TransientModelError` to the caller; the scan
  scheduler degrades the affected frame (Kalman interpolation or skip)
  instead of aborting.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TypeVar

from repro.common.clock import SimClock
from repro.common.config import FaultConfig
from repro.common.errors import ExecutionError, FeedFailedError, ModelTimeoutError, TransientModelError
from repro.faults.injection import FaultInjector
from repro.obs.core import DISABLED, Obs

T = TypeVar("T")


class CircuitBreaker:
    """Per-model circuit breaker over virtual time.

    ``closed`` → (``threshold`` consecutive failures) → ``open`` →
    (``cooldown_ms`` virtual ms) → ``half-open`` probe → ``closed`` on
    success, back to ``open`` on failure.
    """

    def __init__(self, threshold: int, cooldown_ms: float) -> None:
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self.consecutive_failures = 0
        self.opened_at_ms: Optional[float] = None

    @property
    def state(self) -> str:
        return "closed" if self.opened_at_ms is None else "open"

    def allow(self, now_ms: float) -> bool:
        """May an invocation proceed at virtual time ``now_ms``?

        An open breaker admits one half-open probe once the cooldown has
        elapsed (the probe's outcome re-opens or closes the circuit).
        """
        if self.opened_at_ms is None:
            return True
        return now_ms - self.opened_at_ms >= self.cooldown_ms

    def record_success(self) -> bool:
        """Record a successful invocation; True when this closed an open circuit."""
        reopened = self.opened_at_ms is not None
        self.opened_at_ms = None
        self.consecutive_failures = 0
        return reopened

    def record_failure(self, now_ms: float) -> bool:
        """Record a failed attempt; True when this transition opened the circuit."""
        self.consecutive_failures += 1
        if self.opened_at_ms is not None:
            # A failed half-open probe restarts the cooldown.
            self.opened_at_ms = now_ms
            return False
        if self.consecutive_failures >= self.threshold:
            self.opened_at_ms = now_ms
            return True
        return False


class FaultManager:
    """One feed's fault-injection + resilience state for a single scan."""

    def __init__(
        self,
        config: FaultConfig,
        clock: SimClock,
        feed: str = "",
        obs: Obs = DISABLED,
    ) -> None:
        from repro.backend.scheduler import ScanStats  # repro.backend imports this module

        self.config = config
        self.clock = clock
        self.feed = feed
        self.obs = obs
        self.injector = FaultInjector(config, feed=feed)
        #: The scan's counters.  A standalone manager keeps its own; the
        #: scan that uses it binds the scheduler's (:meth:`bind_stats`).
        self.stats = ScanStats()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def bind_stats(self, stats: "ScanStats") -> None:
        """Count into the scan's ``ScanStats`` (rebound after a resume)."""
        self.stats = stats

    # ------------------------------------------------------------ breakers --
    def breaker(self, model_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(model_name)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker_threshold, self.config.breaker_cooldown_ms)
            self._breakers[model_name] = breaker
        return breaker

    # ---------------------------------------------------------- invocation --
    def invoke(self, model_name: str, frame_id: int, fn: Callable[[], T]) -> T:
        """Run ``fn`` (the real model invocation) with injection + resilience.

        Raises :class:`TransientModelError` (or :class:`ModelTimeoutError`)
        once the circuit is open or retries are exhausted; the caller
        degrades the frame.
        """
        breaker = self.breaker(model_name)
        if not breaker.allow(self.clock.elapsed_ms):
            self.stats.model_failures += 1
            raise TransientModelError(
                f"circuit open for model {model_name!r} at frame {frame_id} "
                f"(cooling down {self.config.breaker_cooldown_ms:.0f}ms)"
            )
        attempts = self.config.max_retries + 1
        last_error: Optional[TransientModelError] = None
        for attempt in range(attempts):
            try:
                value = self._attempt(model_name, frame_id, attempt, fn)
            except TransientModelError as exc:
                last_error = exc
                opened = breaker.record_failure(self.clock.elapsed_ms)
                if opened:
                    self.stats.circuit_opens += 1
                    self.obs.decisions.record(
                        "circuit-opened",
                        "failure-threshold",
                        frame_id=frame_id,
                        subject=model_name,
                        failures=breaker.consecutive_failures,
                    )
                if attempt + 1 >= attempts or not breaker.allow(self.clock.elapsed_ms):
                    break
                self._backoff(model_name, frame_id, attempt)
                self.stats.model_retries += 1
                self.obs.decisions.record(
                    "model-retry",
                    "timeout" if isinstance(exc, ModelTimeoutError) else "transient-fault",
                    frame_id=frame_id,
                    subject=model_name,
                    attempt=attempt + 1,
                )
            else:
                if breaker.record_success():
                    self.obs.decisions.record(
                        "circuit-closed", "probe-succeeded", frame_id=frame_id, subject=model_name
                    )
                return value
        self.stats.model_failures += 1
        assert last_error is not None
        raise last_error

    def _attempt(self, model_name: str, frame_id: int, attempt: int, fn: Callable[[], T]) -> T:
        cfg = self.config
        injector = self.injector
        if injector.model_dead(model_name, frame_id):
            self.stats.faults_injected += 1
            raise TransientModelError(
                f"model {model_name!r} is down at frame {frame_id} (injected permanent fault)"
            )
        if injector.transient_failure(model_name, frame_id, attempt):
            self.stats.faults_injected += 1
            raise TransientModelError(
                f"model {model_name!r} failed transiently at frame {frame_id} (attempt {attempt})"
            )
        start = self.clock.snapshot()
        value = fn()
        spent = self.clock.since(start)
        spiked = injector.latency_spike(model_name, frame_id, attempt)
        if spiked:
            self.stats.faults_injected += 1
        effective = spent * (cfg.latency_spike_factor if spiked else 1.0)
        if cfg.timeout_ms is not None and effective > cfg.timeout_ms:
            # The attempt is abandoned at the budget: charge at most the
            # budget, never the full (spiked) cost.
            if spent < cfg.timeout_ms:
                self.clock.charge(f"fault-timeout:{model_name}", cfg.timeout_ms - spent)
            self.stats.faults_injected += 1
            raise ModelTimeoutError(
                f"model {model_name!r} exceeded its {cfg.timeout_ms:.1f}ms budget "
                f"at frame {frame_id} (attempt {attempt})"
            )
        if spiked and effective > spent:
            self.clock.charge(f"fault-latency:{model_name}", effective - spent)
        return value

    def _backoff(self, model_name: str, frame_id: int, attempt: int) -> None:
        cfg = self.config
        jitter = cfg.backoff_jitter_ms * self.injector.backoff_jitter(model_name, frame_id, attempt)
        delay = cfg.backoff_base_ms * (cfg.backoff_factor**attempt) + jitter
        if delay > 0:
            self.clock.charge("fault-backoff", delay)

    # --------------------------------------------------------- scan faults --
    def scan_frame(self, frame_id: int) -> Optional[str]:
        """The frame's scan-level fault: ``"dropped"`` / ``"corrupted"`` / None.

        Raises first when the feed is dead (:class:`FeedFailedError`, handled
        by per-feed isolation) or crashes here (:class:`ExecutionError`,
        handled by checkpoint/resume).  The frame fault is the same draw as
        the reader hook's.
        """
        died_at = self.injector.feed_death_frame(frame_id)
        if died_at is not None:
            self.stats.faults_injected += 1
            raise FeedFailedError(
                f"feed {self.feed!r} died at frame {died_at} (injected feed death)",
                feed=self.feed,
                frame_id=died_at,
            )
        if self.injector.crash_now(frame_id):
            self.stats.faults_injected += 1
            raise ExecutionError(
                f"injected scan crash on feed {self.feed!r} at frame {frame_id}"
            )
        return self.injector.frame_fault(frame_id)

    def reader_hook(self, frame):
        """``videosim`` per-frame hook (see :meth:`FaultInjector.reader_hook`)."""
        return self.injector.reader_hook(frame)


class InertFaults:
    """The fault layer of a scan without fault tolerance: it just calls.

    ``invoke`` runs the model once, ``scan_frame`` finds no frame fault,
    feed death or crash, and the reader hook passes frames through.  It holds no
    state, so every scan and thread shares :data:`NO_FAULTS`.
    """

    __slots__ = ()

    def invoke(self, model_name: str, frame_id: int, fn: Callable[[], T]) -> T:
        return fn()

    def bind_stats(self, stats: object) -> None:
        pass

    def scan_frame(self, frame_id: int) -> Optional[str]:
        return None

    def reader_hook(self, frame):
        return frame


#: The shared fault layer of every scan that runs without fault tolerance.
NO_FAULTS = InertFaults()
