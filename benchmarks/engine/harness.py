"""Measurement loop of the engine benchmark.

One call to :func:`measure` runs one workload: set-up (repeated, median
reported), one untimed warm-up rep, timed reps until the time budget is
spent, then the output checks against a reference computed after timing.
Every wall time is a median over reps, which absorbs single slow reps; the
machine's slower drift between runs is what the regression bounds in
``BENCHMARK.json`` are sized for.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import WORKLOADS

#: Set-up runs at least this often, and repeats while under the budget.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 200, 1.0
#: Timed reps run until the time budget is spent, but at least this often.
MIN_REPS = 3


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _finite(metrics: Dict[str, float]) -> Dict[str, float]:
    return {k: (float(v) if math.isfinite(v) else 0.0) for k, v in metrics.items()}


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    work_dir: str = ".bench_work",
    trace_path: Optional[str] = None,
    log: Callable[[str], None] = lambda line: print(line, file=sys.stderr),
) -> Dict[str, Any]:
    """Run one workload and return its metrics, counts and check results.

    The returned dict holds ``end_to_end`` metrics (from untraced reps:
    the ones ``BENCHMARK.json`` names, then the error rate and the
    workload's own quality metrics that ``metrics.json`` scopes to it)
    and, with ``trace``, ``per_layer`` metrics from traced reps that
    alternate with untraced ones, so the difference between the two is
    the tracing overhead.  ``quick`` shrinks the inputs and runs one rep
    of each kind (a smoke test).
    """
    workload = WORKLOADS[name](quick=quick)
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, trace, quick, work_dir, trace_path, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, quick, work_dir, trace_path, log):
    setup_s: List[float] = []
    started = time.perf_counter()
    inputs = None
    while (
        len(setup_s) < (1 if quick else SETUP_MIN)
        or (not quick and time.perf_counter() - started < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX)
    ):
        gc.collect()
        inputs, wall = _timed(lambda: workload.setup(seed, work_dir))
        setup_s.append(wall)

    if not quick:
        workload.run(inputs)  # warm-up: lazy imports, model zoo, allocator

    recorder = None
    if trace:
        import ledger

        recorder = ledger.Recorder()

    # Each entry: (outcome or None, wall s, traced).
    reps: List[Tuple[Any, float, bool]] = []
    min_reps = 1 if quick else MIN_REPS
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or sum(1 for r in reps if not r[2]) < min_reps:
        for traced in ((False, True) if trace else (False,)):
            gc.collect()
            originals = None
            if traced:
                recorder.rep = 0 if not any(r[2] for r in reps) else None
                originals = ledger.install(recorder)
            try:
                outcome, wall = _timed(lambda: workload.run(inputs))
                outcome.seal()
            except Exception:
                log(f"{workload.name}: rep {len(reps)} raised:\n{traceback.format_exc()}")
                outcome, wall = None, 0.0
            finally:
                if originals is not None:
                    ledger.uninstall(originals)
            reps.append((outcome, wall, traced))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [r[0] for r in reps]
    failed_reps = {i for i, out in enumerate(outcomes) if out is None}
    try:
        problems = workload.failures(inputs, outcomes)
    except Exception:
        problems = [(i, "reference run raised:\n" + traceback.format_exc()) for i in range(len(reps))]
    for i, problem in problems:
        log(f"{workload.name}: rep {i}: {problem}")
        failed_reps.add(i)

    ok = [r for i, r in enumerate(reps) if i not in failed_reps]
    plain = [(out, wall) for out, wall, traced in ok if not traced]
    end_to_end = {
        "frames_per_s": _median([out.frames / wall for out, wall in plain]),
        "virtual_ms": _median([out.virtual_ms for out, _ in plain]),
        "setup_s": _median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": len(failed_reps) / max(len(reps), 1),
    }
    for key in workload.end_to_end_counters:
        end_to_end[key] = _median([out.counters[key] for out, _ in plain])
    end_to_end.update(workload.run_metrics(inputs))
    info = {
        "reps": len(plain),
        "setups": len(setup_s),
        "frames_per_rep": _median([out.frames for out, _ in plain]),
    }
    for key in sorted({k for out, _ in plain for k in out.counters} - set(end_to_end)):
        info[key] = _median([out.counters[key] for out, _ in plain if key in out.counters])

    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": not failed_reps,
        "attempted": len(reps),
        "failed": len(failed_reps),
        "end_to_end": _finite(end_to_end),
        "info": info,
        "problems": [f"rep {i}: {p}" for i, p in problems],
    }
    if trace:
        traced = [out for out, _, is_traced in ok if is_traced]
        traced_us = 1e6 * _median([wall / out.frames for out, wall, is_traced in ok if is_traced])
        plain_us = 1e6 * _median([wall / out.frames for out, wall in plain])
        per_layer = ledger.layer_metrics(recorder, traced, plain_us)
        per_layer["trace_overhead_pct"] = 100.0 * (traced_us / max(plain_us, 1e-12) - 1.0)
        result["per_layer"] = _finite(per_layer)
        if trace_path is not None:
            recorder.write_chrome_trace(trace_path)
    return result
