#!/usr/bin/env python3
"""Engine benchmark: five workloads, wall and virtual end-to-end metrics,
and a per-layer ledger timed from outside the engine.

Run from the repository root::

    python3 benchmarks/engine/run.py                      # all workloads
    python3 benchmarks/engine/run.py --workload batch_mixed --seed 3
    python3 benchmarks/engine/run.py --trace              # per-layer ledger
    python3 benchmarks/engine/run.py --compare benchmarks/engine/baseline.json

Without ``--workload`` every workload runs in its own fresh subprocess and
the results land in ``BENCH_engine.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` named in ``BENCHMARK.json`` (end-to-end ones untraced,
per-layer ones with ``--trace``).  A traced run also writes
``TRACE_engine_<workload>.json`` in Chrome trace format.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULT_TAG = "ENGINE_RESULT "
#: Settings a baseline run must share with the current run to be compared.
SETTINGS = ("seed", "seconds", "quick")


def _bootstrap() -> None:
    """Pin numeric libraries to one thread and put the engine on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"engine benchmark: no engine sources at {ROOT / 'src' / 'repro'}; "
            "run it from a full checkout of the repository"
        )
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _load(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> Dict[str, Any]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def end_to_end_defs(spec: Dict[str, Any], extra: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every end-to-end metric with its compare bound: BENCHMARK.json's,
    with the same-seed bound of deterministic metrics, then the metrics
    ``metrics.json`` scopes to some workloads."""
    defs = []
    for d in spec["end_to_end"]:
        d = dict(d, kind="relative")
        if d["name"] in extra["deterministic"]:
            d["bound"] = extra["deterministic"][d["name"]]["bound"]
        defs.append(d)
    return defs + extra["scoped_end_to_end"]


def _print_result(result: Dict[str, Any], spec: Dict[str, Any], extra: Dict[str, Any]) -> None:
    name = result["workload"]
    units = {m["name"]: m["unit"] for m in end_to_end_defs(spec, extra) + spec["per_layer"]}
    sections = [("end_to_end", result["end_to_end"]), ("info", result["info"])]
    if "per_layer" in result:
        sections.append(("per_layer", result["per_layer"]))
    for section, metrics in sections:
        for metric, value in metrics.items():
            print(f"{name} {section} {metric} = {value:.6g} {units.get(metric, '')}".rstrip())
    status = "ok" if result["correct"] else "FAILED"
    print(f"{name} checks: {status} ({result['failed']} of {result['attempted']} reps failed)")


def _result_line(results: List[Dict[str, Any]], spec: Dict[str, Any], trace: bool) -> str:
    """The last stdout line: counts plus the BENCHMARK.json metrics."""
    defs = spec["per_layer"] if trace else spec["end_to_end"]
    section = "per_layer" if trace else "end_to_end"
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for d in defs:
            metrics[prefix + d["name"]] = {"value": result[section][d["name"]], "unit": d["unit"]}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    )


def _run_one(args, spec) -> Dict[str, Any]:
    from harness import measure

    trace_path = str(ROOT / f"TRACE_engine_{args.workload}.json") if args.trace else None
    result = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        work_dir=str(ROOT / ".bench_work"),
        trace_path=trace_path,
    )
    section = "per_layer" if args.trace else "end_to_end"
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [d["name"] for d in wanted if d["name"] not in result[section]]
    if missing:
        raise SystemExit(f"engine benchmark: {args.workload} did not measure {missing}")
    return result


def _run_all(args, spec) -> List[Dict[str, Any]]:
    results = []
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        tagged = [line for line in lines if line.startswith(RESULT_TAG)]
        if proc.returncode != 0 or not tagged:
            raise SystemExit(f"engine benchmark: workload {workload} exited with {proc.returncode}")
        for line in lines[:-1]:
            if not line.startswith(RESULT_TAG):
                print(line, flush=True)
        results.append(json.loads(tagged[-1][len(RESULT_TAG):]))
    return results


# ----------------------------------------------------------------- compare --


def _runs(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """A baseline holds several runs; a plain BENCH_engine.json is one run."""
    return doc.get("runs", [doc])


def check_comparable(baseline: Dict[str, Any], settings: Dict[str, Any]) -> None:
    """Refuse a baseline measured with another seed, run length or --quick."""
    for run in _runs(baseline):
        theirs = {key: run.get(key) for key in SETTINGS}
        if theirs != settings:
            raise SystemExit(
                f"engine benchmark: the baseline was measured with {theirs}, this run with "
                f"{settings}; rerun with the baseline's --seed and --quick"
            )


def worse_by(d: Dict[str, Any], base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, in the unit of d's bound:
    a share of ``base`` (relative), a difference (absolute) or a number of
    rungs on d's ladder (steps).  Negative when ``value`` is better."""
    sign = 1.0 if d["better"] == "lower" else -1.0
    if d["kind"] == "steps":
        steps = d["steps"]
        return sign * (bisect.bisect_right(steps, value) - bisect.bisect_right(steps, base))
    delta = sign * (value - base)
    if d["kind"] == "absolute":
        return delta
    if base:
        return delta / abs(base)
    return math.inf if delta > 0 else 0.0


def compare(
    baseline: Dict[str, Any],
    results: List[Dict[str, Any]],
    spec: Dict[str, Any],
    extra: Dict[str, Any],
) -> List[str]:
    """One line per (workload, metric): baseline, current, delta, status.

    Untraced results are compared on every end-to-end metric in scope for
    the workload against the baseline's untraced runs, traced results on
    the per-layer metrics against its traced runs.  The baseline value is
    the median of those runs.  An end-to-end metric is ``unresolved`` when
    the baseline runs disagree by more than its bound, ``regressed`` when
    the current value is worse than the baseline by more than the bound,
    else ``ok``; per-layer metrics have no bound.  The caller has checked
    the baseline with :func:`check_comparable`.
    """
    lines = [f"{'workload':18} {'metric':40} {'baseline':>14} {'current':>14} {'delta':>9}  status"]
    for result in results:
        name = result["workload"]
        section = "per_layer" if result["trace"] else "end_to_end"
        defs = spec["per_layer"] if result["trace"] else end_to_end_defs(spec, extra)
        runs = [
            run["workloads"][name]
            for run in _runs(baseline)
            if run.get("trace", 0) == result["trace"] and name in run.get("workloads", {})
        ]
        if not runs:
            lines.append(f"{name:18} {'(no baseline run)':40}")
            continue
        for d in defs:
            if name not in d.get("workloads", (name,)):
                continue
            past = [run[section].get(d["name"]) for run in runs]
            if None in past:
                lines.append(f"{name:18} {d['name']:40} {'-':>14} {'-':>14} {'-':>9}  not in baseline")
                continue
            base = statistics.median(past)
            current = result[section][d["name"]]
            delta = f"{(current - base) / abs(base):+.2%}" if base else f"{current - base:+.4g}"
            status = "-"
            if "bound" in d:
                spread = max(worse_by(d, base, v) for v in past) - min(worse_by(d, base, v) for v in past)
                if spread > d["bound"]:
                    status = "unresolved"
                elif worse_by(d, base, current) > d["bound"]:
                    status = "regressed"
                else:
                    status = "ok"
            lines.append(f"{name:18} {d['name']:40} {base:>14.6g} {current:>14.6g} {delta:>9}  {status}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="input-generator seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload; accepted only as BENCHMARK.json's run_seconds",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced reps",
    )
    parser.add_argument("--quick", action="store_true", help="small inputs, one rep (smoke test)")
    parser.add_argument("--compare", metavar="PATH", help="compare against a baseline file")
    args = parser.parse_args(argv)

    _bootstrap()
    spec = _load(ROOT / "BENCHMARK.json")
    extra = _load(HERE / "metrics.json")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"the run length is fixed: --seconds must be {spec['run_seconds']} (BENCHMARK.json)")
    args.seconds = 0.0 if args.quick else float(spec["run_seconds"])
    if args.workload is not None and args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    settings = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick}
    baseline = None
    if args.compare:
        baseline = _load(Path(args.compare))
        check_comparable(baseline, settings)

    if args.workload is not None:
        results = [_run_one(args, spec)]
        _print_result(results[0], spec, extra)
        print(RESULT_TAG + json.dumps(results[0]), flush=True)
    else:
        results = _run_all(args, spec)
    with open(ROOT / "BENCH_engine.json", "w", encoding="utf-8") as fh:
        json.dump(
            dict(settings, machine=machine(), trace=args.trace,
                 workloads={r["workload"]: r for r in results}),
            fh, indent=1, sort_keys=True,
        )
    if baseline is not None:
        for line in compare(baseline, results, spec, extra):
            print(line)
    print(_result_line(results, spec, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
