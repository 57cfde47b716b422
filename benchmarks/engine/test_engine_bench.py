"""Guard for the engine benchmark, collected by the tier-1 suite.

* Every (class, method) the traced run wraps must still exist, so a rename
  fails here instead of silently dropping a layer from the ledger.
* ``metrics.json`` maps every per-layer metric to the end-to-end metrics
  and workloads it should move, and scopes its extra end-to-end metrics
  to real workloads.
* ``--compare`` flags regressions by each metric's kind of bound and
  refuses a baseline measured with other settings.
* A quick pass of every workload must report every metric BENCHMARK.json
  names, plus the metrics scoped to it, each finite (BENCHMARK.json's
  end-to-end ones positive), and pass its checks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
EXTRA = json.loads((HERE / "metrics.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_wrapped_targets_exist():
    import ledger

    for span, cls, attr, _mode in ledger.TARGETS:
        assert callable(vars(cls).get(attr)), f"{cls.__name__}.{attr} (span {span}) is gone"


def test_install_and_uninstall_restore_every_target():
    import ledger

    before = {(cls, attr): vars(cls)[attr] for _, cls, attr, _ in ledger.TARGETS}
    ledger.uninstall(ledger.install(ledger.Recorder()))
    assert {(cls, attr): vars(cls)[attr] for _, cls, attr, _ in ledger.TARGETS} == before


def test_metric_map_covers_every_metric():
    import run

    end_to_end = {d["name"] for d in run.end_to_end_defs(SPEC, EXTRA)}
    layer_map = EXTRA["per_layer_map"]
    assert set(layer_map) == {d["name"] for d in SPEC["per_layer"]}
    for name, entry in layer_map.items():
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["heavy_on"] + entry["no_change_on"]) <= set(WORKLOAD_NAMES), name
    for d in EXTRA["scoped_end_to_end"]:
        assert d["workloads"] and set(d["workloads"]) <= set(WORKLOAD_NAMES), d["name"]
    assert set(EXTRA["deterministic"]) <= {d["name"] for d in SPEC["end_to_end"]}


def test_compare_applies_each_kind_of_bound():
    import run

    def doc(**end_to_end):
        return {"seed": 1, "seconds": 12.0, "quick": False, "trace": 0,
                "workloads": {"live_overload": {"end_to_end": end_to_end}}}

    base = dict(frames_per_s=100.0, virtual_ms=1000.0, setup_s=1.0, peak_rss_mb=100.0,
                error_rate=0.0, alert_latency_ms_p50=1000.0, alert_latency_ms_p95=1500.0,
                frames_shed_frac=0.30, sustainable_rate_x=1.5)
    worse = dict(base, virtual_ms=1015.0, error_rate=0.1, frames_shed_frac=0.305,
                 sustainable_rate_x=1.25, alert_latency_ms_p95=1550.0)
    current = {"workload": "live_overload", "trace": 0, "end_to_end": worse}
    lines = run.compare(doc(**base), [current], SPEC, EXTRA)
    status = {line.split()[1]: line.split()[-1] for line in lines[1:]}
    assert status["virtual_ms"] == "regressed"  # +1.5% on a deterministic metric
    assert status["error_rate"] == "regressed"  # any failure
    assert status["frames_shed_frac"] == "ok"  # +0.005 of +0.01 allowed
    assert status["sustainable_rate_x"] == "ok"  # one rung down is allowed
    assert status["alert_latency_ms_p95"] == "regressed"  # +3.3% of +2% allowed
    assert status["frames_per_s"] == "ok"
    assert "identity_f1" not in status  # scoped to multicam_handoff

    with pytest.raises(SystemExit):
        run.check_comparable(doc(**base), {"seed": 2, "seconds": 12.0, "quick": False})


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_quick_pass_reports_every_metric(workload, tmp_path):
    from harness import measure

    result = measure(
        workload, seed=1, seconds=0.0, trace=True, quick=True,
        work_dir=str(tmp_path / "work"), log=lambda line: None,
    )
    assert result["correct"], result["problems"]
    for d in SPEC["end_to_end"]:
        value = result["end_to_end"][d["name"]]
        assert math.isfinite(value) and value > 0, (d["name"], value)
    for d in EXTRA["scoped_end_to_end"]:
        if workload in d["workloads"]:
            assert math.isfinite(result["end_to_end"][d["name"]]), d["name"]
        else:
            assert d["name"] not in result["end_to_end"], d["name"]
    assert result["end_to_end"]["error_rate"] == 0.0
    for d in SPEC["per_layer"]:
        assert math.isfinite(result["per_layer"][d["name"]]), d["name"]
