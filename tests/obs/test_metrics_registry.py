"""Unit tests for the labeled metrics registry and the ScanStats dict view."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend.scheduler import ScanStats
from repro.obs.metrics import MetricsRegistry, format_key


def test_counters_with_labels():
    reg = MetricsRegistry()
    reg.inc("detector_invocations", model="yolox")
    reg.inc("detector_invocations", model="yolox")
    reg.inc("detector_invocations", model="reid_feature", value=3)
    assert reg.counter("detector_invocations", model="yolox") == 2
    assert reg.counter("detector_invocations", model="reid_feature") == 3
    assert reg.counter("detector_invocations", model="nope") == 0


def test_gauges():
    reg = MetricsRegistry()
    assert reg.gauge("stride") is None
    assert reg.gauge("stride", default=1) == 1
    reg.set_gauge("stride", 4)
    assert reg.gauge("stride") == 4


def test_histograms():
    reg = MetricsRegistry()
    for v in (1.0, 3.0, 2.0):
        reg.observe("gate_eval_ms", v, model="no_red_on_road")
    h = reg.histogram("gate_eval_ms", model="no_red_on_road")
    assert h.count == 3
    assert h.total == 6.0
    assert h.min == 1.0 and h.max == 3.0
    assert h.mean == 2.0


def test_snapshot_is_sorted_and_formatted():
    reg = MetricsRegistry()
    reg.inc("b_counter", tag="z")
    reg.inc("a_counter")
    reg.set_gauge("g", 1)
    reg.observe("h", 2.0)
    snap = reg.snapshot()
    assert list(snap) == ["counters", "gauges", "histograms"]
    assert list(snap["counters"]) == ["a_counter", "b_counter{tag=z}"]
    assert snap["histograms"]["h"]["count"] == 1


def test_format_key_orders_labels():
    assert format_key(("m", (("a", "1"), ("b", "2")))) == "m{a=1,b=2}"
    assert format_key(("m", ())) == "m"


def test_counter_aggregation_is_thread_order_independent():
    reg = MetricsRegistry()
    def bump(_):
        for _ in range(100):
            reg.inc("hits", worker="any")
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(bump, range(8)))
    assert reg.counter("hits", worker="any") == 800


# -- ScanStats dict view ---------------------------------------------------------


def test_scan_stats_as_dict_compatibility_view():
    stats = ScanStats(frames_scanned=3, leaf_frames_gated=2)
    d = stats.as_dict()
    assert d["frames_scanned"] == 3
    assert d["leaf_frames_gated"] == 2
    assert d["early_exit_frame"] is None
    assert ScanStats.from_dict(d) == stats
    assert ScanStats(**d) == stats
