"""Unit tests for the hierarchical span tracer and its exporters."""

from __future__ import annotations

import json

import pytest

from repro.common.clock import SimClock
from repro.obs.trace import NullTracer, Tracer


def test_span_nesting_and_parenting():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert [s.name for s in tracer.spans()] == ["outer", "inner"]


def test_span_attrs_and_set():
    tracer = Tracer()
    with tracer.span("scan", frames=12) as span:
        span.set("matched", 3)
    d = span.as_dict()
    assert d["attrs"] == {"frames": 12, "matched": 3}
    assert d["name"] == "scan"


def test_virtual_ms_comes_from_the_clock():
    tracer = Tracer()
    clock = SimClock()
    with tracer.span("work", clock=clock):
        clock.charge("detector", 42.0)
    (span,) = tracer.spans("work")
    assert span.virt_ms == 42.0
    assert tracer.total_virt_ms("work") == 42.0
    # spans only *snapshot* the clock — they never charge it
    assert clock.elapsed_ms == 42.0


def test_span_without_clock_has_no_virtual_time():
    tracer = Tracer()
    with tracer.span("wall-only"):
        pass
    (span,) = tracer.spans()
    assert span.virt_ms is None
    assert span.wall_ms >= 0.0


def test_lane_inheritance():
    tracer = Tracer()
    with tracer.span("feed", lane="cam-1"):
        with tracer.span("child"):
            pass
    feed, child = tracer.spans()
    assert feed.lane == "cam-1"
    assert child.lane == "cam-1"
    assert tracer.lanes() == ["cam-1"]


def test_sequential_lanes_nest_under_the_open_span():
    tracer = Tracer()
    with tracer.span("root") as root:
        for lane in ("cam-1", "cam-2"):
            with tracer.span("feed", lane=lane) as feed:
                with tracer.span("scan") as scan:
                    pass
            assert feed.parent_id == root.span_id
            assert (scan.parent_id, scan.lane) == (feed.span_id, lane)
    with tracer.span("after") as after:
        pass
    assert after.parent_id is None
    assert [s.lane for s in tracer.spans("feed")] == ["cam-1", "cam-2"]


def test_max_spans_cap_counts_drops():
    tracer = Tracer(max_spans=2)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.spans()) == 2
    assert tracer.dropped == 3


def test_null_tracer_is_inert():
    tracer = NullTracer()
    with tracer.span("anything", clock=SimClock(), attr=1) as span:
        pass
    assert span.span_id == -1
    # One shared scope and span for every call, and nothing can be written
    # into them (the disabled bundle is shared across executions).
    with tracer.span("other") as again:
        pass
    assert again is span
    with pytest.raises(TypeError):
        span.set("key", "value")


def test_json_export_roundtrips(tmp_path):
    tracer = Tracer()
    clock = SimClock()
    with tracer.span("scan", clock=clock, video="jackson"):
        clock.charge("yolox", 7.0)
    path = tmp_path / "trace.json"
    tracer.to_json(path)
    data = json.loads(path.read_text())
    assert data["dropped"] == 0
    (span,) = data["spans"]
    assert span["name"] == "scan"
    assert span["virt_ms"] == 7.0
    assert span["attrs"]["video"] == "jackson"


def test_chrome_trace_structure(tmp_path):
    tracer = Tracer()
    with tracer.span("batch"):
        with tracer.span("feed-a", lane="a"):
            pass
        with tracer.span("feed-b", lane="b"):
            pass
    doc = tracer.to_chrome_trace()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    xs = [e for e in events if e["ph"] == "X"]
    lane_names = [e["args"]["name"] for e in metas if e["name"] == "thread_name"]
    assert lane_names == ["main", "a", "b"]
    assert len(xs) == 3
    # each lane gets its own tid; durations are in microseconds
    assert len({e["tid"] for e in xs}) == 3
    assert all(e["dur"] >= 0 for e in xs)
    path = tmp_path / "chrome.json"
    tracer.export_chrome(path)
    assert json.loads(path.read_text())["traceEvents"]
