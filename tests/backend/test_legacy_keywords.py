"""The deprecated flat keywords ``PlannerConfig`` still accepts.

Each optional subsystem is one nested config field (None = off).  The
seven flat keywords the engine benchmark's workloads still pass map onto
those fields through one table: each use warns once and yields the config
its nested spelling builds.  Mixing a legacy keyword with its nested field
raises, and no removed flat name survives as an attribute or a keyword.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import replace

import pytest

from repro.backend.planner import _LEGACY_KEYWORDS, PlannerConfig
from repro.common.config import FaultConfig, IndexConfig, LiveConfig, ReidConfig, StrideConfig

CHAOS = FaultConfig(seed=3, transient_rate=0.1, checkpoint_interval=25)
STORE = IndexConfig(path="index.json", stats_min_frames=8)

#: (legacy keywords, the nested spelling they must equal)
SPELLINGS = {
    "stride": (dict(enable_stride_sampling=True), dict(stride=StrideConfig())),
    "stride-off": (dict(enable_stride_sampling=False), dict()),
    "reid": (dict(enable_cross_camera_reid=True), dict(reid=ReidConfig())),
    "faults-default": (dict(enable_fault_tolerance=True), dict(faults=FaultConfig())),
    "faults": (dict(enable_fault_tolerance=True, fault_config=CHAOS), dict(faults=CHAOS)),
    "faults-off": (dict(enable_fault_tolerance=False, fault_config=CHAOS), dict()),
    "fault-config-alone": (dict(fault_config=CHAOS), dict()),
    "live": (dict(enable_live=True), dict(live=LiveConfig())),
    "live-off": (dict(enable_live=False), dict()),
    "index-default": (dict(enable_video_index=True), dict(index=IndexConfig())),
    "index": (dict(enable_video_index=True, index_config=STORE), dict(index=STORE)),
    "index-config-alone": (dict(index_config=STORE), dict()),
    # The engine benchmark's multi-camera workload spells all of these at once.
    "multicam": (
        dict(
            enable_cross_camera_reid=True,
            enable_fault_tolerance=True,
            fault_config=CHAOS,
            enable_video_index=True,
        ),
        dict(reid=ReidConfig(), faults=CHAOS, index=IndexConfig()),
    ),
}

#: Flat names removed with no shim: neither attributes nor keywords.
REMOVED = (
    "max_stride",
    "stride_iou_tol",
    "stride_stable_frames",
    "stride_stable_fraction",
    "reid_threshold",
    "reid_assignment",
    "max_clock_skew_s",
    "enable_tracing",
    "obs_max_decision_records",
    "live_config",
)


def deprecated_keywords(caught):
    """The legacy keyword named by each DeprecationWarning, in order."""
    return [
        str(w.message).split("(", 1)[1].split("=", 1)[0]
        for w in caught
        if issubclass(w.category, DeprecationWarning)
    ]


def test_the_shim_takes_exactly_the_seven_benchmark_keywords():
    assert set(_LEGACY_KEYWORDS) == {
        "enable_stride_sampling",
        "enable_cross_camera_reid",
        "enable_fault_tolerance",
        "fault_config",
        "enable_live",
        "enable_video_index",
        "index_config",
    }


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_each_legacy_keyword_warns_once_and_equals_the_nested_spelling(spelling):
    legacy, nested = SPELLINGS[spelling]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = PlannerConfig(profile_plans=False, **legacy)
    assert sorted(deprecated_keywords(caught)) == sorted(legacy)
    # The warning points at the caller, not at the shim.
    assert {w.filename for w in caught} == {__file__}
    assert config == PlannerConfig(profile_plans=False, **nested)


@pytest.mark.parametrize("legacy", sorted(_LEGACY_KEYWORDS))
def test_mixing_a_legacy_keyword_with_its_nested_field_raises(legacy):
    nested_field = _LEGACY_KEYWORDS[legacy][0]
    with pytest.raises(TypeError, match=f"both {legacy}= and {nested_field}="):
        PlannerConfig(**{legacy: True, nested_field: None})


@pytest.mark.parametrize("name", sorted(set(_LEGACY_KEYWORDS) | set(REMOVED)))
def test_removed_flat_names_are_not_attributes(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy_built = PlannerConfig(enable_video_index=True, fault_config=CHAOS)
    for config in (PlannerConfig(), legacy_built):
        with pytest.raises(AttributeError):
            getattr(config, name)
    assert not hasattr(PlannerConfig, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_flat_keywords_raise_at_construction(name):
    # A tuning value reaches a PlannerConfig only inside its sub-config, which
    # validates it, so no PlannerConfig can construct and then fail to execute.
    with pytest.raises(TypeError):
        PlannerConfig(**{name: 0})


def test_the_nested_spelling_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = PlannerConfig(stride=StrideConfig(max_stride=4), faults=CHAOS, index=STORE)
        assert replace(config, faults=None).faults is None
        assert pickle.loads(pickle.dumps(config)) == config
        assert PlannerConfig(True, False).enable_fusion is False
