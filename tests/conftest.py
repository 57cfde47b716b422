"""Shared fixtures: small synthetic videos, a model zoo, planner configs, a render spy."""

from __future__ import annotations

import pytest

from repro.backend.planner import PlannerConfig
from repro.common.config import VideoSpec
from repro.models.zoo import default_zoo
from repro.videosim.datasets import auburn_clip, camera_clip, suspect_scenario_clip
from repro.videosim.entities import ObjectSpec
from repro.videosim.trajectory import LinearTrajectory, StationaryTrajectory
from repro.videosim.video import SyntheticVideo


@pytest.fixture(scope="session")
def zoo():
    return default_zoo(seed=0)


@pytest.fixture
def renders(monkeypatch):
    """``(video, frame id)`` of every ground-truth render, in order."""
    calls = []
    real = SyntheticVideo._render

    def spy(self, frame_id):
        calls.append((self, frame_id))
        return real(self, frame_id)

    monkeypatch.setattr(SyntheticVideo, "_render", spy)
    return calls


@pytest.fixture(scope="session")
def banff_clip():
    """A short clip from the Banff camera preset (~10 seconds)."""
    return camera_clip("banff", duration_s=10, seed=1)


@pytest.fixture(scope="session")
def jackson_clip():
    """A short clip from the Jackson camera preset (~15 seconds)."""
    return camera_clip("jackson", duration_s=15, seed=2)


@pytest.fixture(scope="session")
def auburn_short():
    return auburn_clip(duration_s=20, seed=3)


@pytest.fixture(scope="session")
def suspect_clip():
    return suspect_scenario_clip(duration_s=40, seed=3)


@pytest.fixture
def fast_config():
    """Planner config without canary profiling, for fast deterministic tests."""
    return PlannerConfig(profile_plans=False)


@pytest.fixture
def plain_config():
    """No optimizations: no reuse, no pull-up, no fusion, no filters."""
    return PlannerConfig(
        enable_lazy=False,
        enable_fusion=False,
        enable_reuse=False,
        use_registered_filters=False,
        consider_specialized=False,
        profile_plans=False,
    )


@pytest.fixture
def tiny_video():
    """A deterministic two-object video: one red car driving, one person standing."""
    spec = VideoSpec("tiny", fps=10, width=640, height=480, duration_s=5)
    car = ObjectSpec(
        object_id=1,
        class_name="car",
        trajectory=LinearTrajectory((50, 300), (6.0, 0.0)),
        size=(100, 50),
        attributes={
            "color": "red",
            "vehicle_type": "sedan",
            "license_plate": "ABC1245",
            "direction": "go_straight",
            "speeding": False,
        },
    )
    person = ObjectSpec(
        object_id=2,
        class_name="person",
        trajectory=StationaryTrajectory((400, 350)),
        size=(30, 80),
        attributes={"clothing": "jeans", "hair": "black"},
        default_action="standing",
    )
    return SyntheticVideo(spec, [car, person], seed=7)
