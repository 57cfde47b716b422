"""Shared benchmark fixtures, and collection of the ``bench_*.py`` files."""

from __future__ import annotations

from pathlib import Path

import pytest

from _scale import SCALE

BENCH_DIR = Path(__file__).resolve().parent


def pytest_collect_file(file_path: Path, parent: pytest.Collector):
    """Collect ``bench_*.py`` when pytest is pointed at this directory.

    The repository's tier-1 run also recurses into ``benchmarks/`` (for the
    engine benchmark's guard tests), so the benches join only a run that
    names ``benchmarks/`` itself; a bench file named on the command line is
    collected by pytest as usual.
    """
    if (
        file_path.parent == BENCH_DIR
        and file_path.name.startswith("bench_")
        and file_path.suffix == ".py"
        and parent.session.isinitpath(BENCH_DIR)
        and not parent.session.isinitpath(file_path)
    ):
        return pytest.Module.from_parent(parent, path=file_path)
    return None


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return SCALE
