"""A clean checkout must be installable from its own dependency lists.

CI installs only ``requirements.txt``, so every third-party module the
engine, its tests or its benchmarks import has to be listed there, and the
engine's own imports also in ``setup.py``'s ``install_requires``.
"""

from __future__ import annotations

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path
from typing import Dict, Iterable, Set

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _top_level_imports(files: Iterable[Path]) -> Dict[str, Path]:
    """Absolute top-level module name -> one file importing it."""
    found: Dict[str, Path] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path)
    return found


def _third_party(roots: Iterable[str]) -> Dict[str, str]:
    """Third-party distribution -> a file importing it, over ``roots``."""
    files = [p for root in roots for p in (ROOT / root).rglob("*.py")]
    # Modules of this repository: its packages, and the directories that
    # pytest or a script puts on sys.path (benchmark helpers, fixtures).
    local = {p.stem for p in files} | {p.parent.name for p in files}
    dists = packages_distributions()
    out: Dict[str, str] = {}
    for module, path in _top_level_imports(files).items():
        if module in sys.stdlib_module_names or module in local:
            continue
        for dist in dists.get(module, [module]):
            out.setdefault(_normalise(dist), str(path.relative_to(ROOT)))
    return out


def _requirements() -> Set[str]:
    names = set()
    for line in (ROOT / "requirements.txt").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(_normalise(re.split(r"[\s<>=!~;\[]", line, maxsplit=1)[0]))
    return names


def _install_requires() -> Set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {_normalise(re.split(r"[\s<>=!~;\[]", ast.literal_eval(elt), maxsplit=1)[0])
                    for elt in node.value.elts}
    raise AssertionError("setup.py declares no install_requires")


def test_every_third_party_import_is_in_requirements():
    missing = {dist: path for dist, path in _third_party(SCANNED).items() if dist not in _requirements()}
    assert not missing, f"imported but not in requirements.txt: {missing}"


def test_engine_imports_are_install_requires():
    runtime = _install_requires()
    missing = {dist: path for dist, path in _third_party(["src"]).items() if dist not in runtime}
    assert not missing, f"src/ imports missing from setup.py install_requires: {missing}"
    assert runtime <= _requirements(), "install_requires must also be in requirements.txt"
