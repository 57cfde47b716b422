"""SC4xx — thread-safety of module-level state.

The engine runs an execution on the calling thread, but user code may call
the library from several threads at once, so any module-level mutable
state an execution can touch is shared between threads.  The rule flags
module-level state that the module itself *mutates* (subscript writes,
mutating method calls, or ``global`` rebinding) without holding a
module-level :class:`threading.Lock` — read-only constant tables are fine
and deliberately ignored.  It also flags lambdas submitted to executor
pools, which both capture ambient state and defeat the picklability audit
if the pool ever becomes process-based.

Findings
--------
* ``SC401`` unsynchronized mutation of module-level state
* ``SC402`` lambda submitted to an executor pool
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.staticcheck.astutils import (
    MUTATING_METHODS,
    is_mutable_container_expr,
    module_level_assignments,
)
from repro.staticcheck.core import AnalysisTarget, CheckConfig, Finding, ModuleInfo, Rule, register_rule

#: Executor entry points whose callables run on worker threads.
POOL_SUBMIT_METHODS = ("submit", "map")


def _lock_names(module: ModuleInfo) -> Set[str]:
    """Module-level names bound to ``threading.Lock()`` / ``RLock()``."""
    locks: Set[str] = set()
    for name, value in module_level_assignments(module).items():
        if not isinstance(value, ast.Call):
            continue
        resolved = module.resolve_attr_chain(value.func)
        if resolved is None and isinstance(value.func, ast.Name):
            resolved = module.resolve_name(value.func.id)
        if resolved in ("threading.Lock", "threading.RLock"):
            locks.add(name)
    return locks


class _FunctionScanner(ast.NodeVisitor):
    """Find unsynchronized mutations of module globals inside one function."""

    def __init__(self, module: ModuleInfo, shared: Set[str], locks: Set[str]) -> None:
        self.module = module
        self.shared = shared
        self.locks = locks
        self.lock_depth = 0
        self.declared_global: Set[str] = set()
        self.local_names: Set[str] = set()
        self.hits: List[Finding] = []

    # -- lock tracking
    def visit_With(self, node: ast.With) -> None:
        holds = any(
            isinstance(item.context_expr, ast.Name) and item.context_expr.id in self.locks
            for item in node.items
        )
        if holds:
            self.lock_depth += 1
        self.generic_visit(node)
        if holds:
            self.lock_depth -= 1

    def visit_Global(self, node: ast.Global) -> None:
        self.declared_global.update(node.names)

    # local rebinding shadows the module global; stop treating it as shared
    def _note_local(self, tgt: ast.expr) -> None:
        if isinstance(tgt, ast.Name):
            self.local_names.add(tgt.id)

    def _emit(self, line: int, name: str, how: str) -> None:
        if self.lock_depth > 0:
            return
        self.hits.append(
            Finding(
                rule_id="SC401",
                severity="error",
                path=self.module.relpath,
                line=line,
                symbol=self.module.dotted,
                message=(
                    f"mutates module-level {name!r} ({how}) without holding a lock — "
                    "user code may call the library from several threads, which share this state"
                ),
                fix_hint=(
                    "guard the mutation with a module-level threading.Lock() "
                    "(with _lock: ...), or move the state into an instance"
                ),
                fingerprint=f"unsync-write.{name}.{how}",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            self._check_target(tgt, node.lineno)
            self._note_local(tgt)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node.lineno)
        if isinstance(node.target, ast.Name) and node.target.id in self.declared_global:
            self._emit(node.lineno, node.target.id, "augmented-rebind")
        self.generic_visit(node)

    def _check_target(self, tgt: ast.expr, line: int) -> None:
        # global rebinding: `global x; x = ...`
        if isinstance(tgt, ast.Name) and tgt.id in self.declared_global and tgt.id in self.shared:
            self._emit(line, tgt.id, "rebind")
            return
        # subscript/attribute writes into a shared container: SHARED[k] = v
        root = tgt
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
        if (
            isinstance(root, ast.Name)
            and root.id in self.shared
            and root.id not in self.local_names
            and root is not tgt
        ):
            self._emit(line, root.id, "item-write")

    def visit_Call(self, node: ast.Call) -> None:
        # SHARED.append(...) and friends
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.shared
            and node.func.value.id not in self.local_names
        ):
            self._emit(node.lineno, node.func.value.id, f"call-{node.func.attr}")
        self.generic_visit(node)


@register_rule
class ThreadSafetyRule(Rule):
    name = "thread-safety"
    id_prefix = "SC4"
    description = (
        "module-level mutable state, which every thread that calls the "
        "library shares, is lock-guarded; pools never receive lambdas"
    )

    def check(self, target: AnalysisTarget, config: CheckConfig) -> List[Finding]:
        findings: List[Finding] = []
        for module in target.modules:
            findings.extend(self._check_module(module))
            findings.extend(self._check_pool_lambdas(module))
        unique: Dict[str, Finding] = {}
        for finding in findings:
            unique.setdefault(finding.key, finding)
        return list(unique.values())

    # -- SC401 ------------------------------------------------------------------
    def _check_module(self, module: ModuleInfo) -> List[Finding]:
        shared = {
            name
            for name, value in module_level_assignments(module).items()
            if is_mutable_container_expr(value, module)
            or (isinstance(value, ast.Constant) and value.value is None)
        }
        if not shared:
            return []
        locks = _lock_names(module)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scanner = _FunctionScanner(module, shared, locks)
            for stmt in node.body:
                scanner.visit(stmt)
            findings.extend(scanner.hits)
        return findings

    # -- SC402 ------------------------------------------------------------------
    def _check_pool_lambdas(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in POOL_SUBMIT_METHODS:
                continue
            receiver: Optional[str] = None
            if isinstance(node.func.value, ast.Name):
                receiver = node.func.value.id
            # Heuristic: treat any `*pool*`/`*executor*` receiver as a pool.
            if receiver is None or not any(s in receiver.lower() for s in ("pool", "executor", "ex")):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    findings.append(
                        Finding(
                            rule_id="SC402",
                            severity="warning",
                            path=module.relpath,
                            line=arg.lineno,
                            symbol=module.dotted,
                            message=(
                                f"submits a lambda to {receiver}.{node.func.attr}() — "
                                "closures capture ambient state by reference and block a "
                                "future switch to process pools"
                            ),
                            fix_hint="submit a bound method or module-level function",
                            fingerprint=f"pool-lambda.{node.func.attr}",
                        )
                    )
        return findings
