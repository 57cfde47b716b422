"""SC6xx — tracer spans must be closed by a ``with`` statement.

:meth:`repro.obs.trace.Tracer.span` is a context manager: the span's end
timestamps (wall *and* virtual) are taken on ``__exit__``, and the
tracer's parent stack is popped there too.  A span entered manually and
never exited corrupts the parenting of every later span of that tracer
and never records itself — the trace silently loses a lane.  The
rule therefore flags every ``*.tracer.span(...)`` (or bare
``tracer.span(...)``) call that is not the context expression of a
``with`` statement or an ``ExitStack.enter_context(...)`` argument, and
separately flags explicit ``.__enter__()`` calls on a span, which are
never needed.

Findings
--------
* ``SC601`` ``Tracer.span(...)`` used outside a ``with`` statement
* ``SC602`` manual ``__enter__()`` on a span (unbalanced by definition)
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.staticcheck.core import AnalysisTarget, CheckConfig, Finding, ModuleInfo, Rule, register_rule


def _attr_chain(expr: ast.expr) -> List[str]:
    """The dotted parts of an attribute chain, outermost last.

    ``self.obs.tracer.span`` -> ``["self", "obs", "tracer", "span"]``;
    an empty list when the expression is not a plain Name/Attribute chain.
    """
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        # Chain rooted in a call/subscript: keep what we have — the
        # receiver name check below only needs the intermediate parts.
        pass
    else:
        return []
    parts.reverse()
    return parts


def _is_span_call(node: ast.Call) -> bool:
    """True for ``<something tracer-ish>.span(...)`` calls."""
    if not isinstance(node.func, ast.Attribute) or node.func.attr != "span":
        return False
    chain = _attr_chain(node.func.value)
    return any("tracer" in part.lower() for part in chain)


def _span_label(node: ast.Call) -> str:
    """The span's name (first str constant arg) or the receiver chain."""
    if node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
        return node.args[0].value
    return ".".join(_attr_chain(node.func)) or "span"


@register_rule
class TraceHygieneRule(Rule):
    name = "trace-hygiene"
    id_prefix = "SC6"
    description = (
        "every Tracer.span(...) use is a with-statement context expression "
        "(no leaked spans, no manual __enter__)"
    )

    def check(self, target: AnalysisTarget, config: CheckConfig) -> List[Finding]:
        findings: List[Finding] = []
        for module in target.modules:
            findings.extend(self._check_module(module))
        unique: Dict[str, Finding] = {}
        for finding in findings:
            unique.setdefault(finding.key, finding)
        return list(unique.values())

    def _check_module(self, module: ModuleInfo) -> List[Finding]:
        allowed: Set[int] = set()
        for node in ast.walk(module.tree):
            # with tracer.span(...): / async with — the blessed shapes.
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    allowed.add(id(item.context_expr))
            # stack.enter_context(tracer.span(...)) closes via the stack.
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "enter_context"
            ):
                for arg in node.args:
                    allowed.add(id(arg))

        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_span_call(node) and id(node) not in allowed:
                label = _span_label(node)
                findings.append(
                    Finding(
                        rule_id="SC601",
                        severity="error",
                        path=module.relpath,
                        line=node.lineno,
                        symbol=module.dotted,
                        message=(
                            f"Tracer.span({label!r}) outside a with-statement — the span "
                            "never closes, so its duration is lost and the thread's "
                            "parent stack stays corrupted"
                        ),
                        fix_hint="wrap it: `with tracer.span(...):` (or stack.enter_context)",
                        fingerprint=f"span-no-with.{label}",
                    )
                )
            # tracer.span(...).__enter__() — manual entry, by construction
            # unbalanced (there is no handle to __exit__ on).
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "__enter__"
                and isinstance(node.func.value, ast.Call)
                and _is_span_call(node.func.value)
            ):
                label = _span_label(node.func.value)
                findings.append(
                    Finding(
                        rule_id="SC602",
                        severity="error",
                        path=module.relpath,
                        line=node.lineno,
                        symbol=module.dotted,
                        message=(
                            f"manual __enter__() on Tracer.span({label!r}) — nothing "
                            "ever calls __exit__, so the span leaks"
                        ),
                        fix_hint="use a with-statement instead of calling __enter__ directly",
                        fingerprint=f"span-manual-enter.{label}",
                    )
                )
        return findings
