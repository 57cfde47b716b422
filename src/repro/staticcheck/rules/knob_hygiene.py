"""SC5xx — hygiene of feature knobs and optional subsystem configs.

The engine's optimizations ship behind boolean ``enable_*`` knobs, and
each optional backend subsystem is one ``Optional[<X>Config]`` field whose
presence switches it on.  The repo's policy: a knob defaults to **False**
and a subsystem config to **None** (new behaviour is opt-in until it has
earned paper-default status), each is **exercised by at least one test**
(a knob nobody flips is dead weight or, worse, untested live code), and
each is **documented** (users cannot opt into what they cannot find).
Deliberate default-True knobs — paper-default semantics — are baselined
with a justification rather than silently exempted.

A knob counts as tested or documented when its name appears in the tests
or the docs.  A subsystem field's name is a common word (``index``,
``live``), so it counts as tested only when a test passes it as a keyword
(``stride=...``), and as documented only when the docs spell it as
inline code (a backticked ``stride``) or as a keyword.

Findings
--------
* ``SC501`` boolean knob defaulting to anything but False, or subsystem
  config defaulting to anything but None
* ``SC502`` knob or subsystem config never referenced by any test
* ``SC503`` knob or subsystem config not mentioned in the documentation
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, NamedTuple

from repro.staticcheck.astutils import ClassIndex, annotation_names
from repro.staticcheck.core import AnalysisTarget, CheckConfig, Finding, Rule, register_rule


class _Knob(NamedTuple):
    qualname: str  # owning class
    relpath: str
    name: str
    line: int
    #: True for an ``Optional[<X>Config]`` subsystem field, False for a
    #: boolean ``enable_*`` knob.
    subsystem: bool
    #: The default's source text ("" when the field has none).
    default: str


def _default_is_off(knob: _Knob) -> bool:
    if knob.subsystem:
        return knob.default == "None"
    return knob.default in ("", "False")


def _is_tested(knob: _Knob, test_blob: str) -> bool:
    if knob.subsystem:
        return re.search(rf"\b{knob.name}=", test_blob) is not None
    return knob.name in test_blob


def _is_documented(knob: _Knob, doc_blob: str) -> bool:
    if knob.subsystem:
        return re.search(rf"`{knob.name}`|\b{knob.name}=", doc_blob) is not None
    return knob.name in doc_blob


def _finding(
    knob: _Knob, rule_id: str, severity: str, message: str, fix_hint: str, what: str
) -> Finding:
    owner = knob.qualname.split(".")[-1]
    return Finding(
        rule_id=rule_id,
        severity=severity,
        path=knob.relpath,
        line=knob.line,
        symbol=f"{knob.qualname}.{knob.name}",
        message=message,
        fix_hint=fix_hint,
        fingerprint=f"{owner}.{knob.name}.{what}",
    )


@register_rule
class KnobHygieneRule(Rule):
    name = "knob-hygiene"
    id_prefix = "SC5"
    description = (
        "every enable_* knob defaults to False and every Optional[<X>Config] "
        "subsystem field to None; each is exercised by a test and documented"
    )

    def check(self, target: AnalysisTarget, config: CheckConfig) -> List[Finding]:
        findings: List[Finding] = []
        test_blob = "\n".join(config.test_texts())
        doc_blob = "\n".join(config.doc_texts())
        for knob in self._knobs(target):
            kind = "subsystem config" if knob.subsystem else "knob"
            if not _default_is_off(knob):
                off = "None" if knob.subsystem else "False"
                shown = knob.default or "nothing (a required field)"
                findings.append(
                    _finding(
                        knob,
                        "SC501",
                        "error",
                        f"{kind} defaults to {shown}; policy is opt-in ({off}) unless the "
                        "behaviour is paper-default and baselined with a justification",
                        f"default the {kind} to {off}, or baseline it with a reason",
                        "default",
                    )
                )
            if test_blob and not _is_tested(knob, test_blob):
                findings.append(
                    _finding(
                        knob,
                        "SC502",
                        "warning",
                        f"{kind} is never referenced by any test",
                        f"add a test that exercises the {kind} both on and off",
                        "untested",
                    )
                )
            if doc_blob and not _is_documented(knob, doc_blob):
                findings.append(
                    _finding(
                        knob,
                        "SC503",
                        "warning",
                        f"{kind} is not mentioned anywhere in the documentation",
                        f"add the {kind} to the configuration docs (docs/*.md)",
                        "undocumented",
                    )
                )
        return findings

    def _knobs(self, target: AnalysisTarget) -> Iterator[_Knob]:
        index = ClassIndex(target)
        for info in index.by_qualname.values():
            for item in info.node.body:
                if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
                    continue
                name = item.target.id
                types = [n.split(".")[-1] for n in annotation_names(item.annotation, info.module)]
                if name.startswith("enable_") and "bool" in types:
                    subsystem = False
                elif "Optional" in types and any(t.endswith("Config") for t in types):
                    subsystem = True
                else:
                    continue
                default = ast.unparse(item.value) if item.value is not None else ""
                relpath = info.module.relpath
                yield _Knob(info.qualname, relpath, name, item.lineno, subsystem, default)
