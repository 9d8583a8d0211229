"""R003: physical constants live in calibration.py / units.py, nowhere else.

The cycle model's credibility depends on every published anchor (clock
frequencies, silicon areas, latencies) being derived in one audited place,
:mod:`repro.core.calibration`, with unit multipliers in
:mod:`repro.common.units`. This rule flags literals that look like physical
constants leaking into other modules:

* floats at frequency/throughput scale (``>= 1e8``, e.g. ``2.0e9``),
* floats at nanosecond scale (``0 < x < 1e-6``, e.g. ``25e-9``),
* decimal power-of-two byte sizes ``>= 4096`` written out inline
  (``16384``) instead of via ``KiB``/``MiB`` or a shift — a module-level
  ``ALL_CAPS`` constant definition is accepted, since that *is* a named
  calibration point,
* the paper's distinctive published anchors (areas and flagship
  throughputs) re-typed outside calibration.

Tests are exempt: asserting against a literal anchor is exactly what a
calibration test should do.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.lint.common import SyntaxIndex, is_test_path, path_matches
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: calibration.py/units.py own the constants; the lint package itself must
#: be able to *name* the patterns it hunts for.
_ALLOWED = ("core/calibration.py", "common/units.py", "lint")

#: Distinctive published numbers from the paper (§6 areas / GB/s); anything
#: equal to one of these outside calibration.py was almost certainly re-typed.
_PAPER_ANCHORS = {0.431, 0.851, 3.48, 17.98, 5.84, 11.4, 3.95}

_FREQUENCY_FLOOR = 1e8
#: Nanosecond-scale band: catches 25e-9-style latencies while leaving
#: sub-picosecond numerical epsilons (1e-12) alone.
_NANO_FLOOR = 1e-10
_NANO_CEILING = 1e-6
_SIZE_FLOOR = 4096


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@register
class CalibrationHygieneRule(Rule):
    code = "R003"
    name = "calibration-hygiene"
    summary = "physical constants belong in core/calibration.py or common/units.py"
    default_severity = Severity.WARNING

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx in project.modules:
            if path_matches(ctx.rel, _ALLOWED) or is_test_path(ctx.rel):
                continue
            findings.extend(self._check_module(ctx))
        return findings

    def _check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        named_constants = self._module_constant_nodes(ctx.syntax)
        for node in ctx.syntax.nodes(ast.Constant):
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, float):
                if value in _PAPER_ANCHORS:
                    yield ctx.finding(
                        self,
                        node,
                        f"literal {value!r} is a published calibration anchor; "
                        "import it from repro.core.calibration",
                        severity=Severity.ERROR,
                    )
                elif abs(value) >= _FREQUENCY_FLOOR:
                    yield ctx.finding(
                        self,
                        node,
                        f"frequency/throughput-scale literal {value!r}: define it "
                        "in core/calibration.py (or build it from common.units)",
                    )
                elif _NANO_FLOOR <= abs(value) < _NANO_CEILING:
                    yield ctx.finding(
                        self,
                        node,
                        f"nanosecond-scale literal {value!r}: latency constants "
                        "belong in core/calibration.py",
                    )
            elif (
                isinstance(value, int)
                and value >= _SIZE_FLOOR
                and _is_power_of_two(value)
                and id(node) not in named_constants
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"inline byte-size literal {value}: write it via "
                    "common.units (KiB/MiB) or hoist it to a named constant",
                )

    @staticmethod
    def _module_constant_nodes(syntax: SyntaxIndex) -> Set[int]:
        """IDs of Constant nodes on the RHS of module-level ALL_CAPS assigns."""
        allowed: Set[int] = set()
        for stmt in syntax.tree.body:
            targets: List[ast.expr] = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            names_ok = all(
                isinstance(t, ast.Name) and t.id.upper() == t.id for t in targets
            )
            if targets and names_ok:
                for node in syntax.walk(value):
                    if isinstance(node, ast.Constant):
                        allowed.add(id(node))
        return allowed
