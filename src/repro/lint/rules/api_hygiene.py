"""R004: API hygiene — defaults, float comparison, config validation.

Three classes of latent-bug patterns:

* **Mutable default arguments** (``def f(x=[])``): the default is shared
  across calls; one caller's mutation corrupts every later call.
* **Float equality in asserts** (``assert ratio == 0.25``): cycle-model
  outputs are floats; exact comparison is a flaky test or a dead check. Use
  ``math.isclose`` / ``pytest.approx``.
* **Unvalidated parameter dataclasses**: a ``@dataclass`` named ``*Params``
  or ``*Config`` is a user-facing knob surface; without ``__post_init__``
  validation an out-of-range value propagates into the model silently
  (CODAG-style spec drift). Frozen or not, it must validate.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.common import dotted_name, is_test_path
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}


@register
class ApiHygieneRule(Rule):
    code = "R004"
    name = "api-hygiene"
    summary = "mutable defaults, float == in asserts, unvalidated Params/Config"
    default_severity = Severity.WARNING

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx in project.modules:
            if is_test_path(ctx.rel):
                continue
            findings.extend(self._check_module(ctx))
        return findings

    def _check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        syntax = ctx.syntax
        for node in syntax.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            yield from self._check_defaults(ctx, node)
        for node in syntax.nodes(ast.Assert):
            yield from self._check_assert(ctx, node)
        for node in syntax.nodes(ast.ClassDef):
            yield from self._check_dataclass(ctx, node)

    def _check_defaults(
        self, ctx: ModuleContext, func: ast.FunctionDef
    ) -> Iterable[Finding]:
        args = func.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and (dotted_name(default.func) or "").split(".")[-1] in _MUTABLE_CALLS
            )
            if mutable:
                yield ctx.finding(
                    self,
                    default,
                    f"mutable default argument in '{func.name}': the instance is "
                    "shared across calls; default to None and create inside",
                    severity=Severity.ERROR,
                )

    def _check_assert(self, ctx: ModuleContext, node: ast.Assert) -> Iterable[Finding]:
        for sub in ctx.syntax.walk(node.test):
            if not isinstance(sub, ast.Compare):
                continue
            operands = [sub.left] + list(sub.comparators)
            uses_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops)
            has_float = any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in operands
            )
            if uses_eq and has_float:
                yield ctx.finding(
                    self,
                    sub,
                    "float equality in assert: use math.isclose (or compare "
                    "integers) — exact float == is representation-dependent",
                )

    def _check_dataclass(self, ctx: ModuleContext, node: ast.ClassDef) -> Iterable[Finding]:
        if not (node.name.endswith("Params") or node.name.endswith("Config")):
            return
        is_dataclass = any(
            "dataclass" in (dotted_name(d.func if isinstance(d, ast.Call) else d) or "")
            for d in node.decorator_list
        )
        if not is_dataclass:
            return
        has_fields = any(isinstance(b, (ast.AnnAssign, ast.Assign)) for b in node.body)
        has_post_init = any(
            isinstance(b, (ast.FunctionDef, ast.AsyncFunctionDef))
            and b.name == "__post_init__"
            for b in node.body
        )
        if has_fields and not has_post_init:
            yield ctx.finding(
                self,
                node,
                f"parameter dataclass '{node.name}' has no __post_init__ "
                "validation: out-of-range knobs propagate silently",
            )
