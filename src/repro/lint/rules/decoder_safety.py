"""R002: exception handlers never hide corruption.

DESIGN.md §7 promises that corrupt input always surfaces as
:class:`~repro.common.errors.CorruptStreamError`. R009 proves each decoder
buffer read is guarded, and the failure-injection suite checks that only
``ReproError`` subclasses *escape* a public surface; neither sees an error
a handler catches and drops. This rule does:

* **Untranslated low-level errors** — an ``except IndexError/KeyError/
  struct.error`` inside a decode-side function of the decoder tree (see
  :mod:`repro.lint.common`) that does not raise ``CorruptStreamError``
  turns corruption into silent garbage.
* **Swallowed broad handlers** — ``except:`` / ``except Exception:`` /
  ``except BaseException:`` with no re-raise is an error in the decoder
  tree and a warning elsewhere in the library.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.common import (
    SyntaxIndex,
    caught_names,
    decode_side,
    dotted_name,
    in_decoder_tree,
    is_test_path,
    iter_functions,
)
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Exceptions that raw byte handling leaks on underflow/bad indices.
_LOW_LEVEL = {"IndexError", "KeyError", "struct.error", "UnicodeDecodeError"}

_BROAD = {"Exception", "BaseException"}


@register
class DecoderSafetyRule(Rule):
    code = "R002"
    name = "decoder-safety"
    summary = "handlers must not swallow errors or leave low-level ones untranslated"
    default_severity = Severity.ERROR

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx in project.modules:
            if not is_test_path(ctx.rel):
                findings.extend(self._check_handlers(ctx, in_decoder_tree(ctx.rel)))
        return findings

    def _check_handlers(self, ctx: ModuleContext, decoder_module: bool) -> Iterable[Finding]:
        decoder_spans = [
            (func.lineno, func.end_lineno or func.lineno)
            for cls, func in iter_functions(ctx.tree)
            if decoder_module and decode_side(func.name, cls)
        ]
        for node in ctx.syntax.nodes(ast.ExceptHandler):
            caught = {name for name in caught_names(node) if name}
            if node.type is None or caught & _BROAD:
                if not any(isinstance(n, ast.Raise) for n in ctx.syntax.walk(node)):
                    label = "bare 'except:'" if node.type is None else "broad 'except Exception'"
                    yield ctx.finding(
                        self,
                        node,
                        f"{label} swallows errors; catch specific exceptions or re-raise",
                        severity=Severity.ERROR if decoder_module else Severity.WARNING,
                    )
                continue
            if not caught & _LOW_LEVEL or self._raises_corrupt(ctx.syntax, node):
                continue
            if any(start <= node.lineno <= end for start, end in decoder_spans):
                low = ", ".join(sorted(caught & _LOW_LEVEL))
                yield ctx.finding(
                    self,
                    node,
                    f"handler for {low} must translate underflow into "
                    "CorruptStreamError (with stream offset context)",
                )

    @staticmethod
    def _raises_corrupt(syntax: SyntaxIndex, handler: ast.ExceptHandler) -> bool:
        for node in syntax.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if "CorruptStreamError" in (dotted_name(target) or ""):
                    return True
        return False
