"""R013: no blocking IO/CPU primitives inside ``async def``.

ROADMAP item 1 puts an asyncio serving layer in front of the process-pool
workers. One ``time.sleep`` or synchronous ``subprocess.run`` inside a
coroutine stalls the *entire* event loop — every in-flight request, not
just the offending one — and the failure only shows under concurrent load,
which unit tests never generate. Landing the rule before the service layer
means that code is born lint-clean instead of retrofitted.

The check is syntactic but alias-aware: every ``async def`` body (at any
nesting depth, excluding nested ``def``/``async def``/``lambda`` scopes,
which run on their caller's thread, not the loop) is scanned for calls
whose dotted name — resolved through the module's import aliases — lands in
a curated table of blocking primitives. Each finding names the async-native
replacement (``asyncio.sleep``, ``asyncio.create_subprocess_exec``,
``loop.run_in_executor``, ...).

``await``-wrapped calls are exempt by construction: ``subprocess.run`` has
no ``__await__``, so anything awaitable is already not in the table.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List

from repro.lint.common import SyntaxIndex, dotted_name, is_test_path, resolve_alias
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Fully-qualified blocking call -> suggested async-native replacement.
_BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "await asyncio.sleep(...)",
    "subprocess.run": "await asyncio.create_subprocess_exec(...)",
    "subprocess.call": "await asyncio.create_subprocess_exec(...)",
    "subprocess.check_call": "await asyncio.create_subprocess_exec(...)",
    "subprocess.check_output": "await asyncio.create_subprocess_exec(...)",
    "subprocess.Popen.communicate": "await proc.communicate() on an asyncio subprocess",
    "os.system": "await asyncio.create_subprocess_shell(...)",
    "os.wait": "await asyncio.gather(...) over asyncio subprocesses",
    "urllib.request.urlopen": "an async HTTP client or loop.run_in_executor",
    "socket.create_connection": "await asyncio.open_connection(...)",
    "requests.get": "an async HTTP client or loop.run_in_executor",
    "requests.post": "an async HTTP client or loop.run_in_executor",
}

#: Method terminals that block regardless of the receiver's spelling.
_BLOCKING_TERMINALS: Dict[str, str] = {
    "read_bytes": "loop.run_in_executor (or aiofiles)",
    "read_text": "loop.run_in_executor (or aiofiles)",
    "write_bytes": "loop.run_in_executor (or aiofiles)",
    "write_text": "loop.run_in_executor (or aiofiles)",
}

#: Bare builtins that block on disk.
_BLOCKING_BUILTINS: Dict[str, str] = {
    "open": "loop.run_in_executor (or aiofiles) for file IO",
    "input": "loop.run_in_executor for console reads",
}


def _async_body_calls(
    func: ast.AsyncFunctionDef, syntax: SyntaxIndex
) -> Iterator[ast.Call]:
    """Calls lexically inside the coroutine, skipping nested scopes."""
    stack: List[ast.AST] = list(syntax.children(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(syntax.children(node))


@register
class BlockingInAsyncRule(Rule):
    code = "R013"
    name = "blocking-in-async"
    summary = "no blocking IO/CPU primitives inside async def"
    default_severity = Severity.ERROR
    remediation = (
        "A blocking call inside a coroutine stalls the whole event loop. "
        "Use the asyncio-native equivalent (`asyncio.sleep`, "
        "`asyncio.create_subprocess_exec`, `asyncio.open_connection`) or "
        "push the blocking work off the loop with "
        "`await loop.run_in_executor(None, fn, ...)`."
    )

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx in project.modules:
            if is_test_path(ctx.rel):
                continue
            for node in ctx.syntax.nodes(ast.AsyncFunctionDef):
                findings.extend(self._check_coroutine(ctx, node, ctx.syntax.imports))
        return findings

    def _check_coroutine(
        self,
        ctx: ModuleContext,
        func: ast.AsyncFunctionDef,
        imports: Dict[str, str],
    ) -> Iterator[Finding]:
        for call in _async_body_calls(func, ctx.syntax):
            name = dotted_name(call.func)
            if name is None:
                continue
            hit = self._lookup(name, imports)
            if hit is None:
                continue
            shown, fix = hit
            yield ctx.finding(
                self,
                call,
                f"blocking call '{shown}(...)' inside 'async def {func.name}' "
                f"stalls the event loop for every in-flight task; use {fix}",
            )

    def _lookup(self, name: str, imports: Dict[str, str]):
        resolved = resolve_alias(name, imports)
        if resolved in _BLOCKING_CALLS:
            return resolved, _BLOCKING_CALLS[resolved]
        if "." not in name and name in _BLOCKING_BUILTINS:
            return name, _BLOCKING_BUILTINS[name]
        terminal = name.split(".")[-1]
        if "." in name and terminal in _BLOCKING_TERMINALS:
            return name, _BLOCKING_TERMINALS[terminal]
        return None
