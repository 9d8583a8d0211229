"""Lint engine: file discovery, AST parsing, suppressions, rule dispatch.

Analysis runs in two passes. Pass one builds the flow layer — a CFG and a
taint solve for each function whose taint facts a rule reads
(:func:`repro.lint.flow.collect_module_flow`), indexed into project-wide
function summaries (:func:`repro.lint.flow.assemble`). Pass two runs the
rules, which see the summaries on :attr:`ProjectContext.summaries`; the
flow rules (R008, R009) consume them directly.

Pass one is the expensive part and is embarrassingly parallel per file, so
``jobs > 1`` fans it out over a :class:`~concurrent.futures.
ProcessPoolExecutor` (width from :func:`repro.common.parallel.resolve_jobs`:
explicit argument wins, then ``REPRO_JOBS``, then serial; order-preserving
``map`` keeps results byte-identical for any worker count). Whole runs are also
memoizable by content hash via :mod:`repro.lint.cache`; a run the cache
answers reads and hashes the files and parses none.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.common.parallel import resolve_jobs
from repro.lint.cache import LintCache, analyzer_digest, file_digest
from repro.lint.common import SyntaxIndex
from repro.lint.findings import Finding, Severity
from repro.lint.flow import ProjectSummaries, assemble, collect_module_flow
from repro.lint.registry import Rule, all_rules

#: ``# repro: noqa`` or ``# repro: noqa[R002,R003]`` suppresses findings on
#: the annotated line (the line the finding is reported at).
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[^\]]*)\])?", re.IGNORECASE)

#: Suppress-everything marker used in the per-line suppression map.
_ALL_RULES = "*"


@dataclass
class ModuleContext:
    """One parsed Python module plus helpers for rules."""

    path: Path  # absolute
    rel: str  # project-root-relative, POSIX separators
    source: str
    lines: List[str]
    tree: ast.Module
    #: The one traversal of ``tree`` the flow layer and every rule read.
    syntax: SyntaxIndex

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self,
        rule: Rule,
        node: Union[ast.AST, int],
        message: str,
        *,
        severity: Optional[Severity] = None,
    ) -> Finding:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.code,
            path=self.rel,
            line=line,
            col=col,
            severity=severity if severity is not None else rule.default_severity,
            message=message,
            snippet=self.snippet(line),
        )


@dataclass
class ProjectContext:
    """Everything a rule may inspect: the root, modules, and flow summaries."""

    root: Path
    modules: Tuple[ModuleContext, ...] = ()
    #: Project-wide function summaries, built by the engine before rules
    #: run. ``None`` only when a rule is invoked outside :func:`run_lint`.
    summaries: Optional[ProjectSummaries] = None
    _by_rel: Dict[str, ModuleContext] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.modules = tuple(self.modules)
        self._by_rel = {ctx.rel: ctx for ctx in self.modules}

    def module(self, rel: str) -> Optional[ModuleContext]:
        """The module at project-relative path ``rel``, if it is linted."""
        return self._by_rel.get(rel)


@dataclass
class LintResult:
    findings: List[Finding]
    files_checked: int
    suppressed: int

    @property
    def max_severity(self) -> Optional[Severity]:
        return max((f.severity for f in self.findings), default=None)


def find_project_root(start: Path) -> Path:
    """Ascend from ``start`` to the nearest directory with ``pyproject.toml``."""
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return probe


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts or candidate.suffix != ".py":
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield resolved


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Per-line suppression sets; ``{_ALL_RULES}`` means every rule."""
    table: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "#" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        spec = match.group("rules")
        if spec is None:
            table[number] = {_ALL_RULES}
        else:
            codes = {code.strip().upper() for code in spec.split(",") if code.strip()}
            table[number] = codes or {_ALL_RULES}
    return table


def _relative(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` (both resolved), else as given."""
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def load_module(path: Path, root: Path) -> Union[ModuleContext, Finding]:
    """Parse one file; an unparsable file is itself a finding, not a crash."""
    rel = _relative(path.resolve(), root.resolve())
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return Finding(
            rule="R000",
            path=rel,
            line=getattr(exc, "lineno", 1) or 1,
            col=0,
            severity=Severity.ERROR,
            message=f"could not parse file: {exc}",
        )
    return ModuleContext(
        path=path,
        rel=rel,
        source=source,
        lines=source.splitlines(),
        tree=tree,
        syntax=SyntaxIndex(tree),
    )


def _collect_flows(
    modules: Sequence[ModuleContext], jobs: int
) -> Dict[str, list]:
    """Per-module flow records, optionally fanned out over a process pool.

    ``map`` preserves input order and :func:`~repro.lint.flow.
    collect_module_flow` is deterministic on ``(rel, source)``, so the
    assembled summaries — and every downstream finding — are byte-identical
    for any worker count. Serially the flow pass reads the tree and syntax
    index :func:`load_module` built, which the rules reuse; workers get
    ``(rel, source)`` and parse.
    """
    rels = [ctx.rel for ctx in modules]
    if jobs <= 1 or len(modules) <= 1:
        records = [collect_module_flow(ctx.rel, ctx.source, ctx.syntax) for ctx in modules]
    else:
        sources = [ctx.source for ctx in modules]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(modules))) as pool:
            records = list(pool.map(collect_module_flow, rels, sources, chunksize=4))
    return dict(zip(rels, records))


def _read_digests(
    project: ProjectContext, rules: Sequence[Rule], files: Sequence[Path]
) -> List[Tuple[str, str]]:
    """``(path, digest)`` of every file outside the linted set that a rule
    reads from disk (:meth:`Rule.reads`). The cache entry records them, so
    editing, adding or deleting one misses it. Linted files are keyed by
    their own digests already."""
    linted = set(files)
    extra = {path.resolve() for rule in rules for path in rule.reads(project)} - linted
    return [(_relative(path, project.root), file_digest(path)) for path in sorted(extra)]


def _result_to_payload(result: LintResult, reads: List[Tuple[str, str]]) -> dict:
    return {
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [f.to_json() for f in result.findings],
        "reads": reads,
    }


def _result_from_payload(payload: dict, root: Path) -> Optional[LintResult]:
    """The stored result, or ``None`` when a file it read has changed."""
    try:
        for shown, recorded in payload["reads"]:
            if file_digest(root / shown) != recorded:
                return None
        findings = [
            Finding(
                rule=raw["rule"],
                path=raw["path"],
                line=int(raw["line"]),
                col=int(raw["col"]),
                severity=Severity.parse(raw["severity"]),
                message=raw["message"],
                snippet=raw.get("snippet", ""),
            )
            for raw in payload["findings"]
        ]
        return LintResult(
            findings=findings,
            files_checked=int(payload["files_checked"]),
            suppressed=int(payload["suppressed"]),
        )
    except (KeyError, TypeError, ValueError):
        return None  # entry written by an incompatible version: treat as miss


def run_lint(
    paths: Sequence[Union[str, Path]],
    *,
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[Rule]] = None,
    jobs: Optional[int] = None,
    cache: Optional[LintCache] = None,
) -> LintResult:
    """Lint ``paths`` and return findings sorted by location.

    ``root`` anchors repo-relative paths and project-structural rules; it is
    auto-detected (nearest ``pyproject.toml``) when omitted. ``rules``
    defaults to every registered rule. ``jobs`` parallelizes the flow pass
    (explicit arg, then ``REPRO_JOBS``, then serial); results are identical
    for any worker count. ``cache`` memoizes whole runs by content hash.
    """
    if not paths:
        raise ValueError("run_lint needs at least one path")
    files = list(iter_python_files(paths))
    resolved_root = (
        Path(root).resolve() if root is not None else find_project_root(Path(paths[0]).resolve())
    )
    active_rules = list(rules) if rules is not None else all_rules()

    cache_key: Optional[str] = None
    if cache is not None:
        # Unparsable files are keyed too, so fixing one misses.
        digests = [(_relative(path, resolved_root), file_digest(path)) for path in files]
        cache_key = cache.key(
            analyzer_digest(), [rule.code for rule in active_rules], digests
        )
        payload = cache.get(cache_key)
        if payload is not None:
            cached = _result_from_payload(payload, resolved_root)
            if cached is not None:
                return cached

    modules: List[ModuleContext] = []
    findings: List[Finding] = []
    for path in files:
        loaded = load_module(path, resolved_root)
        if isinstance(loaded, Finding):
            findings.append(loaded)
        else:
            modules.append(loaded)
    project = ProjectContext(root=resolved_root, modules=modules)

    flows = _collect_flows(project.modules, resolve_jobs(jobs))
    project.summaries = assemble(project.modules, flows)

    for rule in active_rules:
        findings.extend(rule.check(project))

    suppression_tables = {
        ctx.rel: parse_suppressions(ctx.lines) for ctx in project.modules
    }
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        table = suppression_tables.get(finding.path, {})
        codes = table.get(finding.line)
        if codes is not None and (_ALL_RULES in codes or finding.rule in codes):
            suppressed += 1
        else:
            kept.append(finding)

    kept.sort(key=lambda f: f.sort_key)
    result = LintResult(findings=kept, files_checked=len(files), suppressed=suppressed)
    if cache is not None and cache_key is not None:
        reads = _read_digests(project, active_rules, files)
        cache.put(cache_key, _result_to_payload(result, reads))
    return result
