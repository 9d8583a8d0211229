"""R005: every registered codec has an encoder, a decoder, and a test.

The codec registry (``algorithms/registry.py``) is the contract surface the
fleet model, HCBench and the CLI all dispatch through. A registry entry
whose class is missing ``compress``/``decompress``, or that has no
round-trip test file, is an un-exercised format that will drift from spec.
This rule statically cross-checks, for each ``_CODEC_FACTORIES`` entry:

* the factory class is imported from a resolvable ``algorithms/`` module,
* that class provides both directions of the codec surface — for each of
  compress/decompress, either the one-shot override, the whole-buffer
  ``_compress_buffer``/``_decompress_buffer`` transform, or a streaming
  ``compress_context``/``decompress_context`` factory,
* a ``tests/algorithms/test_<module>.py`` file exists and mentions
  ``decompress`` (i.e. it round-trips, not just constructs).

The codec-graph layer extends the contract: every ``GRAPH_PRESETS`` entry in
``algorithms/graphs.py`` is cross-checked against the stage registry in
``algorithms/stages.py`` — each stage name must be a ``_STAGE_TYPES`` key,
each pipeline must terminate in an ``ENTROPY_BACKENDS`` member, and the
graph layer must have its own round-trip test file. A preset naming a stage
that does not exist would otherwise only fail at import time of the first
consumer.

Codec modules and test files in the linted set are read from the run's own
parsed modules; the ones outside it are read from disk and declared through
:meth:`RegistryCompletenessRule.reads`, so the lint cache keys them too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.common import SyntaxIndex
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

_REGISTRY_CANDIDATES = (
    "src/repro/algorithms/registry.py",
    "repro/algorithms/registry.py",
    "algorithms/registry.py",
)

#: Round-trip tests live here, relative to the project root.
_TESTS_DIR = "tests/algorithms"


def _read(project: ProjectContext, rel: str) -> Optional[str]:
    """Text of the project file ``rel``: the run's own copy when it is
    linted, else read from disk (keyed through :meth:`Rule.reads`); ``None``
    when there is no such file."""
    ctx = project.module(rel)
    if ctx is not None:
        return ctx.source
    path = project.root / rel
    return path.read_text(encoding="utf-8") if path.exists() else None


def _parse(path: Path) -> Optional[SyntaxIndex]:
    """Index of a module outside the linted set; ``None`` if unparsable."""
    try:
        return SyntaxIndex(ast.parse(path.read_text(encoding="utf-8")))
    except (OSError, SyntaxError):
        return None


@register
class RegistryCompletenessRule(Rule):
    code = "R005"
    name = "registry-completeness"
    summary = "registered codecs need an encoder, a decoder, and a round-trip test"
    default_severity = Severity.ERROR

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        registry_ctx = self._find_registry(project)
        if registry_ctx is None:
            return []  # tree without a registry (e.g. rule fixtures): nothing to check
        entries = self._codec_entries(registry_ctx)
        if entries is None:
            return []
        findings: List[Finding] = []
        rel_dir = registry_ctx.rel.rsplit("/", 1)[0]
        for name_node, codec_name, class_name, module_stem in entries:
            if module_stem is None:
                findings.append(
                    registry_ctx.finding(
                        self,
                        name_node,
                        f"codec {codec_name!r}: factory {class_name} is not "
                        "imported from an algorithms module",
                    )
                )
                continue
            module_ctx = project.module(f"{rel_dir}/{module_stem}.py")
            module_path = registry_ctx.path.parent / f"{module_stem}.py"
            if module_ctx is None and not module_path.exists():
                findings.append(
                    registry_ctx.finding(
                        self,
                        name_node,
                        f"codec {codec_name!r}: module {module_stem}.py not found "
                        "next to the registry",
                    )
                )
                continue
            syntax = module_ctx.syntax if module_ctx is not None else _parse(module_path)
            missing = None if syntax is None else self._missing_methods(syntax, class_name)
            if missing is None:
                findings.append(
                    registry_ctx.finding(
                        self,
                        name_node,
                        f"codec {codec_name!r}: class {class_name} not defined in "
                        f"{module_stem}.py",
                    )
                )
            elif missing:
                what = " and ".join(sorted(missing))
                findings.append(
                    registry_ctx.finding(
                        self,
                        name_node,
                        f"codec {codec_name!r}: {class_name} is missing {what} — "
                        "a registry entry must both encode and decode",
                    )
                )
            test_text = _read(project, f"{_TESTS_DIR}/test_{module_stem}.py")
            if test_text is None:
                findings.append(
                    registry_ctx.finding(
                        self,
                        name_node,
                        f"codec {codec_name!r}: no round-trip test file "
                        f"tests/algorithms/test_{module_stem}.py",
                    )
                )
            elif "decompress" not in test_text:
                findings.append(
                    registry_ctx.finding(
                        self,
                        name_node,
                        f"codec {codec_name!r}: test_{module_stem}.py never calls "
                        "decompress, so the format does not round-trip under test",
                        severity=Severity.WARNING,
                    )
                )
        findings.extend(self._check_graph_presets(project, registry_ctx))
        return findings

    def reads(self, project: ProjectContext) -> Iterable[Path]:
        """The codec modules and round-trip test files :meth:`check` opens."""
        registry_ctx = self._find_registry(project)
        if registry_ctx is None:
            return []
        paths = [project.root / _TESTS_DIR / "test_graphs.py"]
        for _node, _codec, _cls, stem in self._codec_entries(registry_ctx) or ():
            if stem is not None:
                paths.append(registry_ctx.path.parent / f"{stem}.py")
                paths.append(project.root / _TESTS_DIR / f"test_{stem}.py")
        return paths

    def _check_graph_presets(
        self, project: ProjectContext, registry_ctx: ModuleContext
    ) -> List[Finding]:
        """Cross-check GRAPH_PRESETS against the stage registry, statically."""
        rel_dir = str(registry_ctx.rel).rsplit("/", 1)[0]
        graphs_ctx = project.module(f"{rel_dir}/graphs.py")
        stages_ctx = project.module(f"{rel_dir}/stages.py")
        if graphs_ctx is None or stages_ctx is None:
            return []
        findings: List[Finding] = []
        stage_names = self._dict_string_keys(stages_ctx.syntax, "_STAGE_TYPES")
        backends = self._string_tuple(stages_ctx.syntax, "ENTROPY_BACKENDS")
        presets = self._graph_presets(graphs_ctx.syntax)
        if stage_names is None or backends is None or presets is None:
            return []
        for key_node, preset_name, stages in presets:
            if not preset_name.startswith("graph-"):
                findings.append(
                    graphs_ctx.finding(
                        self,
                        key_node,
                        f"graph preset {preset_name!r} must use the 'graph-' "
                        "name prefix so registry consumers can recognize the "
                        "frame family",
                    )
                )
            unknown = [s for s in stages if s not in stage_names]
            if unknown:
                findings.append(
                    graphs_ctx.finding(
                        self,
                        key_node,
                        f"graph preset {preset_name!r} names unknown stage(s) "
                        f"{', '.join(repr(s) for s in unknown)} — not in "
                        "stages._STAGE_TYPES",
                    )
                )
            elif stages and stages[-1] not in backends:
                findings.append(
                    graphs_ctx.finding(
                        self,
                        key_node,
                        f"graph preset {preset_name!r} ends in transform "
                        f"{stages[-1]!r}; pipelines must terminate in one of "
                        f"ENTROPY_BACKENDS ({', '.join(backends)})",
                    )
                )
        test_text = _read(project, f"{_TESTS_DIR}/test_graphs.py")
        if test_text is None or "decompress" not in test_text:
            findings.append(
                graphs_ctx.finding(
                    self,
                    graphs_ctx.tree,
                    "graph presets have no round-trip test file "
                    "tests/algorithms/test_graphs.py exercising decompress",
                )
            )
        return findings

    @staticmethod
    def _assigned(syntax: SyntaxIndex, var_name: str) -> Optional[ast.AST]:
        """The value bound to module name ``var_name``: its first plain
        binding, else its first annotated one."""
        for node in syntax.nodes(ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == var_name for t in node.targets):
                return node.value
        for node in syntax.nodes(ast.AnnAssign):
            named = isinstance(node.target, ast.Name) and node.target.id == var_name
            if named and node.value is not None:
                return node.value
        return None

    @classmethod
    def _dict_string_keys(cls, syntax: SyntaxIndex, var_name: str) -> Optional[set]:
        value = cls._assigned(syntax, var_name)
        if not isinstance(value, ast.Dict):
            return None
        return {
            k.value
            for k in value.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        }

    @classmethod
    def _string_tuple(cls, syntax: SyntaxIndex, var_name: str) -> Optional[Tuple[str, ...]]:
        value = cls._assigned(syntax, var_name)
        if not isinstance(value, ast.Tuple):
            return None
        return tuple(
            e.value
            for e in value.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )

    @staticmethod
    def _graph_presets(
        syntax: SyntaxIndex,
    ) -> Optional[List[Tuple[ast.AST, str, List[str]]]]:
        """(key node, preset name, stage-name list) per GRAPH_PRESETS entry."""
        for node in syntax.nodes(ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "GRAPH_PRESETS" not in targets or not isinstance(node.value, ast.Dict):
                continue
            entries: List[Tuple[ast.AST, str, List[str]]] = []
            for key, value in zip(node.value.keys, node.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Tuple)
                ):
                    continue
                stages: List[str] = []
                for stage in value.elts:
                    if (
                        isinstance(stage, ast.Tuple)
                        and stage.elts
                        and isinstance(stage.elts[0], ast.Constant)
                        and isinstance(stage.elts[0].value, str)
                    ):
                        stages.append(stage.elts[0].value)
                entries.append((key, key.value, stages))
            return entries
        return None

    @staticmethod
    def _find_registry(project: ProjectContext) -> Optional[ModuleContext]:
        for candidate in _REGISTRY_CANDIDATES:
            ctx = project.module(candidate)
            if ctx is not None:
                return ctx
        return None

    @staticmethod
    def _codec_entries(
        registry_ctx: ModuleContext,
    ) -> Optional[List[Tuple[ast.AST, str, str, Optional[str]]]]:
        """(key node, codec name, factory class name, stem of the module the
        class is imported from or None) per ``_CODEC_FACTORIES`` entry."""
        syntax = registry_ctx.syntax
        imports: Dict[str, str] = {}  # imported class name -> module stem
        for node in syntax.nodes(ast.ImportFrom):
            if node.module:
                stem = node.module.split(".")[-1]
                for alias in node.names:
                    imports[alias.asname or alias.name] = stem
        for node in syntax.nodes(ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "_CODEC_FACTORIES" not in targets or not isinstance(node.value, ast.Dict):
                continue
            return [
                (key, key.value, value.id, imports.get(value.id))
                for key, value in zip(node.value.keys, node.value.values)
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Name)
            ]
        return None

    #: Any one of these per direction satisfies the encode/decode contract.
    _DIRECTION_METHODS = {
        "compress": ("compress", "_compress_buffer", "compress_context"),
        "decompress": ("decompress", "_decompress_buffer", "decompress_context"),
    }

    @classmethod
    def _missing_methods(cls, syntax: SyntaxIndex, class_name: str) -> Optional[set]:
        """Directions missing from {compress, decompress}; None if class absent."""
        for node in syntax.nodes(ast.ClassDef):
            if node.name == class_name:
                methods = {
                    b.name
                    for b in node.body
                    if isinstance(b, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                return {
                    direction
                    for direction, accepted in cls._DIRECTION_METHODS.items()
                    if not methods.intersection(accepted)
                }
        return None
