"""Wire-grammar extraction: the static frame-format model of every codec.

Every codec in the library frames its payload through the declarative
:class:`~repro.algorithms.container.FrameSpec` layer (R006 enforces that),
which means the *entire wire grammar* of a frame is statically recoverable
from the AST: the ``FrameSpec(...)`` declaration fixes the ordered header
fields (magic bytes, version gate, window-log guard, extra header, varint
content length with its ``max_bits``), and the ``GRAPH_PRESETS`` table plus
the stage registry fix the ``GRPH`` stage-descriptor rows.

This module symbolically evaluates those declarations — no codec code is
imported or executed — and produces one :class:`FrameGrammar` per codec
(ordered fields, widths, ``max_bits``, guard ranges, version gates, and a
layout *fingerprint* that deliberately excludes the version byte's value,
so a version bump alone never perturbs it while any width/order change
does).

The regen tool (:mod:`repro.tools.regen_grammars`) serializes the grammars
to the committed ``results/frame_grammars.json`` artifact whose drift test
makes a format change without a frame version bump fail tier-1; and the
failure injection suite derives its truncation/corruption offsets from the
same artifact so static and dynamic coverage stay linked (DESIGN.md §7.9).

Extraction is best-effort and deliberately unsound in the quiet direction:
a keyword the evaluator cannot resolve to a module constant keeps the
spec's default, never a guess.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.common import SyntaxIndex, normalize_rel, terminal_name

#: Version of the ``results/frame_grammars.json`` artifact schema.
GRAMMAR_SCHEMA_VERSION = 1

#: FrameSpec field defaults, used only when ``algorithms/container.py`` is
#: not among the analyzed modules (synthetic lint-test projects); when it
#: is, the defaults are read from its AST so the two never drift.
_FALLBACK_SPEC_DEFAULTS = {
    "magic": b"",
    "version": None,
    "has_window_log": False,
    "min_window_log": 10,
    "max_window_log": 27,
    "extra_header_bytes": 0,
    "has_length": True,
    "length_bits": 32,
    "has_checksum": True,
}

_FALLBACK_MAX_STAGES = 12
_FALLBACK_MAX_PARAMS = 4


def _module_stem(rel: str) -> str:
    return Path(rel).stem


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass
class SpecInfo:
    """One ``NAME = FrameSpec(...)`` declaration, symbolically evaluated."""

    identity: str  # "<rel>::<NAME>"
    rel: str
    name: str
    lineno: int
    params: Dict[str, object]

    @property
    def version(self) -> Optional[int]:
        version = self.params.get("version")
        return version if isinstance(version, int) else None


@dataclass
class FrameGrammar:
    """The extracted wire grammar for one registered codec frame."""

    codec: str
    spec: str  # SpecInfo.identity
    display: str
    version: Optional[int]
    #: Ordered header/body/trailer fields (see ``_spec_fields``).
    fields: List[Dict[str, object]]
    #: ``GRPH`` presets only: the static stage-descriptor rows.
    stage_table: Optional[List[Dict[str, object]]] = None

    @property
    def header_bytes(self) -> int:
        """Fixed bytes preceding the varint length (the fuzz-matrix
        preamble offset for this codec)."""
        total = 0
        for fld in self.fields:
            if fld["kind"] == "varint" or fld["name"] in ("body", "stage_table"):
                break
            total += int(fld.get("width") or 0)
        return total

    @property
    def fingerprint(self) -> str:
        """Layout fingerprint: every field property *except* the version
        byte's value, so bumping the version alone keeps the fingerprint
        stable while any width/order/max_bits change breaks it."""
        layout = []
        for fld in self.fields:
            entry = {
                key: value
                for key, value in sorted(fld.items())
                if not (fld["name"] == "version" and key == "value")
            }
            layout.append(entry)
        blob = json.dumps(layout, sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "spec": self.spec,
            "display": self.display,
            "version": self.version,
            "header_bytes": self.header_bytes,
            "fields": self.fields,
            "fingerprint": self.fingerprint,
        }
        if self.stage_table is not None:
            entry["stage_table"] = self.stage_table
        return entry


@dataclass
class GrammarIndex:
    """Everything the wire-grammar pass extracted from one project tree."""

    specs: Dict[str, SpecInfo] = field(default_factory=dict)
    grammars: Dict[str, FrameGrammar] = field(default_factory=dict)

    def to_artifact(self) -> Dict[str, object]:
        """The committed ``results/frame_grammars.json`` payload."""
        return {
            "schema": GRAMMAR_SCHEMA_VERSION,
            "grammars": {
                name: self.grammars[name].to_json()
                for name in sorted(self.grammars)
            },
        }


# ---------------------------------------------------------------------------
# Per-module symbolic environment
# ---------------------------------------------------------------------------


class _ModuleEnv:
    """Module-level constants, parsed once per module.

    Resolves ``NAME = <literal>`` assignments (including one level of
    aliasing) so spec keywords like ``magic=MAGIC`` and widths like
    ``CHECKSUM_BYTES`` evaluate without importing anything.
    """

    def __init__(self, rel: str, syntax: SyntaxIndex) -> None:
        self.rel = rel
        self.syntax = syntax
        self.tree = syntax.tree
        self.consts: Dict[str, object] = {}
        self.spec_calls: List[Tuple[str, int, ast.Call]] = []
        for stmt in self.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or len(targets) != 1:
                continue
            target = targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Constant):
                self.consts[target.id] = value.value
            elif isinstance(value, ast.Name) and value.id in self.consts:
                self.consts[target.id] = self.consts[value.id]
            elif (
                isinstance(value, ast.Call)
                and terminal_name(value.func) == "FrameSpec"
            ):
                self.spec_calls.append((target.id, stmt.lineno, value))

    def literal(self, node: ast.expr) -> object:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self.consts.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.consts.get(node.attr)
        return None


def _spec_defaults(container_env: Optional[_ModuleEnv]) -> Dict[str, object]:
    """FrameSpec field defaults, read from container.py's own AST."""
    if container_env is None:
        return dict(_FALLBACK_SPEC_DEFAULTS)
    for stmt in container_env.tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == "FrameSpec":
            defaults = dict(_FALLBACK_SPEC_DEFAULTS)
            for member in stmt.body:
                if (
                    isinstance(member, ast.AnnAssign)
                    and isinstance(member.target, ast.Name)
                    and isinstance(member.value, ast.Constant)
                ):
                    defaults[member.target.id] = member.value.value
            return defaults
    return dict(_FALLBACK_SPEC_DEFAULTS)


def _stage_limits(container_env: Optional[_ModuleEnv]) -> Tuple[int, int]:
    if container_env is None:
        return _FALLBACK_MAX_STAGES, _FALLBACK_MAX_PARAMS
    max_stages = container_env.consts.get("MAX_GRAPH_STAGES")
    max_params = container_env.consts.get("_MAX_STAGE_PARAMS")
    return (
        max_stages if isinstance(max_stages, int) else _FALLBACK_MAX_STAGES,
        max_params if isinstance(max_params, int) else _FALLBACK_MAX_PARAMS,
    )


# ---------------------------------------------------------------------------
# Grammar fields from an evaluated spec
# ---------------------------------------------------------------------------


def _spec_fields(
    params: Dict[str, object], limits: Tuple[int, int]
) -> List[Dict[str, object]]:
    """The ordered wire fields a FrameSpec declaration fixes."""
    fields: List[Dict[str, object]] = []
    magic = params.get("magic") or b""
    if isinstance(magic, (bytes, bytearray)) and magic:
        fields.append(
            {
                "name": "magic",
                "kind": "bytes",
                "width": len(magic),
                "value": bytes(magic).hex(),
            }
        )
    version = params.get("version")
    if version is not None:
        fields.append(
            {
                "name": "version",
                "kind": "u8",
                "width": 1,
                "gate": "version",
                "value": version,
            }
        )
    if params.get("has_window_log"):
        fields.append(
            {
                "name": "window_log",
                "kind": "u8",
                "width": 1,
                "guard": "{}..{}".format(
                    params.get("min_window_log"), params.get("max_window_log")
                ),
            }
        )
    extra = params.get("extra_header_bytes") or 0
    if extra:
        fields.append({"name": "extra", "kind": "bytes", "width": extra})
    if params.get("has_length"):
        fields.append(
            {
                "name": "content_length",
                "kind": "varint",
                "max_bits": params.get("length_bits"),
            }
        )
    if params.get("stage_table"):
        max_stages, max_params = limits
        fields.append(
            {
                "name": "stage_table",
                "kind": "stage-table",
                "max_stages": max_stages,
                "max_params": max_params,
            }
        )
    fields.append({"name": "body", "kind": "bytes"})
    if params.get("has_checksum"):
        fields.append({"name": "checksum", "kind": "u32le", "width": 4})
    return fields


# ---------------------------------------------------------------------------
# Graph presets (GRPH stage tables)
# ---------------------------------------------------------------------------


def _stage_wire_ids(envs: Dict[str, _ModuleEnv]) -> Dict[str, int]:
    """``stage name -> STAGE_ID`` from the stage registry's class attrs."""
    ids: Dict[str, int] = {}
    for rel, env in envs.items():
        if not normalize_rel(rel).endswith("algorithms/stages.py"):
            continue
        for stmt in env.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            name: Optional[str] = None
            stage_id: Optional[int] = None
            for member in stmt.body:
                if not isinstance(member, ast.Assign) or len(member.targets) != 1:
                    continue
                target = member.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "name" and isinstance(member.value, ast.Constant):
                    name = member.value.value
                elif target.id == "STAGE_ID" and isinstance(
                    member.value, ast.Constant
                ):
                    stage_id = member.value.value
            if isinstance(name, str) and isinstance(stage_id, int):
                ids[name] = stage_id
    return ids


def _graph_presets(env: _ModuleEnv) -> Dict[str, List[Tuple[str, List[int]]]]:
    """Evaluate a module-level ``GRAPH_PRESETS`` dict literal, if present."""
    presets: Dict[str, List[Tuple[str, List[int]]]] = {}
    for stmt in env.tree.body:
        if (
            not isinstance(stmt, ast.Assign)
            or len(stmt.targets) != 1
            or not isinstance(stmt.targets[0], ast.Name)
            or stmt.targets[0].id != "GRAPH_PRESETS"
            or not isinstance(stmt.value, ast.Dict)
        ):
            continue
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if not isinstance(key, ast.Constant) or not isinstance(
                key.value, str
            ):
                continue
            stages: List[Tuple[str, List[int]]] = []
            if isinstance(value, (ast.Tuple, ast.List)):
                for elem in value.elts:
                    if not isinstance(elem, (ast.Tuple, ast.List)) or not elem.elts:
                        continue
                    head = elem.elts[0]
                    if not isinstance(head, ast.Constant):
                        continue
                    params = [
                        p.value
                        for p in elem.elts[1:]
                        if isinstance(p, ast.Constant)
                    ]
                    stages.append((head.value, params))
            presets[key.value] = stages
    return presets


# ---------------------------------------------------------------------------
# Project-level extraction
# ---------------------------------------------------------------------------


def extract_grammar_index(
    modules: Iterable[Tuple[str, SyntaxIndex]]
) -> GrammarIndex:
    """Run the full wire-grammar pass over ``(rel, syntax index)`` modules."""
    envs: Dict[str, _ModuleEnv] = {
        rel: _ModuleEnv(rel, syntax) for rel, syntax in modules
    }
    container_env = next(
        (
            env
            for rel, env in envs.items()
            if normalize_rel(rel).endswith("algorithms/container.py")
        ),
        None,
    )
    defaults = _spec_defaults(container_env)
    limits = _stage_limits(container_env)
    index = GrammarIndex()

    # Pass 1: spec declarations, evaluated against module constants.
    specs_by_name: Dict[str, SpecInfo] = {}
    for rel, env in sorted(envs.items()):
        for name, lineno, call in env.spec_calls:
            params = dict(defaults)
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                value = env.literal(keyword.value)
                if value is not None or isinstance(keyword.value, ast.Constant):
                    params[keyword.arg] = value
            info = SpecInfo(
                identity=f"{rel}::{name}",
                rel=rel,
                name=name,
                lineno=lineno,
                params=params,
            )
            index.specs[info.identity] = info
            # Spec constant names are project-unique in practice; an
            # ambiguous name resolves to nothing rather than guessing.
            specs_by_name[name] = (
                None if name in specs_by_name else info  # type: ignore[assignment]
            )
    specs_by_name = {
        name: info for name, info in specs_by_name.items() if info is not None
    }

    # Pass 2: per-codec grammars (monolithic frames + GRPH presets).
    stage_ids = _stage_wire_ids(envs)
    for identity, spec in sorted(index.specs.items()):
        env = envs[spec.rel]
        presets = _graph_presets(env)
        if presets:
            for preset, stages in sorted(presets.items()):
                params = dict(spec.params)
                params["stage_table"] = True
                index.grammars[preset] = FrameGrammar(
                    codec=preset,
                    spec=identity,
                    display=str(spec.params.get("display") or spec.name),
                    version=spec.version,
                    fields=_spec_fields(params, limits),
                    stage_table=[
                        {
                            "stage": stage,
                            "stage_id": stage_ids.get(stage),
                            "params": stage_params,
                        }
                        for stage, stage_params in stages
                    ],
                )
            continue
        codec = _codec_name(env, spec)
        index.grammars[codec] = FrameGrammar(
            codec=codec,
            spec=identity,
            display=str(spec.params.get("display") or spec.name),
            version=spec.version,
            fields=_spec_fields(spec.params, limits),
        )
    return index


def _codec_name(env: _ModuleEnv, spec: SpecInfo) -> str:
    """The registry name for a spec's codec: the module's ``CodecInfo``
    name literal when it declares exactly one, else the module stem."""
    names: List[str] = []
    for node in env.syntax.walk(env.tree):
        if isinstance(node, ast.Call) and terminal_name(node.func) == "CodecInfo":
            for keyword in node.keywords:
                if keyword.arg == "name" and isinstance(
                    keyword.value, ast.Constant
                ):
                    names.append(keyword.value.value)
    if len(names) == 1:
        return names[0]
    return _module_stem(spec.rel).replace("_", "-")


# ---------------------------------------------------------------------------
# Standalone entry points (regen tool, drift test, fuzz matrix)
# ---------------------------------------------------------------------------


def iter_source_modules(root: Path) -> Iterable[Tuple[str, ast.Module]]:
    """Parse every first-party module under ``root/src/repro``."""
    base = Path(root) / "src" / "repro"
    for path in sorted(base.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        yield rel, tree


def extract_project_grammars(root: Path) -> GrammarIndex:
    """Extract the grammar index for the tree rooted at ``root``."""
    return extract_grammar_index(
        (rel, SyntaxIndex(tree)) for rel, tree in iter_source_modules(root)
    )


def load_grammar_artifact(root: Path) -> Dict[str, object]:
    """Read the committed ``results/frame_grammars.json`` artifact."""
    path = Path(root) / "results" / "frame_grammars.json"
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
