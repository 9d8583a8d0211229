"""Wire-grammar extraction: the static frame-format model behind R014-R016.

Every codec in the library frames its payload through the declarative
:class:`~repro.algorithms.container.FrameSpec` layer (R006 enforces that),
which means the *entire wire grammar* of a frame is statically recoverable
from the AST: the ``FrameSpec(...)`` declaration fixes the ordered header
fields (magic bytes, version gate, window-log guard, extra header, varint
content length with its ``max_bits``), the ``GRAPH_PRESETS`` table plus the
stage registry fix the ``GRPH`` stage-descriptor rows, and the call sites of
``encode_preamble()`` / ``decode_preamble()`` / ``try_decode_preamble()``
mark exactly where each codec writes and reads that header.

This module symbolically evaluates those declarations — no codec code is
imported or executed — and produces:

* :class:`FrameGrammar` per codec (ordered fields, widths, ``max_bits``,
  guard ranges, version gates, and a layout *fingerprint* that deliberately
  excludes the version byte's value, so a version bump alone never perturbs
  it while any width/order change does);
* :class:`SurfaceRec` per encode/decode call site, each with a
  *header-window trace*: the sequence of raw wire operations
  (``encode_varint``/``decode_varint``, stage-descriptor tables,
  const-width ``to_bytes``/``from_bytes``) that the surrounding code applies
  immediately after the preamble call, before opaque body bytes begin;
* per-module CRC-32C evidence (``append_content_checksum`` /
  ``to_bytes(CHECKSUM_BYTES, ...)`` emits, ``verify_content_checksum`` /
  ``verify_running_checksum`` verifies).

Rule R014 consumes all three to prove encoder/decoder symmetry; the regen
tool (:mod:`repro.tools.regen_grammars`) serializes the grammars to the
committed ``results/frame_grammars.json`` artifact whose drift test makes a
format change without a frame version bump fail tier-1; and the failure
injection suite derives its truncation/corruption offsets from the same
artifact so static and dynamic coverage stay linked (DESIGN.md §7.9).

Soundness stance matches the rest of the flow package: extraction is
best-effort and deliberately unsound in the quiet direction — a receiver the
resolver cannot tie to a known spec constant is skipped, never guessed.
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

#: Methods on a FrameSpec constant that put header bytes on the wire.
_WRITE_METHODS = frozenset({"encode_preamble"})
#: Methods on a FrameSpec constant that consume header bytes off the wire.
_READ_METHODS = frozenset({"decode_preamble", "try_decode_preamble"})

#: Raw wire-write primitives -> the field kind they emit.
_WRITE_OPS = {
    "encode_varint": "varint",
    "encode_stage_descriptors": "stage-table",
}
#: Raw wire-read primitives -> the field kind they consume.
_READ_OPS = {
    "decode_varint": "varint",
    "try_decode_varint": "varint",
    "try_decode_stage_descriptors": "stage-table",
}

#: CRC-32C trailer evidence: callables that emit / verify the trailer.
_CHECKSUM_EMITS = frozenset({"append_content_checksum"})
_CHECKSUM_VERIFIES = frozenset(
    {"verify_content_checksum", "verify_running_checksum"}
)

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


def _receiver_name(func: ast.AST) -> Optional[str]:
    """Terminal constant name of a method call's receiver (``X`` in
    ``X.encode_preamble``, ``container.X.encode_preamble``)."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


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
    def has_checksum(self) -> bool:
        return bool(self.params.get("has_checksum"))

    @property
    def version(self) -> Optional[int]:
        version = self.params.get("version")
        return version if isinstance(version, int) else None


@dataclass
class SurfaceRec:
    """One encode/decode call site of a spec constant."""

    rel: str
    lineno: int
    func: str  # enclosing function qualname, or "<module>"
    spec: str  # SpecInfo.identity
    kind: str  # "write" | "read"
    #: Ordered raw wire ops applied right after the preamble call, before
    #: opaque body bytes: ("varint",) | ("stage-table",) | ("fixed", width).
    trace: Tuple[Tuple[object, ...], ...] = ()


@dataclass
class ChecksumEvidence:
    """CRC-32C trailer handling observed in one module."""

    emit_lines: List[int] = field(default_factory=list)
    verify_lines: List[int] = field(default_factory=list)


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
    surfaces: List[SurfaceRec] = field(default_factory=list)
    checksum_evidence: Dict[str, ChecksumEvidence] = field(default_factory=dict)
    grammars: Dict[str, FrameGrammar] = field(default_factory=dict)

    def surfaces_for(self, identity: str, kind: str) -> List[SurfaceRec]:
        return [
            s for s in self.surfaces if s.spec == identity and s.kind == kind
        ]

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

    def const_int(self, node: ast.expr) -> Optional[int]:
        value = self.literal(node)
        return value if isinstance(value, int) and not isinstance(value, bool) else None

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
# Surfaces and header-window traces
# ---------------------------------------------------------------------------


def _enclosing_statement(node: ast.AST, syntax: SyntaxIndex) -> Optional[ast.stmt]:
    cur: Optional[ast.AST] = node
    while cur is not None and not isinstance(cur, ast.stmt):
        cur = syntax.parent(cur)
    return cur


def _statement_slot(
    stmt: Optional[ast.stmt], syntax: SyntaxIndex
) -> Optional[Tuple[List[ast.stmt], int]]:
    parent = syntax.parent(stmt) if stmt is not None else None
    if parent is None:
        return None
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(parent, attr, None)
        if isinstance(block, list) and stmt in block:
            return block, block.index(stmt)
    return None


def _wire_op(
    expr: ast.expr, kind: str, env: _ModuleEnv
) -> Optional[Tuple[object, ...]]:
    """Classify one expression as a raw wire op, or ``None``."""
    if not isinstance(expr, ast.Call):
        return None
    name = terminal_name(expr.func)
    if name is None:
        return None
    table = _WRITE_OPS if kind == "write" else _READ_OPS
    if name in table:
        return (table[name],)
    if kind == "write" and name == "to_bytes" and isinstance(expr.func, ast.Attribute):
        width = env.const_int(expr.args[0]) if expr.args else None
        return ("fixed", width)
    if kind == "read" and name == "from_bytes" and isinstance(expr.func, ast.Attribute):
        width = _slice_width(expr.args[0], env) if expr.args else None
        return ("fixed", width)
    return None


def _slice_width(expr: ast.expr, env: _ModuleEnv) -> Optional[int]:
    """Constant width of ``buf[a : a + K]`` / ``buf[:K]`` shapes."""
    if not isinstance(expr, ast.Subscript):
        return None
    sl = expr.slice
    if not isinstance(sl, ast.Slice) or sl.step is not None:
        return None
    lower, upper = sl.lower, sl.upper
    if lower is None:
        return env.const_int(upper) if upper is not None else None
    low = env.const_int(lower)
    high = env.const_int(upper) if upper is not None else None
    if low is not None and high is not None:
        return high - low
    if (
        isinstance(upper, ast.BinOp)
        and isinstance(upper.op, ast.Add)
        and ast.dump(upper.left) == ast.dump(lower)
    ):
        return env.const_int(upper.right)
    return None


def _scan_operand(
    expr: ast.expr, kind: str, env: _ModuleEnv
) -> Tuple[List[Tuple[object, ...]], bool]:
    """Wire ops contributed by one concatenation operand.

    Returns ``(ops, terminal)``; ``terminal`` means opaque body bytes were
    reached and the header window is over.
    """
    op = _wire_op(expr, kind, env)
    if op is not None:
        return [op], False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left, stop = _scan_operand(expr.left, kind, env)
        if stop:
            return left, True
        right, stop = _scan_operand(expr.right, kind, env)
        return left + right, stop
    return [], True


def _expression_trace(
    call: ast.Call, kind: str, env: _ModuleEnv
) -> Tuple[List[Tuple[object, ...]], bool]:
    """Wire ops concatenated after the preamble call in its own expression."""
    ops: List[Tuple[object, ...]] = []
    cur: ast.AST = call
    parent = env.syntax.parent(cur)
    while parent is not None and not isinstance(cur, ast.stmt):
        if (
            isinstance(parent, ast.BinOp)
            and isinstance(parent.op, ast.Add)
            and parent.left is cur
        ):
            got, stop = _scan_operand(parent.right, kind, env)
            ops.extend(got)
            if stop:
                return ops, True
        cur, parent = parent, env.syntax.parent(parent)
    return ops, False


def _statement_trace(
    stmt: ast.stmt, kind: str, env: _ModuleEnv
) -> Optional[List[Tuple[object, ...]]]:
    """Wire ops a trailing statement appends to the header, or ``None``
    when the statement is not pure wire output and the window closes."""
    value: Optional[ast.expr] = None
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "extend")
            and len(stmt.value.args) == 1
        ):
            value = stmt.value.args[0]
    if value is None:
        return None
    ops, stop = _scan_operand(value, kind, env)
    return ops if ops and not stop else None


def _qualname_of(call: ast.Call, syntax: SyntaxIndex) -> str:
    names: List[str] = []
    cur: Optional[ast.AST] = call
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(cur.name)
        cur = syntax.parent(cur)
    return ".".join(reversed(names)) or "<module>"


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

    # Pass 2: surfaces with header-window traces + checksum evidence.
    for rel, env in sorted(envs.items()):
        evidence = ChecksumEvidence()
        for node in env.syntax.walk(env.tree):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name in _CHECKSUM_EMITS:
                evidence.emit_lines.append(node.lineno)
            elif name in _CHECKSUM_VERIFIES:
                evidence.verify_lines.append(node.lineno)
            elif name == "to_bytes" and isinstance(node.func, ast.Attribute):
                width = node.args[0] if node.args else None
                if isinstance(width, ast.Name) and width.id == "CHECKSUM_BYTES":
                    evidence.emit_lines.append(node.lineno)
            if name not in _WRITE_METHODS and name not in _READ_METHODS:
                continue
            receiver = _receiver_name(node.func)
            if receiver is None:
                continue
            spec = specs_by_name.get(receiver)
            if spec is None:
                continue
            kind = "write" if name in _WRITE_METHODS else "read"
            ops, stop = _expression_trace(node, kind, env)
            if not stop:
                stmt = _enclosing_statement(node, env.syntax)
                slot = _statement_slot(stmt, env.syntax)
                if slot is not None:
                    block, idx = slot
                    for following in block[idx + 1 :]:
                        got = _statement_trace(following, kind, env)
                        if got is None:
                            break
                        ops.extend(got)
            index.surfaces.append(
                SurfaceRec(
                    rel=rel,
                    lineno=node.lineno,
                    func=_qualname_of(node, env.syntax),
                    spec=spec.identity,
                    kind=kind,
                    trace=tuple(ops),
                )
            )
        if evidence.emit_lines or evidence.verify_lines:
            index.checksum_evidence[rel] = evidence

    # Pass 3: per-codec grammars (monolithic frames + GRPH presets).
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
