"""Taint analysis: untrusted integers must be bounds-checked before use.

The CDPU paper gets decoder safety from bounded datapaths (§5: the LZ77
unit's copy engine physically cannot read past its history SRAM). The
software equivalent is a dataflow property: an integer decoded from the
untrusted stream (varint preambles, ``int.from_bytes`` reassembly,
``struct.unpack``, wide bit-reader fields) may only reach a slice bound,
``range()`` limit, allocation size, or ``bytes * n`` repeat count *after* a
comparison against a buffer length or a documented limit dominates the use.

The analysis is a forward abstract interpretation over the function CFG:

* every variable carries one of two taint kinds — ``tainted`` (an untrusted
  *integer*, the dangerous kind: it scales memory or work) or
  ``taintedbytes`` (untrusted *bytes*, which are inert: slicing clamps and
  allocation is bounded by the input size);
* ``lenlike`` names hold ``len()``-derived values and qualify as bounds;
* ``checked`` names have an upper bound established on every path reaching
  the current point (used by R009 for index guards);
* ``lenchecked`` buffers had their ``len()`` (or truthiness) tested on a
  dominating edge, with the *proven minimum length* recorded — ``if
  len(data) < 2: raise`` proves two leading bytes on the fall-through edge,
  which guards ``data[0]``/``data[1]`` but not ``data[2]``;
* ``derived`` records arithmetic provenance (``packed = (count*18+7)//8``),
  so bounding the derived name transitively discharges its sources;
* branch edges *refine* facts: on the edge where ``length > len(buf) - pos``
  is false, ``length`` becomes checked and loses its taint. Short-circuit
  operands and conditional expressions refine too (``if not buf or buf[0]``
  guards the read).

Deliberate unsoundness (DESIGN.md §7.4), traded for actionable findings:

* single-byte loads (``data[pos]``) are *not* taint sources — a byte is at
  most 255 and every format in the tree bounds its per-element fields
  structurally;
* bit-reader ``read``/``peek`` results taint only at constant widths of
  :data:`WIDE_READ_BITS` bits or more — narrower and variable-width fields
  feed entropy-code reconstruction where :class:`~repro.common.bitio.
  BitReader` raises on underflow and per-field amplification is capped;
* results of unresolved calls are treated as clean rather than guessed;
* frame-preamble fields that :class:`~repro.algorithms.container.FrameSpec`
  validates structurally (``window_log``, ``version``) are clean — only the
  declared ``content_length`` family stays untrusted.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.lint.common import SyntaxIndex
from repro.lint.flow.cfg import CFG, Cond, ExceptBind, Item, scan_expr
from repro.lint.flow.dataflow import bound_names, canonical_name, used_names

#: Variable-name shapes that hold untrusted stream bytes.
BUFFER_NAME = re.compile(
    r"(^|_)(data|stream|payload|buf|buffer|compressed|frame|blob|raw|pending|chunk)s?($|_)",
    re.IGNORECASE,
)

#: Call targets (terminal attribute/function name) returning untrusted
#: integers. The value is the per-tuple-element taint pattern; ``None``
#: means "everything the call returns is tainted".
TAINT_SOURCES: Dict[str, Optional[Tuple[bool, ...]]] = {
    "decode_varint": (True, False),  # (value, next_pos): the cursor is clean
    "try_decode_varint": (True, False),
    "decode_preamble": (True, False),
    "try_decode_preamble": (True, False),
    "from_bytes": None,
    "unpack": None,
    "unpack_from": None,
}

#: Preamble attributes validated by FrameSpec itself before it returns, so
#: reading them off a tainted preamble object yields a *clean* value
#: (``window``/``window_log`` are range-checked in ``decode_preamble``; only
#: the declared ``content_length`` family stays untrusted).
PREAMBLE_CLEAN_ATTRS = frozenset({"window_log", "window", "version", "magic", "extra"})

#: A ``reader.read(k)``/``peek(k)`` result is tainted only for constant
#: ``k >= WIDE_READ_BITS`` (a multi-byte quantity worth bounding); narrower
#: and variable-width fields are structurally capped by the format.
WIDE_READ_BITS = 24

_BIT_READS = {"read", "peek", "peek_padded"}

#: Calls that *cap* their result when any argument is trusted.
_CAPPING_CALLS = {"min"}


def is_buffer_name(name: str) -> bool:
    """Whether a canonical name looks like an untrusted byte buffer."""
    terminal = name.split(".")[-1]
    return bool(BUFFER_NAME.search(terminal))


def _callee_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


@dataclass
class _Fact:
    """Abstract value of one expression: (untrusted int, len-like, untrusted bytes)."""

    tainted: bool = False
    lenlike: bool = False
    bytes_: bool = False


_CLEAN = _Fact()


@dataclass
class Env:
    """Abstract state at one program point."""

    tainted: Set[str] = field(default_factory=set)
    taintedbytes: Set[str] = field(default_factory=set)
    lenlike: Set[str] = field(default_factory=set)
    checked: Set[str] = field(default_factory=set)
    #: Buffer name -> proven minimum length (elements known to exist).
    lenchecked: Dict[str, int] = field(default_factory=dict)
    #: Names currently bound to a tuple with per-element taint.
    tuples: Dict[str, Tuple[bool, ...]] = field(default_factory=dict)
    #: Arithmetic provenance: name -> tainted names it was computed from.
    derived: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    corrupt_guard: bool = False

    def copy(self) -> "Env":
        return Env(
            tainted=set(self.tainted),
            taintedbytes=set(self.taintedbytes),
            lenlike=set(self.lenlike),
            checked=set(self.checked),
            lenchecked=dict(self.lenchecked),
            tuples=dict(self.tuples),
            derived=dict(self.derived),
            corrupt_guard=self.corrupt_guard,
        )

    def merge(self, other: "Env") -> "Env":
        return Env(
            tainted=self.tainted | other.tainted,
            taintedbytes=self.taintedbytes | other.taintedbytes,
            lenlike=self.lenlike & other.lenlike,
            checked=self.checked & other.checked,
            lenchecked={
                k: min(v, other.lenchecked[k])
                for k, v in self.lenchecked.items()
                if k in other.lenchecked
            },
            tuples={k: v for k, v in self.tuples.items() if other.tuples.get(k) == v},
            derived={
                k: v for k, v in self.derived.items() if other.derived.get(k) == v
            },
            corrupt_guard=self.corrupt_guard and other.corrupt_guard,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Env):
            return NotImplemented
        return (
            self.tainted == other.tainted
            and self.taintedbytes == other.taintedbytes
            and self.lenlike == other.lenlike
            and self.checked == other.checked
            and self.lenchecked == other.lenchecked
            and self.tuples == other.tuples
            and self.derived == other.derived
            and self.corrupt_guard == other.corrupt_guard
        )

    # -- expression evaluation ---------------------------------------------

    def expr_tainted(self, expr: ast.AST) -> bool:
        """Whether evaluating ``expr`` can yield an unchecked untrusted int."""
        return self._eval(expr).tainted

    def expr_lenlike(self, expr: ast.AST) -> bool:
        return self._eval(expr).lenlike

    def expr_taintedbytes(self, expr: ast.AST) -> bool:
        return self._eval(expr).bytes_

    def _eval(self, expr: ast.AST) -> _Fact:
        if isinstance(expr, ast.Constant):
            return _CLEAN
        name = canonical_name(expr)
        if name is not None:
            return _Fact(
                tainted=name in self.tainted,
                lenlike=name in self.lenlike,
                bytes_=name in self.taintedbytes,
            )
        if isinstance(expr, ast.Attribute):
            # Fields of a tainted object (frame preambles) are tainted ints,
            # except the ones FrameSpec validates before returning.
            base = self._eval(expr.value)
            if base.tainted and expr.attr not in PREAMBLE_CLEAN_ATTRS:
                return _Fact(tainted=True)
            return _CLEAN
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            tainted = left.tainted or right.tainted
            if isinstance(expr.op, ast.Mult) and (
                self._bytes_typed(expr.left) or self._bytes_typed(expr.right)
            ):
                # ``bytes * n`` yields bytes: an untrusted *value*, not an
                # untrusted length — the repeat sink fires at this site, but
                # the result must not poison downstream size positions.
                return _Fact(bytes_=tainted or left.bytes_ or right.bytes_)
            return _Fact(
                tainted=tainted,
                lenlike=(left.lenlike or right.lenlike) and not tainted,
                bytes_=left.bytes_ or right.bytes_,
            )
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.IfExp):
            body = self._eval(expr.body)
            orelse = self._eval(expr.orelse)
            return _Fact(
                tainted=body.tainted or orelse.tainted,
                lenlike=body.lenlike and orelse.lenlike,
                bytes_=body.bytes_ or orelse.bytes_,
            )
        if isinstance(expr, (ast.Tuple, ast.List)):
            evaluated = [self._eval(e) for e in expr.elts]
            return _Fact(
                tainted=any(f.tainted for f in evaluated),
                bytes_=any(f.bytes_ for f in evaluated),
            )
        if isinstance(expr, ast.NamedExpr):
            return self._eval(expr.value)
        # Comparisons, comprehensions, f-strings, lambdas...: treat as clean
        # rather than guessing (DESIGN.md §7.4 soundness trade).
        return _CLEAN

    def _bytes_typed(self, expr: ast.AST) -> bool:
        """Whether ``expr`` is syntactically a bytes/str value."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, (bytes, str)):
            return True
        if isinstance(expr, ast.Call) and _callee_name(expr) in {"bytes", "bytearray"}:
            return True
        name = canonical_name(expr)
        if name is not None and (name in self.taintedbytes or is_buffer_name(name)):
            return True
        return self._eval(expr).bytes_ if not isinstance(expr, ast.BinOp) else False

    def _eval_subscript(self, expr: ast.Subscript) -> _Fact:
        base = canonical_name(expr.value)
        if base is not None and base in self.tuples and isinstance(
            expr.slice, ast.Constant
        ):
            index = expr.slice.value
            pattern = self.tuples[base]
            if isinstance(index, int) and 0 <= index < len(pattern):
                return _Fact(tainted=pattern[index])
        base_fact = self._eval(expr.value)
        untrusted_base = base_fact.bytes_ or (base is not None and is_buffer_name(base))
        if untrusted_base:
            if isinstance(expr.slice, ast.Slice):
                return _Fact(bytes_=True)  # a byte slice is untrusted bytes
            return _CLEAN  # single byte: bounded at 255 by the type
        if base_fact.tainted:
            # Element of an untrusted container (unpack tuples, decoded lists).
            return _Fact(tainted=not isinstance(expr.slice, ast.Slice))
        return _CLEAN

    def _eval_call(self, call: ast.Call) -> _Fact:
        callee = _callee_name(call)
        if callee == "len":
            return _Fact(lenlike=True)
        if callee in _CAPPING_CALLS:
            facts = [self._eval(arg) for arg in call.args]
            if any(not f.tainted for f in facts):
                return _Fact(lenlike=any(f.lenlike for f in facts))
            return _Fact(tainted=True)
        if callee == "max":
            return _Fact(tainted=any(self._eval(arg).tainted for arg in call.args))
        if callee in TAINT_SOURCES:
            return _Fact(tainted=True)
        if callee in _BIT_READS:
            return _Fact(tainted=_is_wide_read(call))
        if callee in {"int", "abs", "float"}:
            return _Fact(tainted=any(self._eval(arg).tainted for arg in call.args))
        if callee in {"bytes", "bytearray", "memoryview"}:
            return _Fact(bytes_=any(self._eval(arg).bytes_ for arg in call.args))
        # Unresolved call: clean (quiet, not noisy — see module docstring).
        return _CLEAN


def _is_wide_read(call: ast.Call) -> bool:
    """Whether a bit-reader ``read``/``peek`` pulls a wide (tainted) field."""
    if not call.args:
        return False
    width = call.args[0]
    if isinstance(width, ast.Constant) and isinstance(width.value, int):
        return width.value >= WIDE_READ_BITS
    return False  # variable-width entropy fields: structurally capped


def is_taint_source(call: ast.Call) -> bool:
    """Whether ``call`` is tainted whatever its arguments hold. Only these
    calls start taint: a function without one (and without tainted
    parameters) has no tainted value anywhere, so it has no sink and no
    tainted argument. A zero-argument ``min()`` (numpy's ``arr.min()``)
    counts, because :meth:`Env._eval_call` reads it as a cap whose every
    argument is tainted."""
    callee = _callee_name(call)
    if callee in _CAPPING_CALLS:
        return not call.args
    return callee in TAINT_SOURCES or (callee in _BIT_READS and _is_wide_read(call))


def _tuple_pattern(call: ast.Call) -> Optional[Tuple[bool, ...]]:
    callee = _callee_name(call)
    if callee in TAINT_SOURCES:
        return TAINT_SOURCES[callee]
    return None


@dataclass(frozen=True)
class SinkRec:
    """One use of an unchecked untrusted value at a dangerous position."""

    lineno: int
    col: int
    kind: str  # "slice-bound" | "range-limit" | "allocation" | "repeat"
    names: Tuple[str, ...]  # tainted names feeding the sink


@dataclass(frozen=True)
class ReadSiteRec:
    """One direct ``buf[i]`` read, with its guardedness verdict."""

    lineno: int
    col: int
    base: str
    guarded: bool
    reason: str  # why it is (or is not) considered guarded


@dataclass
class TaintScan:
    """Everything one replay of a solved CFG reports (:meth:`TaintAnalysis.scan`).

    Plain data, so it rides in the picklable function summaries as is.
    """

    sinks: List[SinkRec]
    read_sites: List[ReadSiteRec]


class TaintAnalysis:
    """Solved taint facts for one function CFG."""

    def __init__(self, cfg: CFG, env_in: Dict[int, Env], converged: bool) -> None:
        self.cfg = cfg
        self._env_in = env_in
        self.converged = converged

    def scan(self) -> TaintScan:
        """Sinks and buffer read sites, from one replay of the solved facts
        over every item.

        Both are judged under the environment refined mid-expression
        (:func:`_refined_walk`), and each is reported once per source
        position.
        """
        sinks: Dict[Tuple[int, int], SinkRec] = {}
        sites: Dict[Tuple[int, int], ReadSiteRec] = {}
        cfg = self.cfg
        syntax = cfg.syntax
        for block in cfg.blocks:
            env = self._env_in.get(block.id, Env()).copy()
            for item in block.items:
                target = scan_expr(item)
                if target is not None:
                    for sub, sub_env in _refined_walk(target, env, syntax):
                        hit = _sink_at(sub, sub_env, syntax)
                        if hit is not None:
                            sinks.setdefault((hit.lineno, hit.col), hit)
                        site = _read_site(sub, sub_env, syntax)
                        if site is not None and (site.lineno, site.col) not in sites:
                            if not site.guarded and _in_translating_try(cfg, block.id):
                                site = replace(
                                    site, guarded=True, reason="inside an IndexError-translating try"
                                )
                            sites[site.lineno, site.col] = site
                env = _transfer_item(env, item, syntax)
        return TaintScan(list(sinks.values()), list(sites.values()))


def _read_site(sub: ast.AST, env: Env, syntax: SyntaxIndex) -> Optional[ReadSiteRec]:
    """The verdict on ``sub`` if it is a direct read of a buffer-shaped
    name. A read ``buf[i]`` is guarded when any of these dominates it:

    * the index is a constant *covered by the proven minimum length* — a
      dominating ``len(buf) >= K`` (or truthiness, K=1) check admits
      ``buf[0]``..``buf[K-1]`` and ``buf[-1]``..``buf[-K]``, nothing more;
    * every name in the index expression is :attr:`Env.checked` (a bounds
      comparison held on all paths here);
    * a CorruptStreamError-raising validation branched off on every path
      (``corrupt_guard``), the weaker "validated before reading" form —
      unless a known proven length *contradicts* the constant index (a
      ``len(data) < 2`` guard does not vouch for ``data[2]``);
    * the read sits inside a ``try`` that translates IndexError into
      CorruptStreamError (judged per block by the caller).
    """
    if not isinstance(sub, ast.Subscript):
        return None
    if not isinstance(sub.ctx, ast.Load) or isinstance(sub.slice, ast.Slice):
        return None
    base = canonical_name(sub.value)
    if base is None or not is_buffer_name(base):
        return None
    names = used_names(sub.slice, syntax)
    const_index = isinstance(sub.slice, ast.Constant) and isinstance(sub.slice.value, int)
    minlen = env.lenchecked.get(base, 0)
    if const_index and _constant_covered(sub.slice.value, minlen):
        guarded, reason = True, "constant index with a dominating len() check"
    elif names and names <= (env.checked | env.lenlike):
        guarded, reason = True, "index bounds-checked on every path"
    elif env.corrupt_guard and not (const_index and minlen > 0):
        guarded, reason = True, "dominated by a CorruptStreamError check"
    else:
        guarded, reason = False, "no dominating bounds check"
    return ReadSiteRec(sub.lineno, sub.col_offset, base, guarded, reason)


def _refined_walk(
    expr: ast.AST, env: Env, syntax: SyntaxIndex
) -> Iterator[Tuple[ast.AST, Env]]:
    """Walk an expression yielding each node with its *refined* environment.

    Short-circuit semantics refine facts mid-expression: in
    ``not buf or buf[0] != magic`` the second operand only evaluates when
    the first is false, so ``buf`` is known non-empty there. The same holds
    for ``and`` chains and for the arms of a conditional expression.
    """
    yield expr, env
    if isinstance(expr, ast.BoolOp):
        running = env
        for operand in expr.values:
            yield from _refined_walk(operand, running, syntax)
            running = _refine(running, (operand, isinstance(expr.op, ast.And)), syntax)
        return
    if isinstance(expr, ast.IfExp):
        yield from _refined_walk(expr.test, env, syntax)
        yield from _refined_walk(expr.body, _refine(env, (expr.test, True), syntax), syntax)
        yield from _refined_walk(
            expr.orelse, _refine(env, (expr.test, False), syntax), syntax
        )
        return
    for child in syntax.children(expr):
        yield from _refined_walk(child, env, syntax)


def _tainted_in(expr: Optional[ast.AST], env: Env, syntax: SyntaxIndex) -> Tuple[str, ...]:
    if expr is None or not env.expr_tainted(expr):
        return ()
    names = tuple(sorted(n for n in used_names(expr, syntax) if n in env.tainted))
    return names or ("<expr>",)


def _bytes_like(expr: ast.AST, env: Env) -> bool:
    """Whether ``expr`` is a bytes/str value (repeat-sink multiplicand)."""
    return env._bytes_typed(expr)


def _sink_at(sub: ast.AST, env: Env, syntax: SyntaxIndex) -> Optional[SinkRec]:
    if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Slice):
        for bound in (sub.slice.lower, sub.slice.upper, sub.slice.step):
            names = _tainted_in(bound, env, syntax)
            if names:
                return SinkRec(sub.lineno, sub.col_offset, "slice-bound", names)
    elif isinstance(sub, ast.Call):
        callee = _callee_name(sub)
        if callee == "range" and sub.args:
            for arg in sub.args:
                names = _tainted_in(arg, env, syntax)
                if names:
                    return SinkRec(sub.lineno, sub.col_offset, "range-limit", names)
        elif callee in {"bytearray", "bytes"} and len(sub.args) == 1:
            names = _tainted_in(sub.args[0], env, syntax)
            if names:
                return SinkRec(sub.lineno, sub.col_offset, "allocation", names)
    elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult):
        sides = (sub.left, sub.right)
        for this, other in (sides, sides[::-1]):
            if _bytes_like(this, env):
                names = _tainted_in(other, env, syntax)
                if names:
                    return SinkRec(sub.lineno, sub.col_offset, "repeat", names)
                break
    return None


def _kill(env: Env, name: str, _seen: Optional[Set[str]] = None) -> None:
    """Discharge taint on ``name`` and, transitively, its arithmetic sources."""
    _seen = _seen if _seen is not None else set()
    if name in _seen:
        return
    _seen.add(name)
    env.tainted.discard(name)
    env.checked.add(name)
    for source in env.derived.get(name, frozenset()):
        _kill(env, source, _seen)


def _refine(env: Env, cond: Cond, syntax: SyntaxIndex) -> Env:
    env = env.copy()
    _apply_cond(env, cond[0], cond[1], syntax)
    return env


def _apply_cond(env: Env, test: ast.expr, value: bool, syntax: SyntaxIndex) -> None:
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        _apply_cond(env, test.operand, not value, syntax)
        return
    if isinstance(test, ast.BoolOp):
        if isinstance(test.op, ast.And) and value:
            for operand in test.values:
                _apply_cond(env, operand, True, syntax)
        elif isinstance(test.op, ast.Or) and not value:
            for operand in test.values:
                _apply_cond(env, operand, False, syntax)
        return
    # Truthiness of a buffer (``if data:`` / the false edge of ``if not
    # data:``) proves it non-empty, guarding reads of ``data[0]``.
    if value:
        name = canonical_name(test)
        if name is not None and is_buffer_name(name):
            _prove_len(env, name, 1)
        if (
            isinstance(test, ast.Call)
            and _callee_name(test) == "len"
            and test.args
        ):
            buf = canonical_name(test.args[0])
            if buf is not None:
                _prove_len(env, buf, 1)
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return
    left, op, right = test.left, test.ops[0], test.comparators[0]
    # (small side, big side, small-strictly-below-big).
    pairs: List[Tuple[ast.expr, ast.expr, bool]] = []
    if isinstance(op, (ast.Lt, ast.LtE)):
        if value:
            pairs.append((left, right, isinstance(op, ast.Lt)))
        else:
            pairs.append((right, left, isinstance(op, ast.LtE)))
    elif isinstance(op, (ast.Gt, ast.GtE)):
        if value:
            pairs.append((right, left, isinstance(op, ast.Gt)))
        else:
            pairs.append((left, right, isinstance(op, ast.GtE)))
    elif (isinstance(op, ast.Eq) and value) or (isinstance(op, ast.NotEq) and not value):
        pairs.extend([(left, right, False), (right, left, False)])
    for small, big, strict in pairs:
        if env.expr_tainted(big):
            continue  # comparing against another untrusted value proves nothing
        for name in used_names(small, syntax):
            _kill(env, name)
        # ``K <(=) len(buf)`` proves ``buf`` holds at least K(+1) elements;
        # a ``len()`` buried in arithmetic (``len(buf) - pos``) or on the
        # small side only proves it was *examined*, worth one element.
        bound = 1
        if (
            isinstance(big, ast.Call)
            and _callee_name(big) == "len"
            and big.args
            and isinstance(small, ast.Constant)
            and isinstance(small.value, int)
            and small.value >= 0
        ):
            bound = small.value + (1 if strict else 0)
        for buf in _len_arguments(big, syntax):
            _prove_len(env, buf, bound)
        for buf in _len_arguments(small, syntax):
            _prove_len(env, buf, 1)


def _prove_len(env: Env, buf: str, minlen: int) -> None:
    if minlen > env.lenchecked.get(buf, 0):
        env.lenchecked[buf] = minlen


def _len_arguments(expr: ast.AST, syntax: SyntaxIndex) -> Iterator[str]:
    for node in syntax.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and node.args
        ):
            name = canonical_name(node.args[0])
            if name is not None:
                yield name


def _transfer_item(env: Env, item: Item, syntax: SyntaxIndex) -> Env:
    env = env.copy()
    node = item.node
    if isinstance(item, ExceptBind):
        for name in bound_names(item, syntax):
            _rebind(env, name)
        return env
    if isinstance(node, ast.Assign):
        _transfer_assign(env, node.targets, node.value)
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        _transfer_assign(env, [node.target], node.value)
    elif isinstance(node, ast.AugAssign):
        target = canonical_name(node.target)
        if target is not None:
            value_fact = env._eval(node.value)
            tainted = target in env.tainted or value_fact.tainted
            bytes_ = target in env.taintedbytes or value_fact.bytes_
            _rebind(env, target)
            if tainted:
                env.tainted.add(target)
            if bytes_:
                env.taintedbytes.add(target)
    elif isinstance(node, ast.Assert):
        _apply_cond(env, node.test, True, syntax)
    else:
        iter_expr = node.iter if isinstance(node, (ast.For, ast.AsyncFor)) else None
        iter_fact = env._eval(iter_expr) if iter_expr is not None else _CLEAN
        for name in bound_names(item, syntax):
            _rebind(env, name)
            if iter_fact.tainted:
                env.tainted.add(name)
            if iter_fact.bytes_:
                env.taintedbytes.add(name)
    # Walrus assignments inside the item's scanned expressions.
    target_expr = scan_expr(item)
    if target_expr is not None:
        for sub in syntax.walk(target_expr):
            if isinstance(sub, ast.NamedExpr):
                target = canonical_name(sub.target)
                if target is not None:
                    fact = env._eval(sub.value)
                    _rebind(env, target)
                    if fact.tainted:
                        env.tainted.add(target)
                    if fact.bytes_:
                        env.taintedbytes.add(target)
    return env


def _rebind(env: Env, name: str) -> None:
    env.tainted.discard(name)
    env.taintedbytes.discard(name)
    env.lenlike.discard(name)
    env.checked.discard(name)
    env.lenchecked.pop(name, None)
    env.tuples.pop(name, None)
    env.derived.pop(name, None)


_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.RShift, ast.LShift)


def _arith_sources(expr: ast.AST, env: Env) -> FrozenSet[str]:
    """Tainted names feeding a pure-arithmetic expression, else empty.

    Only monotone-ish integer arithmetic qualifies: bounding the result then
    transitively bounds the sources (``packed = (count*18+7)//8`` checked
    against ``len(data)`` bounds ``count`` too).
    """
    names: Set[str] = set()

    def walk(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return True
        name = canonical_name(node)
        if name is not None:
            if name in env.tainted:
                names.add(name)
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH_OPS):
            return walk(node.left) and walk(node.right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            return walk(node.operand)
        return False

    if walk(expr) and names:
        return frozenset(names)
    return frozenset()


def _transfer_assign(env: Env, targets: List[ast.expr], value: ast.expr) -> None:
    single_names = [canonical_name(t) for t in targets]
    tuple_target = next(
        (t for t in targets if isinstance(t, (ast.Tuple, ast.List))), None
    )
    if tuple_target is not None:
        elements = [canonical_name(e) for e in tuple_target.elts]
        pattern: Optional[Tuple[bool, ...]] = None
        if isinstance(value, ast.Call):
            pattern = _tuple_pattern(value)
            if pattern is None and _callee_name(value) in TAINT_SOURCES:
                pattern = tuple(True for _ in elements)
        elif isinstance(value, ast.Name) and value.id in env.tuples:
            pattern = env.tuples[value.id]
        value_fact = env._eval(value)
        for position, name in enumerate(elements):
            if name is None:
                continue
            _rebind(env, name)
            if pattern is not None and position < len(pattern):
                if pattern[position]:
                    env.tainted.add(name)
            elif value_fact.tainted:
                env.tainted.add(name)
            elif value_fact.bytes_:
                env.taintedbytes.add(name)
        return

    fact = env._eval(value)
    sources = _arith_sources(value, env) if fact.tainted else frozenset()
    pattern = _tuple_pattern(value) if isinstance(value, ast.Call) else None
    if isinstance(value, ast.Name) and value.id in env.tuples:
        pattern = env.tuples[value.id]
    for name in single_names:
        if name is None:
            continue
        _rebind(env, name)
        if pattern is not None:
            env.tuples[name] = pattern
            if any(pattern):
                env.tainted.add(name)
        elif fact.tainted:
            env.tainted.add(name)
            if sources and sources != frozenset({name}):
                env.derived[name] = sources
        elif fact.lenlike:
            env.lenlike.add(name)
        elif fact.bytes_:
            env.taintedbytes.add(name)


def _handler_catches_index(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    names = {getattr(t, "attr", getattr(t, "id", "")) for t in types}
    return bool(
        names & {"IndexError", "LookupError", "Exception", "BaseException", "KeyError"}
    )


def _in_translating_try(cfg: CFG, block_id: int) -> bool:
    """Whether the block sits in a ``try`` translating IndexError to corrupt."""
    for edge in cfg.block(block_id).succs:
        if not edge.exceptional or edge.dst < 0:
            continue
        handler_block = cfg.block(edge.dst)
        binds = [i for i in handler_block.items if isinstance(i, ExceptBind)]
        if not binds:
            continue
        if _handler_catches_index(binds[0].node) and _raises_corrupt_immediately(
            cfg, edge.dst
        ):
            return True
    return False


def _constant_covered(index: int, minlen: int) -> bool:
    """Whether a proven minimum length admits a constant index read."""
    if index >= 0:
        return index < minlen
    return -index <= minlen


def _raises_corrupt_immediately(cfg: CFG, block_id: int) -> bool:
    """Whether ``block_id`` raises CorruptStreamError among its items."""
    for item in cfg.block(block_id).items:
        node = item.node
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            text = ast.dump(target) if target is not None else ""
            if "CorruptStreamError" in text:
                return True
    return False


_MAX_PASSES = 64


def analyze_taint(cfg: CFG) -> TaintAnalysis:
    """Solve the taint lattice over ``cfg``."""
    obs.counter_add("lint.flow.taint_solves", 1)
    env_in: Dict[int, Env] = {cfg.entry: Env()}
    worklist = deque([cfg.entry])
    queued = {cfg.entry}
    passes = 0
    converged = True
    while worklist:
        passes += 1
        if passes > _MAX_PASSES * max(1, len(cfg.blocks)):
            converged = False
            break
        block_id = worklist.popleft()
        queued.discard(block_id)
        env = env_in.get(block_id, Env()).copy()
        for item in cfg.block(block_id).items:
            env = _transfer_item(env, item, cfg.syntax)
        for edge in cfg.block(block_id).succs:
            if edge.dst < 0:
                continue
            out = _refine(env, edge.cond, cfg.syntax) if edge.cond is not None else env.copy()
            if edge.cond is not None:
                sibling_raises = any(
                    other.cond is not None
                    and other.cond[1] != edge.cond[1]
                    and _raises_corrupt_immediately(cfg, other.dst)
                    for other in cfg.block(block_id).succs
                    if other is not edge and other.dst >= 0
                )
                if sibling_raises:
                    out.corrupt_guard = True
            if edge.exceptional:
                # Facts established mid-block may not hold when an exception
                # interrupts it; fall back to the block-entry state.
                out = env_in.get(block_id, Env()).copy()
            current = env_in.get(edge.dst)
            merged = out if current is None else current.merge(out)
            if current is None or merged != current:
                env_in[edge.dst] = merged
                if edge.dst not in queued:
                    queued.add(edge.dst)
                    worklist.append(edge.dst)
    return TaintAnalysis(cfg, env_in, converged)
