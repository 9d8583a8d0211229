"""Composable codec stages: reversible transforms + entropy backends.

OpenZL (PAPERS.md) models a codec as a DAG of reversible transforms feeding
entropy backends; the fleet study behind the paper shows that matching the
*structure* of data to the entropy coder is where ratio comes from. This
module is the stage library for that model: every :class:`Stage` is an
invertible byte transform (``inverse(forward(x)) == x`` for all inputs),
and :mod:`repro.algorithms.graphs` composes chains of them into
self-describing ``GRPH`` frames.

Transforms (structure shapers)
    ``delta``        byte-wise difference mod 256 at a fixed stride lane
    ``transpose``    fixed-stride byte de-interleave (AoS -> planes)
    ``float_split``  sign / exponent / mantissa-byte planes for f32/f64
    ``tokenize``     delimiter-split vocabulary + index stream

Backends (terminal coders)
    ``raw``          identity (the fallback lattice point)
    ``huffman``      canonical length-limited Huffman over bytes
    ``fse``          tANS over bytes
    ``lz77``         dictionary coding via the Snappy element grammar

Each backend block is *self-delimiting within its buffer* and carries a raw
fallback mode byte, so no stage ever expands data by more than a small
constant — the graph-level expansion bound is set by the transforms alone.

Wire-format ownership: a stage's one-byte wire id (``STAGE_ID``) may only be
read here — lint rule R006 enforces that the rest of the codebase addresses
stages by name and converts through :func:`descriptor_for` /
:func:`stage_from_descriptor`, exactly like frame magics and the container
layer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

import numpy as np

from repro import obs
from repro.algorithms import fse as fse_mod
from repro.algorithms import huffman as huffman_mod
from repro.algorithms.container import StageDescriptor, try_decode_varint
from repro.algorithms.snappy import SnappyCodec
from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.varint import encode_varint

#: Upper bound on any single stage's inverse output. Transforms are at most
#: modestly expansive, but ``tokenize``'s inverse legitimately re-inflates
#: (that is the point); a corrupt index stream must not be allowed to demand
#: an unbounded join.
MAX_STAGE_OUTPUT = 1 << 27

#: Cap on entropy-backend symbol counts: a mutated count varint must not buy
#: a multi-minute decode loop before the sentinel/CRC checks can object.
_MAX_SYMBOL_COUNT = 1 << 26


class Stage:
    """One invertible transform in a codec graph.

    Subclasses set :attr:`name`, :attr:`STAGE_ID` and :attr:`is_backend`,
    implement ``_forward``/``_inverse``, and validate their integer
    parameters in :meth:`from_params`. ``inverse`` is a *decode surface*: it
    must raise :class:`CorruptStreamError` (never leak IndexError/ValueError)
    on any byte string it cannot invert.
    """

    name: str = ""
    #: Wire id byte in the GRPH stage descriptor (see module docstring).
    STAGE_ID: int = -1
    #: Backends terminate a graph; transforms shape bytes for them.
    is_backend: bool = False

    def params(self) -> Tuple[int, ...]:
        """Integer parameters, as serialized into the stage descriptor."""
        return ()

    @classmethod
    def from_params(cls, params: Tuple[int, ...]) -> "Stage":
        if params:
            raise ConfigError(f"{cls.name} stage takes no parameters, got {params!r}")
        return cls()

    def forward(self, data: bytes) -> bytes:
        with obs.stage(f"stage.{self.name}.forward"):
            return self._forward(data)

    def inverse(self, data: bytes) -> bytes:
        with obs.stage(f"stage.{self.name}.inverse"):
            return self._inverse(data)

    def _forward(self, data: bytes) -> bytes:
        raise NotImplementedError

    def _inverse(self, data: bytes) -> bytes:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable form, e.g. ``delta(1)`` or ``fse``."""
        params = self.params()
        if not params:
            return self.name
        return f"{self.name}({', '.join(str(p) for p in params)})"


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


class DeltaStage(Stage):
    """Byte-wise difference mod 256 between elements ``stride`` apart.

    Turns slowly-varying lanes (counters, sorted ids, smooth sensor planes)
    into near-zero residue the entropy backends crush. Length-preserving.
    """

    name = "delta"
    STAGE_ID = 1

    def __init__(self, stride: int = 1) -> None:
        self.stride = stride

    def params(self) -> Tuple[int, ...]:
        return (self.stride,)

    @classmethod
    def from_params(cls, params: Tuple[int, ...]) -> "DeltaStage":
        if len(params) != 1 or not 1 <= params[0] <= 256:
            raise ConfigError(
                f"delta stage takes one stride parameter in [1, 256], got {params!r}"
            )
        return cls(params[0])

    def _forward(self, data: bytes) -> bytes:
        if len(data) <= self.stride:
            return data
        arr = np.frombuffer(data, dtype=np.uint8)
        out = arr.copy()
        out[self.stride :] = arr[self.stride :] - arr[: -self.stride]
        return out.tobytes()

    def _inverse(self, data: bytes) -> bytes:
        if len(data) <= self.stride:
            return data
        arr = np.frombuffer(data, dtype=np.uint8)
        out = np.empty_like(arr)
        for lane in range(self.stride):
            out[lane :: self.stride] = np.cumsum(
                arr[lane :: self.stride], dtype=np.uint8
            )
        return out.tobytes()


class TransposeStage(Stage):
    """Fixed-stride byte de-interleave: records of ``stride`` bytes become
    ``stride`` contiguous planes (byte 0 of every record, then byte 1, ...).

    The classic shuffle filter: same-significance bytes of fixed-width values
    land next to each other, where delta/entropy stages see their structure.
    Any tail shorter than one record passes through verbatim, so the
    transform is length-preserving and total.
    """

    name = "transpose"
    STAGE_ID = 2

    def __init__(self, stride: int) -> None:
        self.stride = stride

    def params(self) -> Tuple[int, ...]:
        return (self.stride,)

    @classmethod
    def from_params(cls, params: Tuple[int, ...]) -> "TransposeStage":
        if len(params) != 1 or not 2 <= params[0] <= 256:
            raise ConfigError(
                f"transpose stage takes one stride parameter in [2, 256], got {params!r}"
            )
        return cls(params[0])

    def _forward(self, data: bytes) -> bytes:
        rows = len(data) // self.stride
        if rows == 0:
            return data
        head = np.frombuffer(data, dtype=np.uint8, count=rows * self.stride)
        planes = np.ascontiguousarray(head.reshape(rows, self.stride).T)
        return planes.tobytes() + data[rows * self.stride :]

    def _inverse(self, data: bytes) -> bytes:
        rows = len(data) // self.stride
        if rows == 0:
            return data
        planes = np.frombuffer(data, dtype=np.uint8, count=rows * self.stride)
        head = np.ascontiguousarray(planes.reshape(self.stride, rows).T)
        return head.tobytes() + data[rows * self.stride :]


class FloatSplitStage(Stage):
    """IEEE-754 plane split for little-endian f32/f64 streams.

    Emits, in order: a varint value count, a packed sign-bit plane, the
    exponent byte plane(s), and the mantissa byte planes (least-significant
    first), then any sub-width tail verbatim. Smooth numeric series have
    near-constant sign/exponent planes and correlated high-mantissa planes —
    the FCBench observation this stage exists to exploit. The f64 layout
    stores the 11-bit exponent in two byte planes, so output exceeds input
    by the packed sign bits plus 5 spare exponent bits per value (~14% for
    f64, ~3% for f32); the entropy backend's raw fallback bounds the
    worst case and structured planes win it back many times over.
    """

    name = "float_split"
    STAGE_ID = 3

    def __init__(self, width: int) -> None:
        self.width = width

    def params(self) -> Tuple[int, ...]:
        return (self.width,)

    @classmethod
    def from_params(cls, params: Tuple[int, ...]) -> "FloatSplitStage":
        if len(params) != 1 or params[0] not in (4, 8):
            raise ConfigError(
                f"float_split stage takes one width parameter (4 or 8), got {params!r}"
            )
        return cls(params[0])

    def _layout(self, n_values: int) -> Tuple[int, int, int]:
        """(sign plane bytes, exponent planes, mantissa planes)."""
        sign_bytes = (n_values + 7) // 8
        if self.width == 8:
            return sign_bytes, 2, 7
        return sign_bytes, 1, 3

    def _forward(self, data: bytes) -> bytes:
        n_values = len(data) // self.width
        tail = data[n_values * self.width :]
        out = bytearray(encode_varint(n_values))
        if n_values:
            if self.width == 8:
                u = np.frombuffer(data, dtype="<u8", count=n_values)
                sign = (u >> np.uint64(63)).astype(np.uint8)
                exponent = (u >> np.uint64(52)).astype(np.uint16) & np.uint16(0x7FF)
                mantissa = u & np.uint64((1 << 52) - 1)
                exp_planes = [
                    (exponent & np.uint16(0xFF)).astype(np.uint8),
                    (exponent >> np.uint16(8)).astype(np.uint8),
                ]
                man_planes = [
                    ((mantissa >> np.uint64(8 * j)) & np.uint64(0xFF)).astype(np.uint8)
                    for j in range(7)
                ]
            else:
                u = np.frombuffer(data, dtype="<u4", count=n_values)
                sign = (u >> np.uint32(31)).astype(np.uint8)
                exp_planes = [((u >> np.uint32(23)) & np.uint32(0xFF)).astype(np.uint8)]
                man_planes = [
                    ((u >> np.uint32(8 * j)) & np.uint32(0xFF)).astype(np.uint8)
                    for j in range(2)
                ]
                man_planes.append(
                    ((u >> np.uint32(16)) & np.uint32(0x7F)).astype(np.uint8)
                )
            out += np.packbits(sign, bitorder="little").tobytes()
            for plane in exp_planes + man_planes:
                out += plane.tobytes()
        out += tail
        return bytes(out)

    def _inverse(self, data: bytes) -> bytes:
        decoded = try_decode_varint(data, 0, max_bits=32)
        if decoded is None:
            raise CorruptStreamError("truncated float_split value count")
        n_values, pos = decoded
        sign_bytes, n_exp, n_man = self._layout(n_values)
        planes_bytes = n_values * (n_exp + n_man)
        tail_start = pos + sign_bytes + planes_bytes
        if tail_start > len(data) or len(data) - tail_start >= self.width:
            raise CorruptStreamError(
                f"float_split block length {len(data)} does not match "
                f"{n_values} declared values"
            )
        tail = data[tail_start:]
        if not n_values:
            return tail
        sign = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=sign_bytes, offset=pos),
            bitorder="little",
        )[:n_values]
        planes = [
            np.frombuffer(
                data,
                dtype=np.uint8,
                count=n_values,
                offset=pos + sign_bytes + j * n_values,
            )
            for j in range(n_exp + n_man)
        ]
        if self.width == 8:
            exponent = planes[0].astype(np.uint16) | (
                planes[1].astype(np.uint16) << np.uint16(8)
            )
            if int(exponent.max()) > 0x7FF:
                raise CorruptStreamError("float_split exponent plane out of range")
            u = (
                (sign.astype(np.uint64) << np.uint64(63))
                | (exponent.astype(np.uint64) << np.uint64(52))
            )
            for j, plane in enumerate(planes[2:]):
                u |= plane.astype(np.uint64) << np.uint64(8 * j)
            return u.astype("<u8").tobytes() + tail
        if int(planes[3].max()) > 0x7F:
            raise CorruptStreamError("float_split mantissa plane out of range")
        u = (
            (sign.astype(np.uint32) << np.uint32(31))
            | (planes[0].astype(np.uint32) << np.uint32(23))
            | (planes[3].astype(np.uint32) << np.uint32(16))
            | (planes[2].astype(np.uint32) << np.uint32(8))
            | planes[1].astype(np.uint32)
        )
        return u.astype("<u4").tobytes() + tail


class TokenizeStage(Stage):
    """Delimiter-split vocabulary coding (log/CSV/JSON line structure).

    Splits on a one-byte delimiter, assigns vocabulary ids in first-
    appearance order, and emits ``varint vocab_size, (varint len, bytes)*,
    varint token_count, varint index*``. Repeated records collapse to
    repeated small indices, which the entropy backends then code in a
    fraction of a byte each.
    """

    name = "tokenize"
    STAGE_ID = 4

    def __init__(self, delimiter: int = 10) -> None:
        self.delimiter = delimiter

    def params(self) -> Tuple[int, ...]:
        return (self.delimiter,)

    @classmethod
    def from_params(cls, params: Tuple[int, ...]) -> "TokenizeStage":
        if len(params) != 1 or not 0 <= params[0] <= 255:
            raise ConfigError(
                f"tokenize stage takes one delimiter byte in [0, 255], got {params!r}"
            )
        return cls(params[0])

    def _forward(self, data: bytes) -> bytes:
        tokens = data.split(bytes([self.delimiter]))
        vocab: Dict[bytes, int] = {}
        indices: List[int] = []
        for token in tokens:
            index = vocab.get(token)
            if index is None:
                index = len(vocab)
                vocab[token] = index
            indices.append(index)
        out = bytearray(encode_varint(len(vocab)))
        for token in vocab:  # insertion order == id order
            out += encode_varint(len(token))
            out += token
        out += encode_varint(len(indices))
        for index in indices:
            out += encode_varint(index)
        return bytes(out)

    def _inverse(self, data: bytes) -> bytes:
        def read_varint(pos: int, what: str) -> Tuple[int, int]:
            decoded = try_decode_varint(data, pos, max_bits=32)
            if decoded is None:
                raise CorruptStreamError(f"truncated tokenize {what}")
            return decoded

        vocab_size, pos = read_varint(0, "vocabulary size")
        if vocab_size > len(data) - pos:
            raise CorruptStreamError(
                f"tokenize vocabulary of {vocab_size} entries exceeds block size"
            )
        vocab: List[bytes] = []
        for _ in range(vocab_size):
            token_len, pos = read_varint(pos, "token length")
            if token_len > len(data) - pos:
                raise CorruptStreamError("tokenize token overruns block")
            vocab.append(data[pos : pos + token_len])
            pos += token_len
        token_count, pos = read_varint(pos, "token count")
        if token_count > len(data) - pos:
            raise CorruptStreamError(
                f"tokenize index stream of {token_count} entries exceeds block size"
            )
        if not token_count:
            raise CorruptStreamError("tokenize block declares zero tokens")
        parts: List[bytes] = []
        produced = 0
        for _ in range(token_count):
            index, pos = read_varint(pos, "token index")
            if index >= vocab_size:
                raise CorruptStreamError(
                    f"tokenize index {index} outside vocabulary of {vocab_size}"
                )
            token = vocab[index]
            produced += len(token) + 1
            if produced > MAX_STAGE_OUTPUT:
                raise CorruptStreamError("tokenize block inflates beyond stage limit")
            parts.append(token)
        if pos != len(data):
            raise CorruptStreamError("trailing bytes after tokenize index stream")
        return bytes([self.delimiter]).join(parts)


# ---------------------------------------------------------------------------
# Entropy backends
# ---------------------------------------------------------------------------


class RawStage(Stage):
    """Identity backend: the lattice's `no entropy coding` point."""

    name = "raw"
    STAGE_ID = 16
    is_backend = True

    def _forward(self, data: bytes) -> bytes:
        return data

    def _inverse(self, data: bytes) -> bytes:
        return data


class HuffmanStage(Stage):
    """Canonical Huffman over bytes, with a raw-mode fallback byte."""

    name = "huffman"
    STAGE_ID = 17
    is_backend = True

    def _forward(self, data: bytes) -> bytes:
        return huffman_mod.encode_byte_block(data)

    def _inverse(self, data: bytes) -> bytes:
        return huffman_mod.decode_byte_block(data, max_count=_MAX_SYMBOL_COUNT)


class FseStage(Stage):
    """tANS over bytes, with a raw-mode fallback byte."""

    name = "fse"
    STAGE_ID = 18
    is_backend = True

    def _forward(self, data: bytes) -> bytes:
        return fse_mod.encode_byte_block(data)

    def _inverse(self, data: bytes) -> bytes:
        return fse_mod.decode_byte_block(data, max_count=_MAX_SYMBOL_COUNT)


class Lz77Stage(Stage):
    """Dictionary coding: the Snappy codec as a stage.

    Its block format is the Snappy stream (varint length + literal/copy
    elements), matched with Snappy's parameters minus the skipping
    heuristic (graphs feed the matcher pre-transformed bytes whose
    incompressibility the backend fallback already handles), and decoded by
    the codec's element loop. Backend by taxonomy, but useful mid-graph too
    (e.g. ``lz77 -> huffman`` is the Flate recipe in graph form).
    """

    name = "lz77"
    STAGE_ID = 19
    is_backend = True

    def _forward(self, data: bytes) -> bytes:
        return SnappyCodec(use_skipping=False).compress_block(data)

    def _inverse(self, data: bytes) -> bytes:
        return SnappyCodec().decompress_block(data)


# ---------------------------------------------------------------------------
# Stage registry + descriptor conversion
# ---------------------------------------------------------------------------

#: Every stage type by name. Lint rule R005 statically cross-checks graph
#: presets against these keys, so keep the literal flat and explicit.
_STAGE_TYPES: Dict[str, Type[Stage]] = {
    "delta": DeltaStage,
    "transpose": TransposeStage,
    "float_split": FloatSplitStage,
    "tokenize": TokenizeStage,
    "raw": RawStage,
    "huffman": HuffmanStage,
    "fse": FseStage,
    "lz77": Lz77Stage,
}

#: Stage names a graph may terminate with (R005 checks presets against it).
ENTROPY_BACKENDS = ("raw", "huffman", "fse", "lz77")

_STAGES_BY_ID: Dict[int, Type[Stage]] = {
    cls.STAGE_ID: cls for cls in _STAGE_TYPES.values()
}


def stage_names() -> List[str]:
    """All registered stage names, sorted."""
    return sorted(_STAGE_TYPES)


def make_stage(name: str, *params: int) -> Stage:
    """Construct a stage by name; raises :class:`ConfigError` on bad input."""
    cls = _STAGE_TYPES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown stage {name!r}; available: {', '.join(stage_names())}"
        )
    return cls.from_params(tuple(params))


def descriptor_for(stage: Stage) -> StageDescriptor:
    """The wire descriptor for a stage instance."""
    return StageDescriptor(stage_id=type(stage).STAGE_ID, params=stage.params())


def stage_from_descriptor(descriptor: StageDescriptor) -> Stage:
    """Rebuild a stage from a decoded wire descriptor.

    This is a decode surface: unknown ids and invalid parameters are stream
    corruption, not configuration errors.
    """
    cls = _STAGES_BY_ID.get(descriptor.stage_id)
    if cls is None:
        raise CorruptStreamError(
            f"unknown stage id {descriptor.stage_id} in graph descriptor"
        )
    try:
        return cls.from_params(descriptor.params)
    except ConfigError as exc:
        raise CorruptStreamError(f"invalid stage parameters: {exc}") from None
