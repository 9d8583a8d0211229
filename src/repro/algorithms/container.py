"""Shared container layer: frame preambles + content-integrity trailers.

Every codec in the library frames its payload the same way — an optional
magic, an optional format-version byte, an optional window-log byte, an
optional codec-specific extra header, and an optional varint declaring the
uncompressed content length — followed by the codec's block transform and,
for the custom containers, a CRC-32C trailer over the *decoded* content.
Before this module owned the preamble, each of the eight codecs carried its
own inline magic/version/varint handling; :class:`FrameSpec` now describes a
codec's frame layout declaratively and owns encode/decode for it (lint rule
R006 forbids inline preamble byte handling outside this module). It also
states that layout as data (:meth:`FrameSpec.wire_fields`), which is what
the committed ``results/frame_grammars.json`` records.

Two consumption styles are provided:

* **One-shot** — :meth:`FrameSpec.encode_preamble` /
  :meth:`FrameSpec.decode_preamble` over a complete buffer.
* **Incremental** — :meth:`FrameSpec.try_decode_preamble` parses from a
  growing buffer and reports "need more bytes" as ``None`` instead of
  raising, which is what the streaming decompress contexts
  (:mod:`repro.algorithms.streaming`) use to bound their buffering.

The CRC-32C content trailer mirrors zstd's optional content checksum and the
Snappy framing format's per-chunk CRCs. Structural checks (magic, declared
lengths, element bounds) catch truncation and most corruption; the content
checksum closes the remaining gap — a flipped literal byte decodes
"successfully" to wrong bytes in any LZ format, and CRC-32C detects every
single-byte change. Raw Snappy deliberately does not get a trailer: its wire
format is the open-source ``format_description.txt`` one, which carries no
checksum (use the framed codec for integrity).

Decoders split the trailer off *before* structural parsing and verify it
after, so corruption is always reported as
:class:`~repro.common.errors.CorruptStreamError`, never silent garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.crc32c import crc32c
from repro.common.errors import CorruptStreamError
from repro.common.varint import encode_varint

#: Width of the little-endian CRC-32C content trailer.
CHECKSUM_BYTES = 4


# ---------------------------------------------------------------------------
# Content checksum trailer
# ---------------------------------------------------------------------------


def append_content_checksum(stream: bytes, content: bytes) -> bytes:
    """Append the CRC-32C of ``content`` (the *decoded* bytes) to ``stream``."""
    return stream + crc32c(content).to_bytes(CHECKSUM_BYTES, "little")


def split_content_checksum(data: bytes) -> Tuple[bytes, int]:
    """Split a stream into (frame body, stored checksum).

    Raises :class:`CorruptStreamError` when the stream is too short to carry
    a trailer at all.
    """
    if len(data) < CHECKSUM_BYTES:
        raise CorruptStreamError(
            f"stream of {len(data)} bytes is too short for a content checksum"
        )
    return data[:-CHECKSUM_BYTES], int.from_bytes(data[-CHECKSUM_BYTES:], "little")


def verify_content_checksum(content: bytes, stored: int) -> None:
    """Check decoded ``content`` against the trailer value from the stream."""
    actual = crc32c(content)
    if actual != stored:
        raise CorruptStreamError(
            f"content checksum mismatch: stream carries {stored:#010x}, "
            f"decoded {len(content)} bytes give {actual:#010x}"
        )


def verify_running_checksum(running_crc: int, content_bytes: int, stored: int) -> None:
    """Streaming variant of :func:`verify_content_checksum`.

    Takes an incrementally maintained CRC (``crc32c(chunk, crc)`` per emitted
    chunk) instead of re-hashing the full content, so a streaming decoder can
    verify the trailer without retaining the output.
    """
    if running_crc != stored:
        raise CorruptStreamError(
            f"content checksum mismatch: stream carries {stored:#010x}, "
            f"decoded {content_bytes} bytes give {running_crc:#010x}"
        )


# ---------------------------------------------------------------------------
# Frame preambles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FramePreamble:
    """A decoded frame preamble (see :meth:`FrameSpec.decode_preamble`)."""

    #: log2 of the history window, when the frame carries one.
    window_log: Optional[int]
    #: Declared uncompressed content length, when the frame carries one.
    content_length: Optional[int]
    #: Codec-specific extra header bytes (e.g. the dictionary CRC).
    extra: bytes = b""

    @property
    def window(self) -> int:
        if self.window_log is None:
            raise ValueError("frame carries no window log")
        return 1 << self.window_log


@dataclass(frozen=True)
class FrameSpec:
    """Declarative frame-preamble layout for one codec.

    Field order on the wire is fixed: ``magic``, version byte, window-log
    byte, ``extra_header_bytes`` codec-specific bytes, then the varint
    content length — each present only when the spec enables it. All eight
    library containers are instances of this layout.
    """

    #: Human-readable frame family for error messages ("ZStd-like frame").
    display: str
    #: Leading magic; may be empty (raw Snappy has none).
    magic: bytes = b""
    #: Format-version byte after the magic, or ``None`` when versionless.
    version: Optional[int] = None
    #: Whether a window-log byte follows the version.
    has_window_log: bool = False
    min_window_log: int = 10
    max_window_log: int = 27
    #: Codec-specific header bytes between window log and content length.
    extra_header_bytes: int = 0
    #: Whether a varint uncompressed-length preamble terminates the header.
    has_length: bool = True
    #: Snappy's spec limits the declared length to 32 bits; all containers
    #: mirror that so a corrupt preamble cannot promise a multi-GiB output.
    length_bits: int = 32
    #: Whether frames of this family end with a CRC-32C content trailer.
    has_checksum: bool = True

    def wire_fields(self, *, stage_table: bool = False) -> List[Dict[str, object]]:
        """The ordered wire layout of a frame of this family, one field per
        entry: the preamble fields this spec enables, the ``GRPH``
        stage-descriptor table when ``stage_table`` (graph frames carry it
        after the preamble), the body, and the checksum trailer.
        ``results/frame_grammars.json`` is built from these."""
        fields: List[Dict[str, object]] = []
        if self.magic:
            fields.append(
                {
                    "name": "magic",
                    "kind": "bytes",
                    "width": len(self.magic),
                    "value": self.magic.hex(),
                }
            )
        if self.version is not None:
            fields.append(
                {
                    "name": "version",
                    "kind": "u8",
                    "width": 1,
                    "gate": "version",
                    "value": self.version,
                }
            )
        if self.has_window_log:
            guard = f"{self.min_window_log}..{self.max_window_log}"
            fields.append({"name": "window_log", "kind": "u8", "width": 1, "guard": guard})
        if self.extra_header_bytes:
            fields.append({"name": "extra", "kind": "bytes", "width": self.extra_header_bytes})
        if self.has_length:
            fields.append(
                {"name": "content_length", "kind": "varint", "max_bits": self.length_bits}
            )
        if stage_table:
            fields.append(
                {
                    "name": "stage_table",
                    "kind": "stage-table",
                    "max_stages": MAX_GRAPH_STAGES,
                    "max_params": _MAX_STAGE_PARAMS,
                }
            )
        fields.append({"name": "body", "kind": "bytes"})
        if self.has_checksum:
            fields.append({"name": "checksum", "kind": "u32le", "width": CHECKSUM_BYTES})
        return fields

    def encode_preamble(
        self,
        *,
        content_length: Optional[int] = None,
        window_log: Optional[int] = None,
        extra: bytes = b"",
    ) -> bytes:
        """Serialize the preamble for one frame."""
        out = bytearray(self.magic)
        if self.version is not None:
            out.append(self.version)
        if self.has_window_log:
            if window_log is None:
                raise ValueError(f"{self.display} requires a window_log")
            out.append(window_log)
        if len(extra) != self.extra_header_bytes:
            raise ValueError(
                f"{self.display} extra header must be {self.extra_header_bytes} "
                f"bytes, got {len(extra)}"
            )
        out += extra
        if self.has_length:
            if content_length is None:
                raise ValueError(f"{self.display} requires a content_length")
            out += encode_varint(content_length)
        return bytes(out)

    def decode_preamble(self, data: bytes) -> Tuple[FramePreamble, int]:
        """Parse a complete preamble; returns ``(preamble, next_pos)``."""
        parsed = self.try_decode_preamble(data)
        if parsed is None:
            raise CorruptStreamError(f"truncated {self.display} preamble")
        return parsed

    def try_decode_preamble(self, data: bytes) -> Optional[Tuple[FramePreamble, int]]:
        """Incremental parse from a possibly-growing buffer.

        Returns ``None`` when more bytes are needed, ``(preamble, next_pos)``
        once the full preamble is available, and raises
        :class:`CorruptStreamError` as soon as the bytes seen so far are
        definitely not a valid preamble (wrong magic, bad version, window log
        out of range, overlong length varint) — a streaming decoder fails
        fast instead of buffering a stream it can never decode.
        """
        pos = len(self.magic)
        prefix = data[:pos]
        if prefix != self.magic[: len(prefix)]:
            raise CorruptStreamError(f"bad magic: not a {self.display}")
        if len(data) < pos:
            return None
        if self.version is not None:
            if len(data) <= pos:
                return None
            if data[pos] != self.version:
                raise CorruptStreamError(
                    f"unsupported {self.display} version {data[pos]}"
                )
            pos += 1
        window_log: Optional[int] = None
        if self.has_window_log:
            if len(data) <= pos:
                return None
            window_log = data[pos]
            if not self.min_window_log <= window_log <= self.max_window_log:
                raise CorruptStreamError(f"window log {window_log} out of range")
            pos += 1
        extra = b""
        if self.extra_header_bytes:
            if len(data) < pos + self.extra_header_bytes:
                return None
            extra = bytes(data[pos : pos + self.extra_header_bytes])
            pos += self.extra_header_bytes
        content_length: Optional[int] = None
        if self.has_length:
            decoded = try_decode_varint(data, pos, max_bits=self.length_bits)
            if decoded is None:
                return None
            content_length, pos = decoded
        return FramePreamble(window_log, content_length, extra), pos


def try_decode_varint(
    data: bytes, pos: int, *, max_bits: int = 64
) -> Optional[Tuple[int, int]]:
    """Varint decode that distinguishes "need more bytes" from corruption.

    Returns ``None`` when the buffer ends mid-varint (the streaming caller
    should wait for more input), the decoded ``(value, next_pos)`` when
    complete, and raises :class:`CorruptStreamError` when the varint is
    already provably invalid (overlong encoding or value beyond
    ``max_bits``) — matching :func:`repro.common.varint.decode_varint`'s
    validation for complete buffers.
    """
    result = 0
    shift = 0
    limit = (1 << max_bits) - 1
    while True:
        if pos >= len(data):
            return None
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > limit:
                raise CorruptStreamError(
                    f"varint value {result} overflows {max_bits}-bit limit"
                )
            return result, pos
        shift += 7
        if shift >= max_bits + 7:
            raise CorruptStreamError("varint too long")


# ---------------------------------------------------------------------------
# Codec-graph stage descriptors (the GRPH frame's pipeline table)
# ---------------------------------------------------------------------------

#: Upper bound on stages in one graph frame; longer pipelines are corruption.
MAX_GRAPH_STAGES = 12
#: Upper bound on integer parameters carried by one stage descriptor.
_MAX_STAGE_PARAMS = 4


@dataclass(frozen=True)
class StageDescriptor:
    """Wire form of one pipeline stage: a numeric id plus integer params.

    The descriptor table is what makes a graph frame self-describing — the
    decoder rebuilds the whole transform pipeline from these rows alone,
    without out-of-band configuration.
    """

    stage_id: int
    params: Tuple[int, ...] = ()


def encode_stage_descriptors(descriptors: Tuple[StageDescriptor, ...]) -> bytes:
    """Serialize a descriptor table: varint count, then per-stage rows.

    Each row is ``varint stage_id, varint n_params, varint param*``.
    """
    if not 0 < len(descriptors) <= MAX_GRAPH_STAGES:
        raise ValueError(
            f"descriptor table must hold 1..{MAX_GRAPH_STAGES} stages"
        )
    out = [encode_varint(len(descriptors))]
    for descriptor in descriptors:
        if len(descriptor.params) > _MAX_STAGE_PARAMS:
            raise ValueError(
                f"stage {descriptor.stage_id} carries too many parameters"
            )
        out.append(encode_varint(descriptor.stage_id))
        out.append(encode_varint(len(descriptor.params)))
        for param in descriptor.params:
            out.append(encode_varint(param))
    return b"".join(out)


def try_decode_stage_descriptors(
    data: bytes, pos: int
) -> Optional[Tuple[Tuple[StageDescriptor, ...], int]]:
    """Parse a descriptor table from ``data`` starting at ``pos``.

    Same contract as :func:`try_decode_varint`: returns ``None`` when the
    buffer ends mid-table (streaming callers wait for more bytes), the
    ``(descriptors, next_pos)`` pair when complete, and raises
    :class:`CorruptStreamError` for tables that are provably invalid
    (zero stages, too many stages, too many parameters).
    """
    decoded = try_decode_varint(data, pos, max_bits=16)
    if decoded is None:
        return None
    count, pos = decoded
    if count < 1:
        raise CorruptStreamError("graph frame declares an empty pipeline")
    if count > MAX_GRAPH_STAGES:
        raise CorruptStreamError(
            f"graph frame declares {count} stages (limit {MAX_GRAPH_STAGES})"
        )
    descriptors = []
    for _ in range(count):
        decoded = try_decode_varint(data, pos, max_bits=16)
        if decoded is None:
            return None
        stage_id, pos = decoded
        decoded = try_decode_varint(data, pos, max_bits=16)
        if decoded is None:
            return None
        n_params, pos = decoded
        if n_params > _MAX_STAGE_PARAMS:
            raise CorruptStreamError(
                f"stage {stage_id} declares {n_params} parameters "
                f"(limit {_MAX_STAGE_PARAMS})"
            )
        params = []
        for _ in range(n_params):
            decoded = try_decode_varint(data, pos, max_bits=32)
            if decoded is None:
                return None
            param, pos = decoded
            params.append(param)
        descriptors.append(StageDescriptor(stage_id, tuple(params)))
    return tuple(descriptors), pos
