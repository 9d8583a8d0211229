"""Bit-granular readers and writers for the entropy coders.

Two bit orders are provided because the two entropy-coder families in the
paper's CDPU use different conventions:

* :class:`BitWriter` / :class:`BitReader` — LSB-first within each byte, the
  convention used by DEFLATE and by zstd's FSE bitstreams.
* Both support peeking fixed-width fields, which is what the hardware Huffman
  expander's speculative table lookups do.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import CorruptStreamError


#: Widest field a :func:`u64_windows` peek can serve: a field starting at
#: bit offset 7 of its byte must still end inside the 64-bit window.
WINDOW64_MAX_WIDTH = 57


def u64_windows(data: bytes) -> np.ndarray:
    """Per-byte little-endian 64-bit windows, zero-padded past the end.

    ``windows[i]`` holds bytes ``i..i+7`` of ``data`` (missing trailing
    bytes read as zero), with one extra entry past the end, so a
    zero-extended field of up to :data:`WINDOW64_MAX_WIDTH` bits at bit
    position ``p`` is ``(windows[p >> 3] >> (p & 7)) & mask``. The
    ``uint64`` array is a strided view over the padded bytes — no
    per-window arithmetic — for vectorized gathers; ``.tolist()`` gives
    the entropy decoders' per-symbol loops plain list indexing in place of
    :class:`BitReader` calls.
    """
    padded = bytes(data) + bytes(8)
    return np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))


def read_fields(
    data: bytes, widths: Sequence[int]
) -> Tuple[np.ndarray, Optional[CorruptStreamError]]:
    """Read consecutive LSB-first bit fields of the given ``widths`` (< 64).

    Equivalent to ``BitReader(data).read(w)`` for each width in turn, in
    one vectorized gather over :func:`u64_windows`, returned as a ``uint64``
    array; fields wider than the window fall back to the reference
    :class:`BitReader`. Where the sequential reader would underflow, the
    values read so far come back with the error it would have raised, so a
    caller can act on the complete fields first and raise at exactly the
    reference's point.
    """
    width_arr = np.asarray(widths, dtype=np.int64)
    ends = np.cumsum(width_arr)
    total = 8 * len(data)
    complete = int(np.searchsorted(ends, total, side="right"))
    error = None
    if complete < len(width_arr):
        have = total - int(ends[complete] - width_arr[complete])
        error = CorruptStreamError(
            f"bitstream underflow: wanted {int(width_arr[complete])}, have {have}"
        )
        width_arr = width_arr[:complete]
        ends = ends[:complete]
    if not complete:
        return np.zeros(0, dtype=np.uint64), error
    starts = ends - width_arr
    windows = u64_windows(data)[starts >> 3] >> (starts & 7).astype(np.uint64)
    values = windows & ((np.uint64(1) << width_arr.astype(np.uint64)) - np.uint64(1))
    if int(width_arr.max()) > WINDOW64_MAX_WIDTH:
        for i in np.flatnonzero(width_arr > WINDOW64_MAX_WIDTH).tolist():
            values[i] = BitReader(data, int(starts[i])).read(int(width_arr[i]))
    return values, error


#: Widest field :func:`pack_fields` packs vectorized: an ``int64`` value
#: shifted within its 64-bit word spills into at most one more word.
PACK_MAX_WIDTH = 63

#: Below this many fields one ``BitWriter.write`` per field beats numpy's
#: fixed cost; both paths give identical output (tested), so the threshold
#: is purely a performance knob.
_PACK_MIN_FIELDS = 48


def pack_fields(values: Sequence[int], widths: Sequence[int]) -> Tuple[bytes, int]:
    """Pack consecutive LSB-first bit fields: the mirror of :func:`read_fields`.

    Returns ``(payload, bit_length)``, equal to one ``BitWriter.write(value,
    width)`` per field followed by ``getvalue()`` and ``bit_length``. Each
    field of up to :data:`PACK_MAX_WIDTH` bits lands in at most two 64-bit
    words, so the fields are added into place (their bits are disjoint) in
    two scatter passes whose temporaries are sized by the number of fields,
    not of bits. Input the writer would reject (a negative width, a value
    that does not fit), fields wider than the fast path serves and short
    runs of fields go through the reference :class:`BitWriter`, which
    raises the same ``ValueError`` at the same field.
    """
    if len(values) != len(widths):
        raise ValueError(f"{len(values)} values for {len(widths)} widths")
    if len(widths) < _PACK_MIN_FIELDS:
        return _write_fields(values, widths)
    width_arr = np.asarray(widths, dtype=np.int64)
    try:
        value_arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return _write_fields(values, widths)
    if (width_arr >> 6).any():  # a negative width, or one past PACK_MAX_WIDTH
        return _write_fields(values, widths)
    # Arithmetic shift: nonzero for a negative value or one that does not
    # fit — or any nonzero value of a zero-width field, which the writer
    # ignores.
    spill = value_arr >> width_arr
    if spill.any():
        if spill[width_arr > 0].any():
            return _write_fields(values, widths)
        value_arr = np.where(width_arr > 0, value_arr, 0)
    ends = np.cumsum(width_arr)
    total = int(ends[-1])
    starts = ends - width_arr
    word_index = starts >> 6
    shift = starts & 63
    # Disjoint bits: adding into a word is OR-ing (int64 wraps like uint64).
    words = np.zeros(total // 64 + 2, dtype=np.int64)
    np.add.at(words, word_index, value_arr << shift)
    # The bits shifted past the top of the first word: ``value >> (64 -
    # shift)``, written as two shifts so ``shift == 0`` never shifts by 64.
    np.add.at(words, word_index + 1, (value_arr >> 1) >> (63 - shift))
    return words.astype("<i8", copy=False).tobytes()[: (total + 7) >> 3], total


def _write_fields(values: Sequence[int], widths: Sequence[int]) -> Tuple[bytes, int]:
    """:func:`pack_fields` through the reference :class:`BitWriter`."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if isinstance(widths, np.ndarray):
        widths = widths.tolist()
    writer = BitWriter()
    for value, width in zip(values, widths):
        writer.write(int(value), int(width))
    return writer.getvalue(), writer.bit_length


class BitWriter:
    """Accumulates bits LSB-first and renders them to bytes.

    Bits are appended with :meth:`write`; the first bit written becomes the
    least-significant bit of the first output byte.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._bit_acc = 0
        self._bit_count = 0

    def write(self, value: int, num_bits: int) -> None:
        """Append the low ``num_bits`` bits of ``value``."""
        if num_bits < 0:
            raise ValueError(f"num_bits must be non-negative, got {num_bits}")
        if num_bits == 0:
            return
        if value < 0 or value >= (1 << num_bits):
            raise ValueError(f"value {value} does not fit in {num_bits} bits")
        self._bit_acc |= value << self._bit_count
        self._bit_count += num_bits
        while self._bit_count >= 8:
            self._buffer.append(self._bit_acc & 0xFF)
            self._bit_acc >>= 8
            self._bit_count -= 8

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._bit_count

    def align_to_byte(self) -> None:
        """Pad with zero bits up to the next byte boundary."""
        if self._bit_count:
            self._buffer.append(self._bit_acc & 0xFF)
            self._bit_acc = 0
            self._bit_count = 0

    def getvalue(self) -> bytes:
        """Return the stream so far, padding the final partial byte with 0s."""
        tail = bytes([self._bit_acc & 0xFF]) if self._bit_count else b""
        return bytes(self._buffer) + tail


class BitReader:
    """Reads bits LSB-first from a byte string, mirroring :class:`BitWriter`."""

    def __init__(self, data: bytes, start_bit: int = 0) -> None:
        self._data = data
        self._pos = start_bit
        self._limit = len(data) * 8
        if start_bit < 0 or start_bit > self._limit:
            raise ValueError(f"start_bit {start_bit} outside stream of {self._limit} bits")

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._pos

    @property
    def bit_position(self) -> int:
        return self._pos

    def extend(self, more: bytes) -> None:
        """Append bytes to the stream, resuming reads past the old end.

        Lets a streaming decoder hand a partially-received bitstream to the
        reader and keep the bit cursor across feeds: an underflowing
        ``read``/``peek`` raises without consuming, the caller waits for
        more input and ``extend``\\ s, and the next read continues from the
        same bit position.
        """
        if more:
            self._data = bytes(self._data) + bytes(more)
            self._limit = len(self._data) * 8

    def read(self, num_bits: int) -> int:
        """Consume and return ``num_bits`` bits as an integer."""
        value = self.peek(num_bits)
        self._pos += num_bits
        return value

    def peek(self, num_bits: int) -> int:
        """Return the next ``num_bits`` bits without consuming them."""
        if num_bits < 0:
            raise ValueError(f"num_bits must be non-negative, got {num_bits}")
        if num_bits > self.bits_remaining:
            raise CorruptStreamError(
                f"bitstream underflow: wanted {num_bits}, have {self.bits_remaining}"
            )
        result = 0
        pos = self._pos
        gathered = 0
        while gathered < num_bits:
            byte = self._data[pos >> 3]
            offset = pos & 7
            take = min(8 - offset, num_bits - gathered)
            chunk = (byte >> offset) & ((1 << take) - 1)
            result |= chunk << gathered
            gathered += take
            pos += take
        return result

    def peek_padded(self, num_bits: int) -> int:
        """Peek up to ``num_bits``; missing tail bits read as zero.

        This mirrors how a hardware decoder's speculative lookups behave at
        the end of a stream: the lookahead window is zero-extended.
        """
        available = min(num_bits, self.bits_remaining)
        return self.peek(available)

    def skip(self, num_bits: int) -> None:
        if num_bits > self.bits_remaining:
            raise CorruptStreamError("bitstream underflow during skip")
        self._pos += num_bits

    def align_to_byte(self) -> None:
        """Advance to the next byte boundary (discarding pad bits)."""
        remainder = self._pos & 7
        if remainder:
            self.skip(8 - remainder)

    def byte_position(self) -> int:
        """Current position in bytes; only valid when byte-aligned."""
        if self._pos & 7:
            raise ValueError("reader is not byte-aligned")
        return self._pos >> 3
