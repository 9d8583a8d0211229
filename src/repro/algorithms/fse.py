"""Finite State Entropy (tANS) coding (paper §2.1, §5.4, §5.7).

A table-based asymmetric-numeral-system coder with zstd-style normalized
counts, power-of-two table sizes (``2**accuracy_log``) and the classic spread
function. This is the entropy coder behind the ZStd-like codec's sequence
section and behind the hardware FSE compressor/expander models.

The decode table built here — per-state (symbol, nbBits, baseline) entries —
is byte-for-byte the structure the paper's "FSE Table Builder/Reader" blocks
materialize in SRAM (§5.4), and its size (``2**accuracy_log`` entries) is what
the "max accuracy of FSE compression tables" compile-time parameter (§5.8
parameter 12) controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.common.bitio import BitWriter, pack_fields, read_fields, u64_windows
from repro.common.errors import CorruptStreamError
from repro.common.varint import encode_varint

#: zstd caps FSE accuracy logs at 9-12 depending on the table; we allow 5-12.
MIN_ACCURACY_LOG = 5
MAX_ACCURACY_LOG = 12
DEFAULT_ACCURACY_LOG = 9


def normalize_counts(frequencies: Dict[int, int], accuracy_log: int) -> Dict[int, int]:
    """Scale raw symbol counts so they sum to ``2**accuracy_log``.

    Every present symbol keeps a count of at least 1 (so it stays encodable);
    rounding error is absorbed by the most frequent symbol, zstd-style.
    """
    if not MIN_ACCURACY_LOG <= accuracy_log <= MAX_ACCURACY_LOG:
        raise ValueError(f"accuracy_log {accuracy_log} outside [{MIN_ACCURACY_LOG}, {MAX_ACCURACY_LOG}]")
    table_size = 1 << accuracy_log
    present = {s: f for s, f in frequencies.items() if f > 0}
    if not present:
        raise ValueError("cannot normalize an empty distribution")
    if len(present) > table_size:
        raise ValueError(f"{len(present)} symbols exceed table size {table_size}")
    total = sum(present.values())
    normalized: Dict[int, int] = {}
    for symbol, freq in present.items():
        normalized[symbol] = max(1, (freq * table_size) // total)
    # Fix the sum by adjusting the largest-count symbol.
    error = table_size - sum(normalized.values())
    if error != 0:
        largest = max(normalized, key=lambda s: (normalized[s], present[s]))
        if normalized[largest] + error < 1:
            # Pathological many-rare-symbols case: shave counts > 1 greedily.
            for symbol in sorted(normalized, key=normalized.get, reverse=True):
                while error < 0 and normalized[symbol] > 1:
                    normalized[symbol] -= 1
                    error += 1
            if error:
                raise ValueError("cannot normalize distribution into table")
        else:
            normalized[largest] += error
    return normalized


def spread_symbols(normalized: Dict[int, int], accuracy_log: int) -> List[int]:
    """Scatter symbol occurrences across the state table (zstd spread step)."""
    table_size = 1 << accuracy_log
    step = (table_size >> 1) + (table_size >> 3) + 3
    mask = table_size - 1
    spread = [-1] * table_size
    pos = 0
    for symbol in sorted(normalized):
        for _ in range(normalized[symbol]):
            spread[pos] = symbol
            pos = (pos + step) & mask
    if any(s < 0 for s in spread):
        raise AssertionError("spread left unassigned slots")  # unreachable: step is odd
    return spread


@dataclass(frozen=True)
class DecodeEntry:
    """One SRAM row of the hardware FSE decode table (§5.4)."""

    symbol: int
    num_bits: int
    baseline: int


def reference_decode_entries(normalized: Dict[int, int], accuracy_log: int) -> List[DecodeEntry]:
    """Row-by-row decode-table build: the specification the vectorized
    column build in :class:`FseTable` is tested and benchmarked against."""
    table_size = 1 << accuracy_log
    occurrence: Dict[int, int] = {s: 0 for s in normalized}
    entries: List[DecodeEntry] = []
    for symbol in spread_symbols(normalized, accuracy_log):
        count = normalized[symbol]
        x_top = count + occurrence[symbol]
        occurrence[symbol] += 1
        num_bits = accuracy_log - (x_top.bit_length() - 1)
        baseline = (x_top << num_bits) - table_size
        entries.append(DecodeEntry(symbol, num_bits, baseline))
    return entries


class FseTable:
    """Encode/decode tables built from a normalized count distribution.

    Construction only validates the counts; each direction builds its own
    table lazily, from one vectorized spread, on first use.
    """

    def __init__(self, normalized: Dict[int, int], accuracy_log: int) -> None:
        table_size = 1 << accuracy_log
        if sum(normalized.values()) != table_size:
            raise ValueError("normalized counts must sum to the table size")
        self.accuracy_log = accuracy_log
        self.table_size = table_size
        self.normalized = dict(normalized)

    @classmethod
    def from_frequencies(cls, frequencies: Dict[int, int], accuracy_log: int = DEFAULT_ACCURACY_LOG) -> "FseTable":
        return cls(normalize_counts(frequencies, accuracy_log), accuracy_log)

    @cached_property
    def _spread_order(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(spread, order, counts)``: the symbol at each state (the
        sequential spread's ``k``-th placement lands on ``(k * step) & mask``,
        so it is one scatter), the states grouped by ascending symbol in
        state order, and each symbol's count in that symbol order."""
        table_size = self.table_size
        step = (table_size >> 1) + (table_size >> 3) + 3
        symbols = sorted(self.normalized)
        counts = np.array([self.normalized[s] for s in symbols], dtype=np.int64)
        placements = (np.arange(table_size, dtype=np.int64) * step) & (table_size - 1)
        spread = np.empty(table_size, dtype=np.int64)
        spread[placements] = np.repeat(np.array(symbols, dtype=np.int64), counts)
        order = np.argsort(spread, kind="stable")
        return spread, order, counts

    @cached_property
    def _decode_columns(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The decode table as per-field columns plus bit masks, built with
        numpy, never row by row: the decode loop indexes plain lists — the
        Python analogue of the hardware table reader streaming SRAM columns.
        """
        table_size = self.table_size
        spread, order, counts = self._spread_order
        # Walking the states grouped by symbol, x_top is the symbol's count
        # plus the state's occurrence index within its group.
        group_start = np.cumsum(counts) - counts
        x_top = np.empty(table_size, dtype=np.int64)
        x_top[order] = np.repeat(counts - group_start, counts) + np.arange(table_size)
        # frexp's exponent is the exact bit length of an integer-valued float.
        num_bits = self.accuracy_log + 1 - np.frexp(x_top.astype(np.float64))[1]
        baselines = (x_top << num_bits) - table_size
        masks = (np.int64(1) << num_bits) - 1
        return spread.tolist(), num_bits.tolist(), baselines.tolist(), masks.tolist()

    @cached_property
    def decode_entries(self) -> List[DecodeEntry]:
        """The decode table as SRAM rows (hardware-model/test view)."""
        symbols, num_bits, baselines, _ = self._decode_columns
        return [DecodeEntry(*row) for row in zip(symbols, num_bits, baselines)]

    @cached_property
    def _states(self) -> Dict[int, List[int]]:
        """Per-symbol occurrence states, in spread order: encode transitions
        for the reference step."""
        _, order, counts = self._spread_order
        groups = np.split(order + self.table_size, np.cumsum(counts)[:-1])
        return {s: g.tolist() for s, g in zip(sorted(self.normalized), groups)}

    @cached_property
    def _symbol_transforms(self) -> Tuple[List[int], List[int], List[int], np.ndarray]:
        """zstd's ``symbolTT`` and state table, as lists indexed by symbol.

        Returns ``(delta_nb_bits, delta_find_state, next_state,
        delta_nb_bits_array)``. For a symbol of count ``c`` whose states
        start at ``start`` in the symbol-grouped state table, a state ``x``
        in ``[T, 2T)`` emits ``(x + delta_nb_bits) >> 16`` bits — the
        smallest ``nb`` with ``x >> nb < 2c`` — and moves to
        ``next_state[(x >> nb) + delta_find_state]``, where
        ``delta_find_state = start - c``. Absent symbols hold zeros.
        """
        _, order, counts = self._spread_order
        size = max(self.normalized) + 1
        delta_nb = [0] * size
        delta_find = [0] * size
        start = 0
        for symbol, count in zip(sorted(self.normalized), counts.tolist()):
            # ``(count - 1).bit_length() - 1`` is zstd's highbit(count - 1);
            # at count 1 it is -1, which still yields accuracy_log bits for
            # every state below 2T.
            max_bits_out = self.accuracy_log + 1 - (count - 1).bit_length()
            delta_nb[symbol] = (max_bits_out << 16) - (count << max_bits_out)
            delta_find[symbol] = start - count
            start += count
        next_state = (order + self.table_size).tolist()
        return delta_nb, delta_find, next_state, np.array(delta_nb, dtype=np.int64)

    def encode_cost_bits(self, symbol: int) -> float:
        """Average bits to code ``symbol`` (for cost models): -log2(p)."""
        import math

        return -math.log2(self.normalized[symbol] / self.table_size)

    def _encode_step(self, state: int, symbol: int) -> Tuple[int, int, int]:
        """One ANS step: returns (new_state, bits_value, num_bits)."""
        count = self.normalized.get(symbol)
        if not count:
            raise ValueError(f"symbol {symbol} absent from FSE table")
        num_bits = 0
        while (state >> num_bits) >= 2 * count:
            num_bits += 1
        bits_value = state & ((1 << num_bits) - 1)
        x_top = state >> num_bits
        new_state = self._states[symbol][x_top - count]
        return new_state, bits_value, num_bits

    def reference_encode(self, symbols: Sequence[int]) -> Tuple[bytes, int, int]:
        """Step-by-step encode through :class:`BitWriter`: the specification
        :meth:`encode` is tested and benchmarked against."""
        state = self.table_size
        ops: List[Tuple[int, int]] = []
        for symbol in reversed(symbols):
            state, bits_value, num_bits = self._encode_step(state, symbol)
            ops.append((bits_value, num_bits))
        writer = BitWriter()
        for bits_value, num_bits in reversed(ops):
            writer.write(bits_value, num_bits)
        return writer.getvalue(), state, writer.bit_length

    def encode(self, symbols: Sequence[int]) -> Tuple[bytes, int, int]:
        """Encode a symbol sequence.

        Returns ``(payload, final_state, bit_length)``. Symbols are processed
        in reverse (ANS is LIFO) but the payload is laid out so a decoder
        starting from ``final_state`` reads bits forward and emits symbols in
        the original order. Each step is one add, two shifts and one
        next-state lookup over zstd's ``symbolTT``; the bit fields follow
        from the visited states and are packed at once.
        """
        with obs.stage("stage.fse.encode"):
            absent = set(symbols).difference(self.normalized)
            if absent:
                first = next(s for s in reversed(symbols) if s in absent)
                raise ValueError(f"symbol {first} absent from FSE table")
            delta_nb, delta_find, next_state, delta_nb_array = self._symbol_transforms
            state = self.table_size  # lowest valid state as the sentinel start
            visited: List[int] = []
            append = visited.append
            for symbol in reversed(symbols):
                append(state)
                num_bits = (state + delta_nb[symbol]) >> 16
                state = next_state[(state >> num_bits) + delta_find[symbol]]
            # The decoder reads forward: fields go out in symbol order.
            states = np.array(visited[::-1], dtype=np.int64)
            if isinstance(symbols, (bytes, bytearray)):
                symbol_arr = np.frombuffer(symbols, dtype=np.uint8)
            else:
                symbol_arr = np.asarray(symbols, dtype=np.int64)
            widths = (states + delta_nb_array[symbol_arr]) >> 16
            payload, bit_length = pack_fields(states & ((1 << widths) - 1), widths)
            obs.counter_add("stage.fse.encode.symbols", len(symbols))
        return payload, state, bit_length

    def decode(self, payload: bytes, initial_state: int, count: int) -> List[int]:
        """Decode exactly ``count`` symbols starting from ``initial_state``.

        Verifies the coder lands back on the sentinel state, which catches
        corrupted payloads with high probability.
        """
        if not self.table_size <= initial_state < 2 * self.table_size:
            raise CorruptStreamError(f"FSE initial state {initial_state} out of range")
        with obs.stage("stage.fse.decode"):
            symbols, num_bits, baselines, masks = self._decode_columns
            windows = u64_windows(payload).tolist()
            total_bits = 8 * len(payload)
            pos = 0
            # Track the table index (state - table_size) directly; every
            # transition lands back in range by construction of the table.
            state = initial_state - self.table_size
            out: List[int] = []
            append = out.append
            for _ in range(count):
                append(symbols[state])
                nb = num_bits[state]
                if nb:
                    if nb > total_bits - pos:
                        raise CorruptStreamError(
                            f"bitstream underflow: wanted {nb}, have {total_bits - pos}"
                        )
                    bits = (windows[pos >> 3] >> (pos & 7)) & masks[state]
                    pos += nb
                else:
                    bits = 0
                state = baselines[state] + bits
            if state != 0:
                raise CorruptStreamError("FSE stream did not terminate on sentinel state")
            obs.counter_add("stage.fse.decode.symbols", count)
        return out

    def serialize_counts(self, alphabet_size: int) -> bytes:
        """Pack normalized counts as fixed-width fields (table header).

        Width is ``accuracy_log + 1`` bits per symbol, enough for the maximum
        count ``2**accuracy_log``.
        """
        if self.normalized and max(self.normalized) >= alphabet_size:
            raise ValueError("symbol outside declared alphabet")
        width = self.accuracy_log + 1
        counts = np.array(
            [self.normalized.get(symbol, 0) for symbol in range(alphabet_size)],
            dtype=np.int64,
        )
        bits = (counts[:, None] >> np.arange(width)) & 1
        return np.packbits(bits.astype(np.uint8).ravel(), bitorder="little").tobytes()

    @classmethod
    def deserialize_counts(
        cls, data: bytes, alphabet_size: int, accuracy_log: int, pos: int = 0
    ) -> Tuple["FseTable", int]:
        """Inverse of :meth:`serialize_counts` for the header at ``data[pos:]``;
        returns (table, bytes read)."""
        width = accuracy_log + 1
        header_bytes = (alphabet_size * width + 7) // 8
        counts, underflow = read_fields(data[pos : pos + header_bytes], [width] * alphabet_size)
        if underflow is not None:
            raise underflow
        normalized = {symbol: count for symbol, count in enumerate(counts.tolist()) if count}
        if sum(normalized.values()) != (1 << accuracy_log):
            raise CorruptStreamError("FSE header counts do not sum to table size")
        return cls(normalized, accuracy_log), header_bytes


# ---------------------------------------------------------------------------
# Byte-block adapter (the codec-graph ``fse`` backend stage)
# ---------------------------------------------------------------------------

#: Block mode bytes: raw passthrough vs entropy-coded.
_BLOCK_RAW = 0
_BLOCK_CODED = 1
_BYTE_ALPHABET = 256


def _block_accuracy_log(data: bytes, distinct: int) -> int:
    """Table size heuristic: grow with the block, stay above the alphabet."""
    chosen = max(len(data).bit_length() - 2, distinct.bit_length())
    return max(MIN_ACCURACY_LOG, min(DEFAULT_ACCURACY_LOG, chosen))


def encode_byte_block(data: bytes) -> bytes:
    """Self-delimiting FSE block over raw bytes.

    Layout: one mode byte (0 raw, 1 coded); coded blocks carry the accuracy
    log, a varint symbol count, the normalized-count table header, a varint
    final state, and the bitstream. Falls back to raw whenever coding does
    not shrink the block, so output never exceeds ``len(data) + 1`` bytes.
    """
    if data:
        frequencies = {}
        for byte in data:
            frequencies[byte] = frequencies.get(byte, 0) + 1
        accuracy_log = _block_accuracy_log(data, len(frequencies))
        table = FseTable.from_frequencies(frequencies, accuracy_log)
        payload, final_state, _ = table.encode(data)
        coded = (
            bytes([_BLOCK_CODED, accuracy_log])
            + encode_varint(len(data))
            + table.serialize_counts(_BYTE_ALPHABET)
            + encode_varint(final_state)
            + payload
        )
        if len(coded) <= len(data):
            return coded
    return bytes([_BLOCK_RAW]) + data


def decode_byte_block(data: bytes, *, max_count: int = 1 << 26) -> bytes:
    """Inverse of :func:`encode_byte_block`.

    A decode surface: raises :class:`CorruptStreamError` on any block it
    cannot invert. ``max_count`` bounds the declared symbol count — FSE
    symbols can legitimately cost zero bits, so unlike Huffman the payload
    size does not bound the count and an explicit cap is required.
    """
    from repro.algorithms.container import try_decode_varint

    if not data:
        raise CorruptStreamError("empty FSE block")
    mode = data[0]
    if mode == _BLOCK_RAW:
        return data[1:]
    if mode != _BLOCK_CODED:
        raise CorruptStreamError(f"unknown FSE block mode {mode}")
    if len(data) < 2:
        raise CorruptStreamError("truncated FSE block accuracy log")
    accuracy_log = data[1]
    if not MIN_ACCURACY_LOG <= accuracy_log <= MAX_ACCURACY_LOG:
        raise CorruptStreamError(f"FSE block accuracy log {accuracy_log} out of range")
    decoded = try_decode_varint(data, 2, max_bits=32)
    if decoded is None:
        raise CorruptStreamError("truncated FSE block symbol count")
    count, pos = decoded
    if count > max_count:
        raise CorruptStreamError(
            f"FSE block declares {count} symbols (limit {max_count})"
        )
    header_bytes = (_BYTE_ALPHABET * (accuracy_log + 1) + 7) // 8
    if len(data) - pos < header_bytes:
        raise CorruptStreamError("truncated FSE block table header")
    table, consumed = FseTable.deserialize_counts(
        data[pos:], _BYTE_ALPHABET, accuracy_log
    )
    pos += consumed
    decoded = try_decode_varint(data, pos, max_bits=32)
    if decoded is None:
        raise CorruptStreamError("truncated FSE block state")
    initial_state, pos = decoded
    return bytes(table.decode(data[pos:], initial_state, count))
