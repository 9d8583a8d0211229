"""Parameterized LZ77 dictionary coding (paper §2.1, §5.5).

This module is the shared dictionary-coding substrate: the Snappy, ZStd-like,
Flate-like, Gipfeli-like and LZO-like codecs all obtain their
``(offset, length, literal)`` streams from :class:`Lz77Encoder`, and the CDPU
hardware model reuses the same matcher (with its hardware parameter settings)
so that ratio losses from small history windows or small hash tables come from
the *real* data, not an analytic approximation.

The encoder exposes exactly the knobs the paper's CDPU generator exposes for
its LZ77 encoder block (§5.8 parameters 4-8):

* history window size (max match offset),
* hash-table entry count,
* hash-table associativity,
* hash-table contents (position only, or position + tag),
* hash function.

plus the software-only "skipping" heuristic from the Snappy library, which the
paper calls out in §6.3 as the reason the hardware accelerator *beats* the
software compression ratio by 1.1%.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.hashing import get_hash_function, get_vectorized_hash
from repro.common.units import is_power_of_two

MIN_MATCH = 4

#: Below this input size the numpy batch-hash setup costs more than the
#: per-position scalar hashing it replaces; both paths produce identical
#: slot/tag sequences (tested property), so the threshold is purely a
#: performance knob.
_VECTOR_MIN_BYTES = 512

#: Match extension compares blocks of this many bytes (one memcmp each)
#: before finishing byte-wise inside the mismatching block.
_EXTEND_BLOCK = 64


@dataclass(frozen=True)
class Literal:
    """A run of bytes emitted verbatim."""

    data: bytes

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class Copy:
    """A back-reference: copy ``length`` bytes from ``offset`` bytes back."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset <= 0:
            raise ValueError(f"copy offset must be positive, got {self.offset}")
        if self.length <= 0:
            raise ValueError(f"copy length must be positive, got {self.length}")


Token = Union[Literal, Copy]


@dataclass
class MatcherStats:
    """Counters the hardware cycle model consumes (per-call granularity)."""

    positions_hashed: int = 0
    candidates_checked: int = 0
    candidates_rejected: int = 0
    matches_found: int = 0
    match_bytes: int = 0
    literal_bytes: int = 0

    @property
    def collision_rate(self) -> float:
        """Fraction of checked candidates that failed verification."""
        if not self.candidates_checked:
            return 0.0
        return self.candidates_rejected / self.candidates_checked


class TokenStream:
    """An ordered sequence of LZ77 tokens plus derived statistics.

    The hardware pipelines evaluate cycle counts from these statistics
    (vectorized with numpy), so the stream caches its array views.
    """

    def __init__(self, tokens: Sequence[Token], source_length: int) -> None:
        self.tokens: List[Token] = list(tokens)
        self.source_length = source_length
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def _build_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            literal_runs = [len(t.data) for t in self.tokens if isinstance(t, Literal)]
            offsets = [t.offset for t in self.tokens if isinstance(t, Copy)]
            lengths = [t.length for t in self.tokens if isinstance(t, Copy)]
            self._arrays = (
                np.asarray(literal_runs, dtype=np.int64),
                np.asarray(offsets, dtype=np.int64),
                np.asarray(lengths, dtype=np.int64),
            )
        return self._arrays

    @property
    def literal_run_lengths(self) -> np.ndarray:
        return self._build_arrays()[0]

    @property
    def copy_offsets(self) -> np.ndarray:
        return self._build_arrays()[1]

    @property
    def copy_lengths(self) -> np.ndarray:
        return self._build_arrays()[2]

    @property
    def literal_bytes(self) -> int:
        return int(self.literal_run_lengths.sum())

    @property
    def copy_bytes(self) -> int:
        return int(self.copy_lengths.sum())

    @property
    def num_copies(self) -> int:
        return len(self.copy_offsets)

    @property
    def num_literal_runs(self) -> int:
        return len(self.literal_run_lengths)

    def output_length(self) -> int:
        """Total decompressed length this stream reconstructs."""
        return self.literal_bytes + self.copy_bytes

    def fallback_copy_count(self, sram_bytes: int) -> int:
        """Copies whose offset exceeds an on-accelerator history of
        ``sram_bytes`` — each becomes an off-chip history lookup (§5.2)."""
        return int((self.copy_offsets > sram_bytes).sum())

    def fallback_copy_bytes(self, sram_bytes: int) -> int:
        """Bytes produced by copies that fall back off-chip."""
        mask = self.copy_offsets > sram_bytes
        return int(self.copy_lengths[mask].sum())


@dataclass(frozen=True)
class Lz77Params:
    """Compile-time/run-time parameters of the LZ77 encoder (§5.8, 4-8)."""

    window_size: int = 64 * 1024
    hash_table_entries: int = 1 << 14
    associativity: int = 1
    hash_table_contents: str = "position"  # or "position_and_tag"
    hash_function: str = "multiplicative"
    #: Longest copy the encoder emits; ``None`` leaves copies unbounded.
    max_match_length: Optional[int] = None
    use_skipping: bool = False
    #: Minimum match length. Snappy-family formats need 4; zstd accepts 3,
    #: which its software levels exploit for denser matching.
    min_match: int = MIN_MATCH
    #: One-step lazy matching (zstd-style): before committing to a match,
    #: peek at the next position and defer if it matches longer. Improves
    #: ratio at extra search cost; software heavyweight codecs enable it at
    #: mid/high levels, the hardware encoder (greedy, "as configured for
    #: Snappy", §6.5) does not.
    lazy: bool = False

    def __post_init__(self) -> None:
        if self.window_size < MIN_MATCH:
            raise ConfigError(f"window_size {self.window_size} < MIN_MATCH")
        if not is_power_of_two(self.hash_table_entries):
            raise ConfigError(
                f"hash_table_entries must be a power of two, got {self.hash_table_entries}"
            )
        if self.associativity < 1:
            raise ConfigError(f"associativity must be >= 1, got {self.associativity}")
        if self.min_match not in (3, 4):
            raise ConfigError(f"min_match must be 3 or 4, got {self.min_match}")
        if self.max_match_length is not None and self.max_match_length < self.min_match:
            raise ConfigError(
                f"max_match_length must be None (unlimited) or >= min_match "
                f"{self.min_match}, got {self.max_match_length}"
            )
        if self.hash_table_contents not in ("position", "position_and_tag"):
            raise ConfigError(
                f"hash_table_contents must be 'position' or 'position_and_tag', "
                f"got {self.hash_table_contents!r}"
            )
        get_hash_function(self.hash_function)  # validate eagerly

    @property
    def hash_bits(self) -> int:
        return self.hash_table_entries.bit_length() - 1


class Lz77Encoder:
    """Greedy hash-table LZ77 matcher.

    Mirrors the structure of the hardware LZ77 encoder block: hash the next
    4 bytes, probe the (set-associative) hash table, verify candidates against
    the history window, extend the longest verified match, emit a copy or
    accumulate a literal byte. With ``use_skipping`` the software library's
    incompressible-data skipping heuristic is enabled (hardware leaves it
    off, per §6.3).
    """

    def __init__(self, params: Lz77Params = Lz77Params()) -> None:
        self.params = params
        self._hash = get_hash_function(params.hash_function)

    def encode(self, data: bytes, *, collect_stats: bool = False) -> TokenStream:
        """Produce the token stream for ``data`` (never raises on any input)."""
        if collect_stats:
            stream, _ = self.encode_with_stats(data)
            return stream
        with obs.stage("stage.lz77.encode"):
            stream = self._encode(data, None)
            obs.counter_add("stage.lz77.encode.bytes", len(data))
        return stream

    def encode_with_stats(self, data: bytes) -> Tuple[TokenStream, MatcherStats]:
        stats = MatcherStats()
        with obs.stage("stage.lz77.encode"):
            stream = self._encode(data, stats)
            obs.counter_add("stage.lz77.encode.bytes", len(data))
        return stream, stats

    def _hash_positions(
        self, data: bytes, n: int
    ) -> Tuple[List[int], List[int], List[int], Optional[List[int]]]:
        """Per-position hash slots (masked + raw), masked words and tags.

        Returns ``(slots, slots_raw, words, tags)``: ``words[p]`` is the
        little-endian word at ``p`` masked to ``min_match`` bytes (so two
        probe positions share a ``min_match`` prefix exactly when their
        words are equal), ``slots[p]`` the bucket the probe at ``p`` indexes
        (the hash of ``words[p]``), ``slots_raw[p]`` the bucket the in-match
        insertion indexes (hash of the raw 32-bit word — identical to
        ``slots`` when ``min_match == 4``), and ``tags`` the low byte per
        position (``None`` unless the table stores tags). Large inputs
        batch-hash every position with numpy; small ones use the scalar
        hash. Both paths are bit-identical by construction.
        """
        params = self.params
        min_match = params.min_match
        hash_bits = params.hash_bits
        hash_mask = (1 << (8 * min_match)) - 1 if min_match < 4 else 0xFFFFFFFF
        tagged = params.hash_table_contents == "position_and_tag"
        if n >= _VECTOR_MIN_BYTES:
            padded = np.frombuffer(bytes(data) + b"\x00\x00\x00", dtype=np.uint8)
            arr = padded.astype(np.uint64)
            raw = (
                arr[0:n]
                | (arr[1 : n + 1] << np.uint64(8))
                | (arr[2 : n + 2] << np.uint64(16))
                | (arr[3 : n + 3] << np.uint64(24))
            )
            masked = raw & np.uint64(hash_mask)
            vec_hash = get_vectorized_hash(params.hash_function)
            slots = vec_hash(masked, hash_bits).tolist()
            slots_raw = vec_hash(raw, hash_bits).tolist() if min_match < 4 else slots
            tags = (raw & np.uint64(0xFF)).tolist() if tagged else None
            return slots, slots_raw, masked.tolist(), tags
        hash_fn = self._hash
        # load_u32le's little-endian 32-bit words, zero-padded past the end.
        raw_words = [int.from_bytes(data[pos : pos + 4], "little") for pos in range(n)]
        words = raw_words if min_match >= 4 else [w & hash_mask for w in raw_words]
        slots = [hash_fn(w, hash_bits) for w in words]
        slots_raw = slots if min_match >= 4 else [hash_fn(w, hash_bits) for w in raw_words]
        tags = [w & 0xFF for w in raw_words] if tagged else None
        return slots, slots_raw, words, tags

    def _encode(self, data: bytes, stats: Optional[MatcherStats]) -> TokenStream:
        params = self.params
        min_match = params.min_match
        n = len(data)
        tokens: List[Token] = []
        if n < min_match:
            if n:
                tokens.append(Literal(data))
                if stats is not None:
                    stats.literal_bytes += n
            return TokenStream(tokens, n)

        ways = params.associativity
        window = params.window_size
        max_match = n if params.max_match_length is None else params.max_match_length
        slots_list, slots_raw, words, tags_list = self._hash_positions(data, n)
        tagged = tags_list is not None
        # Sparse per-call hash table: a bucket comes into being the first
        # time a position indexes it, so a call pays for the slots it
        # touches, not for the table size, and nothing survives the call.
        # A stored tag is always its position's low byte, so tags are read
        # from ``tags_list`` rather than kept alongside the positions.
        table: DefaultDict[int, List[int]] = defaultdict(list)

        literal_start = 0
        pos = 0
        limit = n - min_match + 1
        skip_credit = 32  # Snappy SW heuristic state: bytes between lookups = skip>>5
        lazy = params.lazy

        def probe(at: int) -> Tuple[int, int]:
            """Find the best match at ``at`` and insert it into the table."""
            if stats is not None:
                stats.positions_hashed += 1
            best_len = 0
            best_off = 0
            bucket = table[slots_list[at]]
            if bucket:
                word = words[at]
                tag = tags_list[at] if tagged else 0
                max_here = min(max_match, n - at)
                for cand in bucket:
                    dist = at - cand
                    if dist <= 0 or dist > window:
                        continue
                    if tagged and tags_list[cand] != tag:
                        # Tag mismatch filters the probe without a history read.
                        continue
                    if stats is not None:
                        stats.candidates_checked += 1
                    if words[cand] != word:
                        if stats is not None:
                            stats.candidates_rejected += 1
                        continue
                    # Extend block-wise (each comparison is one memcmp), then
                    # finish byte-wise inside the first mismatching block —
                    # identical first-mismatch result to the byte loop.
                    length = min_match
                    while length < max_here:
                        step = min(_EXTEND_BLOCK, max_here - length)
                        if (
                            data[cand + length : cand + length + step]
                            == data[at + length : at + length + step]
                        ):
                            length += step
                        else:
                            while (
                                length < max_here
                                and data[cand + length] == data[at + length]
                            ):
                                length += 1
                            break
                    if length > best_len:
                        best_len = length
                        best_off = dist
            # Insert current position (LRU within the set).
            if len(bucket) >= ways:
                bucket.pop(0)
            bucket.append(at)
            return best_len, best_off

        while pos < limit:
            best_len, best_off = probe(pos)
            if lazy and min_match <= best_len < 32 and pos + 1 < limit:
                next_len, next_off = probe(pos + 1)
                if next_len > best_len + 1:
                    # Defer: today's byte becomes a literal, take tomorrow's
                    # longer match instead (one-step lazy parse).
                    pos += 1
                    best_len, best_off = next_len, next_off

            if best_len >= min_match:
                if literal_start < pos:
                    lit = data[literal_start:pos]
                    tokens.append(Literal(lit))
                    if stats is not None:
                        stats.literal_bytes += len(lit)
                tokens.append(Copy(offset=best_off, length=best_len))
                if stats is not None:
                    stats.matches_found += 1
                    stats.match_bytes += best_len
                # Index a couple of in-match positions so overlapping repeats
                # remain findable, then jump past the match (greedy).
                step = max(1, best_len // 2)
                inner = pos + step
                if inner < limit:
                    b2 = table[slots_raw[inner]]
                    if len(b2) >= ways:
                        b2.pop(0)
                    b2.append(inner)
                pos += best_len
                literal_start = pos
                skip_credit = 32
            else:
                if params.use_skipping:
                    # Snappy library heuristic: every 32 misses, start
                    # skipping more bytes between hash lookups.
                    advance = skip_credit >> 5
                    skip_credit += 1
                    pos += max(1, advance)
                else:
                    pos += 1

        if literal_start < n:
            lit = data[literal_start:]
            tokens.append(Literal(lit))
            if stats is not None:
                stats.literal_bytes += len(lit)
        return TokenStream(tokens, n)


def copy_match(out: bytearray, offset: int, length: int) -> None:
    """Append ``length`` bytes copied from ``offset`` back: the one LZ77
    match-copy kernel of every decoder here.

    A non-overlapping copy is one slice append; an overlapping one repeats
    the last ``offset`` bytes as a pattern — exactly what the byte loop
    (:func:`reference_copy_match`) produces. Callers check ``1 <= offset
    <= len(out)`` and bound ``length`` first: the copy is allocated at once.
    """
    start = len(out) - offset
    if length <= offset:
        out += out[start : start + length]
    else:
        reps, rem = divmod(length, offset)
        pattern = out[start:]
        out += pattern * reps + pattern[:rem]


def reference_copy_match(out: bytearray, offset: int, length: int) -> None:
    """Byte-at-a-time match copy: the specification :func:`copy_match` is
    tested and benchmarked against."""
    start = len(out) - offset
    for i in range(length):
        out.append(out[start + i])


def execute_sequences(
    out: bytearray,
    literals: bytes,
    literal_lengths: Sequence[int],
    offsets: Sequence[int],
    match_lengths: Sequence[int],
    trailing: int,
    *,
    history_start: int,
    max_offset: int,
    end: int,
    bad_offset: str,
    bad_trailing: str,
    wrong_size: str,
    pending: Optional[CorruptStreamError] = None,
) -> None:
    """Execute sequences, then the ``trailing`` literals, into ``out``,
    which must end at length ``end`` (the zstd/flate/brotli decode loop).

    A match may reach back to index ``history_start`` and at most
    ``max_offset`` bytes. A literal run or match that would pass ``end``
    raises ``wrong_size`` *before* it is copied, so a forged length costs
    neither time nor memory. ``pending`` (an error decoding a later
    sequence) is raised once the complete sequences have executed.
    """
    lit_pos = 0
    available = len(literals)
    size = len(out)  # tracked, not re-measured: the loop is per sequence
    for literal_length, offset, match_length in zip(literal_lengths, offsets, match_lengths):
        lit_end = lit_pos + literal_length
        if lit_end > available:
            raise CorruptStreamError("sequences overrun literal buffer")
        size += literal_length
        if size > end:
            raise CorruptStreamError(wrong_size)
        out += literals[lit_pos:lit_end]
        lit_pos = lit_end
        if offset <= 0 or offset > max_offset or offset > size - history_start:
            raise CorruptStreamError(bad_offset.format(offset=offset))
        size += match_length
        if size > end:
            raise CorruptStreamError(wrong_size)
        copy_match(out, offset, match_length)
    if pending is not None:
        raise pending
    if lit_pos + trailing != available:
        raise CorruptStreamError(bad_trailing)
    out += literals[lit_pos:]
    if len(out) != end:
        raise CorruptStreamError(wrong_size)


def decode_tokens(tokens: Iterable[Token], *, expected_length: Optional[int] = None) -> bytes:
    """Reference LZ77 decoder: reconstruct bytes from a token stream.

    Validates offsets (a copy may not reach before the start of output) and,
    when given, the expected output length — a copy that would overrun it
    is rejected before it is executed. Overlapping copies (offset <
    length) replicate bytes, as in all LZ77 formats.
    """
    with obs.stage("stage.lz77.decode"):
        out = bytearray()
        limit = sys.maxsize if expected_length is None else expected_length
        for token in tokens:
            if isinstance(token, Literal):
                out += token.data
                continue
            if token.offset > len(out):
                raise CorruptStreamError(
                    f"copy offset {token.offset} reaches before start of output "
                    f"(only {len(out)} bytes produced)"
                )
            if len(out) + token.length > limit:
                raise CorruptStreamError(f"decoded length exceeds expected {expected_length}")
            copy_match(out, token.offset, token.length)
        if expected_length is not None and len(out) != expected_length:
            raise CorruptStreamError(
                f"decoded length {len(out)} != expected {expected_length}"
            )
        obs.counter_add("stage.lz77.decode.bytes", len(out))
    return bytes(out)


def split_long_copies(tokens: Iterable[Token], max_length: int) -> List[Token]:
    """Split copies longer than ``max_length`` (format-layer helper).

    Snappy copy elements encode at most 64 bytes; formats call this before
    serialization. Splitting preserves semantics because each fragment copies
    from the same offset relative to its own position.
    """
    out: List[Token] = []
    for token in tokens:
        if isinstance(token, Copy) and token.length > max_length:
            remaining = token.length
            while remaining > 0:
                take = min(max_length, remaining)
                out.append(Copy(offset=token.offset, length=take))
                remaining -= take
        else:
            out.append(token)
    return out
