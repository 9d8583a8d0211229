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

from bisect import bisect_left
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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

#: A table over this many slots per input byte is numbered densely per call
#: instead of allocated at full size: renumbering costs about as much per
#: input byte as allocating this many slots.
_DENSE_TABLE_RATIO = 32

#: Past this many matched bytes, extension switches from word compares to
#: ``_EXTEND_BLOCK``-byte memcmps (long matches are rare but can be huge).
_EXTEND_WORDS = 32


@dataclass(frozen=True)
class Literal:
    """A run of bytes emitted verbatim (the :meth:`TokenStream.tokens` view)."""

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

    def __add__(self, other: "MatcherStats") -> "MatcherStats":
        """Counts of two matcher runs together (``sum`` over blocks)."""
        return MatcherStats(*(a + b for a, b in zip(astuple(self), astuple(other))))

    @property
    def collision_rate(self) -> float:
        """Fraction of checked candidates that failed verification."""
        if not self.candidates_checked:
            return 0.0
        return self.candidates_rejected / self.candidates_checked


class TokenStream:
    """An LZ77 token stream in zstd's sequence form.

    Copy ``i`` executes after ``literal_lengths[i]`` literal bytes; the
    ``trailing`` literals follow the last copy. ``literals`` concatenates
    every literal byte in order. A parsed stream may carry two literal
    elements back to back (zstd raw/RLE block boundaries, consecutive
    Snappy literal elements): ``breaks`` lists the literal-buffer positions
    where one such element ends and the next begins, so ``len()`` — the
    element count the cycle model charges per token — is that of the
    element sequence, not of the merged runs. The encoder never emits one.
    """

    def __init__(
        self,
        literal_lengths: List[int],
        offsets: List[int],
        match_lengths: List[int],
        literals: bytes,
        trailing: int,
        breaks: Sequence[int] = (),
    ) -> None:
        self.literal_lengths = literal_lengths
        self.offsets = offsets
        self.match_lengths = match_lengths
        self.literals = literals
        self.trailing = trailing
        self.breaks = breaks

    @classmethod
    def from_tokens(cls, tokens: Sequence[Token]) -> "TokenStream":
        """Build the columns from ``Literal``/``Copy`` objects (reference
        code and tests)."""
        builder = TokenStreamBuilder()
        for token in tokens:
            if isinstance(token, Literal):
                builder.literal(token.data)
            else:
                builder.copy(token.offset, token.length)
        return builder.build()

    def __len__(self) -> int:
        return self.element_count

    @cached_property
    def element_count(self) -> int:
        lengths = self.literal_lengths
        runs = len(lengths) - lengths.count(0) + (self.trailing > 0) + len(self.breaks)
        return len(lengths) + runs

    def sequences(self) -> Iterator[Tuple[bytes, int, int]]:
        """``(literal run, offset, match length)`` per copy, in order; the
        ``tail`` literals follow."""
        literals = self.literals
        pos = 0
        for literal_length, offset, match_length in zip(
            self.literal_lengths, self.offsets, self.match_lengths
        ):
            end = pos + literal_length
            yield literals[pos:end], offset, match_length
            pos = end

    @property
    def tail(self) -> bytes:
        """The trailing literals (after the last copy)."""
        return self.literals[len(self.literals) - self.trailing :]

    def tokens(self) -> List[Token]:
        """The stream as ``Literal``/``Copy`` objects: one per element."""
        literals = self.literals
        cuts = [*self.breaks, len(literals) + 1]
        out: List[Token] = []
        pos = cut = 0
        for literal, offset, length in [*self.sequences(), (self.tail, 0, 0)]:
            end = pos + len(literal)
            while cuts[cut] < end:
                out.append(Literal(literals[pos : cuts[cut]]))
                pos = cuts[cut]
                cut += 1
            if pos < end:
                out.append(Literal(literals[pos:end]))
                pos = end
            if offset:
                out.append(Copy(offset=offset, length=length))
        return out

    @cached_property
    def copy_offsets(self) -> np.ndarray:
        return np.asarray(self.offsets, dtype=np.int64)

    @cached_property
    def copy_lengths(self) -> np.ndarray:
        return np.asarray(self.match_lengths, dtype=np.int64)

    @property
    def literal_bytes(self) -> int:
        return len(self.literals)

    @property
    def copy_bytes(self) -> int:
        return sum(self.match_lengths)

    @property
    def num_copies(self) -> int:
        return len(self.offsets)

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


class TokenStreamBuilder:
    """Appends parsed elements to :class:`TokenStream` columns: what every
    element/frame parser builds its stream with."""

    def __init__(self) -> None:
        self._literal_lengths: List[int] = []
        self._offsets: List[int] = []
        self._match_lengths: List[int] = []
        self._literals = bytearray()
        self._pending = 0
        self._breaks: List[int] = []

    def literal(self, run) -> None:
        """One literal element of ``run``'s bytes."""
        if self._pending:
            self._breaks.append(len(self._literals))
        self._literals += run
        self._pending += len(run)

    def copy(self, offset: int, length: int) -> None:
        """One copy element."""
        self._literal_lengths.append(self._pending)
        self._offsets.append(offset)
        self._match_lengths.append(length)
        self._pending = 0

    def rle(self, byte: int, length: int) -> None:
        """A ``length``-byte run of ``byte`` as it executes: one literal
        byte, then one maximal-overlap copy."""
        self.literal(bytes((byte,)))
        if length > 1:
            self.copy(1, length - 1)

    def extend(
        self,
        literals: bytes,
        literal_lengths: List[int],
        offsets: List[int],
        match_lengths: List[int],
        trailing: int,
    ) -> None:
        """A block's decoded sequences, as if each literal run (where
        non-empty) and copy were appended in turn. Raises
        :class:`CorruptStreamError` unless the runs and ``trailing`` use
        up ``literals`` exactly."""
        consumed = sum(literal_lengths)
        if consumed > len(literals):
            raise CorruptStreamError("sequence consumes more literals than present")
        if consumed + trailing != len(literals):
            raise CorruptStreamError(
                f"trailing literal count {trailing} inconsistent with literal buffer"
            )
        first = literal_lengths[0] if literal_lengths else trailing
        if self._pending and first:
            self._breaks.append(len(self._literals))
        self._literals += literals
        if literal_lengths:
            self._literal_lengths.append(self._pending + first)
            self._literal_lengths += literal_lengths[1:]
            self._offsets += offsets
            self._match_lengths += match_lengths
            self._pending = trailing
        else:
            self._pending += trailing

    def build(self) -> TokenStream:
        return TokenStream(
            self._literal_lengths,
            self._offsets,
            self._match_lengths,
            bytes(self._literals),
            self._pending,
            self._breaks,
        )


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

    def encode(self, data: bytes) -> TokenStream:
        """Produce the token stream for ``data`` (never raises on any input)."""
        window = self.params.window_size
        return self._match(data, [window])[window][0]

    def encode_with_stats(self, data: bytes) -> Tuple[TokenStream, MatcherStats]:
        window = self.params.window_size
        return self._match(data, [window])[window]

    def encode_windows(
        self, data: bytes, windows: Iterable[int]
    ) -> Dict[int, Tuple[TokenStream, MatcherStats]]:
        """One match pass serving every window in ``windows``: each window's
        tokens and stats, equal to :meth:`encode_with_stats` by an encoder
        whose ``window_size`` is that window (this encoder's own plays no
        part). The pass follows the largest window and splits off a run for
        the smaller ones only where one of them rejects a candidate the
        larger ones accept."""
        ordered = sorted(set(windows))
        if not ordered or ordered[0] < MIN_MATCH:
            raise ConfigError(f"windows must be non-empty and >= MIN_MATCH, got {ordered}")
        return self._match(data, ordered)

    def _match(
        self, data: bytes, windows: List[int]
    ) -> Dict[int, Tuple[TokenStream, MatcherStats]]:
        with obs.stage("stage.lz77.encode"):
            runs = self._encode(data, windows)
            obs.counter_add("stage.lz77.encode.bytes", len(data))
        return runs

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
            # The 32-bit word at every byte offset: an unaligned strided view.
            padded = bytes(data) + b"\x00\x00\x00"
            raw = np.ndarray((n,), dtype="<u4", buffer=padded, strides=(1,)).astype(np.uint64)
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

    def _encode(
        self, data: bytes, windows: List[int]
    ) -> Dict[int, Tuple[TokenStream, MatcherStats]]:
        """The match loop over a zlib-style head/chain table, for the
        ascending ``windows``.

        Every table insert is an *event*: the probe at ``p`` is event
        ``2p`` and the in-match insert at ``p`` event ``2p + 1`` (a lazy
        parse can insert one position both ways). ``head[slot]`` holds the
        slot's newest event and ``chain[event]`` the one before it in the
        same slot. A probe walks at most ``associativity`` events newest
        first and takes a candidate on ``length >= best``: the same set, the
        same oldest-wins tie-break and the same counts as the LRU-bucket
        loop it replaced (``tests/algorithms/lz77_reference.py``), which
        kept the last ``associativity`` inserts per slot and scanned them
        oldest first taking ``length > best``. Inserted positions never
        decrease, so the walk stops at the first candidate past the window.

        A *run* serves the windows that have agreed on every candidate so
        far and follows the largest. A candidate past the run's smallest
        window but within its largest splits it: the windows below the
        candidate's distance would have ended this walk here, so they leave
        as a new run. That run resumes from a copy of the state at this
        probe's start (``head`` without the probe's insert, ``chain``, the
        token lists, the counters less this probe's, and the scalar parse
        state) and re-walks the probe, which now ends at this candidate.
        """
        params = self.params
        min_match = params.min_match
        n = len(data)
        results: Dict[int, Tuple[TokenStream, MatcherStats]] = {}
        if n < min_match:
            # A loop, not a comprehension: a comprehension reading ``data``
            # or ``n`` would make them cell variables in the match loop.
            for window in windows:
                results[window] = TokenStream([], [], [], bytes(data), n), MatcherStats(
                    literal_bytes=n
                )
            return results

        ways = params.associativity
        max_match = n if params.max_match_length is None else params.max_match_length
        lazy = params.lazy
        skip_step = 1 if params.use_skipping else 0
        slots, slots_raw, words, tags = self._hash_positions(data, n)
        tagged = tags is not None
        entries = params.hash_table_entries
        if entries > _DENSE_TABLE_RATIO * n:
            # Number the slots this call touches densely: a bijection, so the
            # same collisions, and a table sized by the input, not the knob.
            dense = {}
            slots = [dense.setdefault(slot, len(dense)) for slot in slots]
            if min_match < 4:
                slots_raw = [dense.setdefault(slot, len(dense)) for slot in slots_raw]
            else:
                slots_raw = slots
            entries = len(dense)
        limit = n - min_match + 1

        # A run's windows, then its state: head, chain, the token columns,
        # the probe/checked/rejected counts, literal_start, pos, the Snappy
        # skip credit (bytes between lookups = skip_credit >> 5) and a lazy
        # parse's pending match.
        runs: List[tuple] = [
            (windows, [-1] * entries, [-1] * (2 * n), [], [], [], [], 0, 0, 0, 0, 0, 32, 0, 0)
        ]
        while runs:
            (
                run_windows, head, chain, literal_lengths, offsets, match_lengths, literal_runs,
                probes, checked, rejected, literal_start, pos, skip_credit, pending_len, pending_off,
            ) = runs.pop()
            threshold = run_windows[0]
            window = run_windows[-1]
            # A lazy parse probes ``pos``, then ``pos + 1`` on the next turn
            # with the first match pending; the longer of the two is taken.
            while pos < limit:
                probes += 1
                slot = slots[pos]
                event = head[slot]
                head[slot] = chain_at = pos + pos
                chain[chain_at] = event
                best_len = best_off = 0
                if event >= 0:
                    word = words[pos]
                    left = ways
                    while True:
                        cand = event >> 1
                        dist = pos - cand
                        if dist > threshold:
                            if dist > window:
                                break
                            # The windows below ``dist`` end this walk here:
                            # they leave as a run resumed from this probe's start.
                            cut = bisect_left(run_windows, dist)
                            undo_checked, undo_rejected = _walk_counts(
                                chain, chain[chain_at], ways - left, words, tags, pos
                            )
                            resumed_head = head[:]
                            resumed_head[slot] = chain[chain_at]
                            runs.append((
                                run_windows[:cut], resumed_head, chain[:], literal_lengths[:],
                                offsets[:], match_lengths[:], literal_runs[:], probes - 1,
                                checked - undo_checked, rejected - undo_rejected,
                                literal_start, pos, skip_credit, pending_len, pending_off,
                            ))
                            run_windows = run_windows[cut:]
                            threshold = run_windows[0]
                        if not tagged or tags[cand] == tags[pos]:
                            # A tag mismatch filters the probe without a history read.
                            checked += 1
                            if words[cand] != word:
                                rejected += 1
                            else:
                                # Extend a word (min_match bytes) at a time: the
                                # lowest differing byte of the XOR is the first
                                # mismatch. Long matches go a memcmp block at a time.
                                max_here = n - pos if max_match > n - pos else max_match
                                word_end = max_here - min_match
                                length = min_match
                                while length <= word_end:
                                    diff = words[cand + length] ^ words[pos + length]
                                    if diff:
                                        length += ((diff & -diff).bit_length() - 1) >> 3
                                        break
                                    length += min_match
                                    if length > _EXTEND_WORDS:
                                        while (
                                            length + _EXTEND_BLOCK <= max_here
                                            and data[cand + length : cand + length + _EXTEND_BLOCK]
                                            == data[pos + length : pos + length + _EXTEND_BLOCK]
                                        ):
                                            length += _EXTEND_BLOCK
                                else:
                                    while length < max_here and data[cand + length] == data[pos + length]:
                                        length += 1
                                if length >= best_len:
                                    best_len = length
                                    best_off = dist
                        left -= 1
                        if not left:
                            break
                        event = chain[event]
                        if event < 0:
                            break

                if pending_len:
                    if best_len <= pending_len + 1:
                        # Keep the match at ``pos - 1``.
                        pos -= 1
                        best_len = pending_len
                        best_off = pending_off
                    pending_len = 0
                elif lazy and min_match <= best_len < 32 and pos + 1 < limit:
                    pending_len = best_len
                    pending_off = best_off
                    pos += 1
                    continue

                if best_len:
                    literal_lengths.append(pos - literal_start)
                    if literal_start < pos:
                        literal_runs.append(data[literal_start:pos])
                    offsets.append(best_off)
                    match_lengths.append(best_len)
                    # Index a couple of in-match positions so overlapping repeats
                    # remain findable, then jump past the match (greedy).
                    inner = pos + (best_len >> 1 or 1)
                    if inner < limit:
                        slot = slots_raw[inner]
                        chain[inner + inner + 1] = head[slot]
                        head[slot] = inner + inner + 1
                    pos += best_len
                    literal_start = pos
                    skip_credit = 32
                else:
                    # Snappy library heuristic: every 32 misses, start skipping
                    # more bytes between hash lookups.
                    pos += skip_credit >> 5
                    skip_credit += skip_step

            trailing = n - literal_start
            if trailing:
                literal_runs.append(data[literal_start:])
            literals = b"".join(literal_runs)
            stream = TokenStream(literal_lengths, offsets, match_lengths, literals, trailing)
            for run_window in run_windows:
                results[run_window] = stream, MatcherStats(
                    positions_hashed=probes,
                    candidates_checked=checked,
                    candidates_rejected=rejected,
                    matches_found=len(offsets),
                    match_bytes=n - len(literals),
                    literal_bytes=len(literals),
                )
        return results


def _walk_counts(
    chain: List[int], event: int, visited: int, words: List[int], tags: Optional[List[int]], pos: int
) -> Tuple[int, int]:
    """``(checked, rejected)`` over the first ``visited`` events of the
    walk from ``event``: what the probe at ``pos`` counted before the
    candidate it is at."""
    word = words[pos]
    checked = rejected = 0
    for _ in range(visited):
        cand = event >> 1
        if tags is None or tags[cand] == tags[pos]:
            checked += 1
            rejected += words[cand] != word
        event = chain[event]
    return checked, rejected


def copy_match(out: bytearray, offset: int, length: int) -> None:
    """Append ``length`` bytes copied from ``offset`` back: the one LZ77
    match-copy kernel of every decoder here.

    A non-overlapping copy is one slice append; an overlapping one repeats
    the last ``offset`` bytes as a pattern — exactly what the byte loop
    (``reference_copy_match`` in ``tests/algorithms/lz77_reference.py``)
    produces. Callers check ``1 <= offset <= len(out)`` and bound
    ``length`` first: the copy is allocated at once.
    """
    start = len(out) - offset
    if length <= offset:
        out += out[start : start + length]
    else:
        reps, rem = divmod(length, offset)
        pattern = out[start:]
        out += pattern * reps + pattern[:rem]


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


def decode_tokens(stream: TokenStream, *, expected_length: Optional[int] = None) -> bytes:
    """Reference LZ77 decoder: reconstruct bytes from a token stream.

    Validates offsets (a copy may not reach before the start of output) and,
    when given, the expected output length — a copy that would overrun it
    is rejected before it is executed. Overlapping copies (offset <
    length) replicate bytes, as in all LZ77 formats.
    """
    with obs.stage("stage.lz77.decode"):
        out = bytearray()
        end = stream.output_length() if expected_length is None else expected_length
        execute_sequences(
            out, stream.literals, stream.literal_lengths, stream.offsets,
            stream.match_lengths, stream.trailing,
            history_start=0,
            max_offset=end,
            end=end,
            bad_offset="copy offset {offset} reaches before start of output",
            bad_trailing="trailing literal count inconsistent with literal buffer",
            wrong_size=f"decoded length != expected {end}",
        )
        obs.counter_add("stage.lz77.decode.bytes", len(out))
    return bytes(out)


def split_long_copies(stream: TokenStream, max_length: int) -> TokenStream:
    """Split copies longer than ``max_length`` (format-layer helper).

    Snappy copy elements encode at most 64 bytes; formats call this before
    serialization. Splitting preserves semantics because each fragment copies
    from the same offset relative to its own position.
    """
    if not any(length > max_length for length in stream.match_lengths):
        return stream
    literal_lengths: List[int] = []
    offsets: List[int] = []
    match_lengths: List[int] = []
    for literal_length, offset, length in zip(
        stream.literal_lengths, stream.offsets, stream.match_lengths
    ):
        while length > max_length:
            literal_lengths.append(literal_length)
            offsets.append(offset)
            match_lengths.append(max_length)
            literal_length = 0
            length -= max_length
        literal_lengths.append(literal_length)
        offsets.append(offset)
        match_lengths.append(length)
    return TokenStream(
        literal_lengths, offsets, match_lengths, stream.literals, stream.trailing, stream.breaks
    )
