"""Reference LZ77 loops: the LRU-bucket matcher and the byte-at-a-time
match copy.

``reference_encode`` was the matcher before it became one head/chain loop
(:meth:`repro.algorithms.lz77.Lz77Encoder.encode_with_stats`), and
``reference_copy_match`` the match copy before
:func:`repro.algorithms.lz77.copy_match` copied slices. Kept only as the
oracles those are checked (``test_lz77_matcher.py``,
``test_sequence_kernels.py``) and benchmarked
(``benchmarks/test_codec_throughput.py``) against.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, List, Optional, Tuple

from repro.algorithms.lz77 import (
    _EXTEND_BLOCK,
    Copy,
    Literal,
    Lz77Encoder,
    MatcherStats,
    Token,
)


def reference_encode(
    encoder: Lz77Encoder, data: bytes, stats: Optional[MatcherStats] = None
) -> List[Token]:
    """The LRU-bucket match loop ``encoder.encode`` is tested and
    benchmarked against: the same tokens and the same ``stats`` counts."""
    params = encoder.params
    min_match = params.min_match
    n = len(data)
    tokens: List[Token] = []
    if n < min_match:
        if n:
            tokens.append(Literal(data))
            if stats is not None:
                stats.literal_bytes += n
        return tokens

    ways = params.associativity
    window = params.window_size
    max_match = n if params.max_match_length is None else params.max_match_length
    slots_list, slots_raw, words, tags_list = encoder._hash_positions(data, n)
    tagged = tags_list is not None
    table: DefaultDict[int, List[int]] = defaultdict(list)

    literal_start = 0
    pos = 0
    limit = n - min_match + 1
    skip_credit = 32
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
                    continue
                if stats is not None:
                    stats.candidates_checked += 1
                if words[cand] != word:
                    if stats is not None:
                        stats.candidates_rejected += 1
                    continue
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
    return tokens


def reference_copy_match(out: bytearray, offset: int, length: int) -> None:
    """Byte-at-a-time match copy: the specification :func:`copy_match` is
    tested and benchmarked against."""
    start = len(out) - offset
    for i in range(length):
        out.append(out[start + i])
