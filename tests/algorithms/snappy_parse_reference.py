"""Reference Snappy element parse: a loop that mirrors the decoder.

This was the hardware model's element parse before the decoder's element
loop gained a sink (:func:`repro.algorithms.snappy.parse_elements`). It
walks the element grammar with its own loop and checks offsets and lengths
itself, without executing a copy. Kept only as the oracle the sink is
checked against (``test_lz_decoders_agree.py``): on streams the encoder
writes, both must report the same token columns.
"""

from __future__ import annotations

from typing import Tuple

from repro.algorithms.lz77 import TokenStream, TokenStreamBuilder
from repro.algorithms.snappy import SNAPPY_FRAME, try_parse_element
from repro.common.errors import CorruptStreamError


def parse_elements(data: bytes) -> Tuple[int, TokenStream]:
    """Parse a Snappy stream into (uncompressed_length, token stream)."""
    preamble, pos = SNAPPY_FRAME.decode_preamble(data)
    expected = preamble.content_length
    tokens = TokenStreamBuilder()
    produced = 0
    n = len(data)
    while pos < n:
        parsed = try_parse_element(data, pos)
        if parsed is None:
            raise CorruptStreamError("truncated element at end of stream")
        offset, length, pos = parsed
        if not offset:
            tokens.literal(data[pos - length : pos])
        else:
            if offset > produced:
                raise CorruptStreamError(
                    f"copy offset {offset} exceeds produced output {produced}"
                )
            tokens.copy(offset, length)
        produced += length
        if produced > expected:
            raise CorruptStreamError(
                f"stream produces {produced} bytes, preamble promised {expected}"
            )
    if produced != expected:
        raise CorruptStreamError(
            f"stream produced {produced} bytes, preamble promised {expected}"
        )
    return expected, tokens.build()
