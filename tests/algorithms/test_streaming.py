"""The incremental streaming contexts (repro.algorithms.streaming).

Covers the contract DESIGN.md's streaming section promises:

* feed/flush state machine — single-use contexts, ``StreamStateError`` on
  use-after-finish, corruption poisons the context;
* chunking-independence — output at any feed granularity is byte-identical
  to the one-shot path (golden-vector parity lives in
  ``test_golden_vectors.py``; here a hypothesis property covers arbitrary
  data and chunkings);
* bounded buffering — the ``bounded`` decompress contexts hold
  O(window + chunk) bytes even for a ≥64 MiB stream, and report it through
  ``max_buffered_bytes`` and the obs ``buffered_bytes`` gauge.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms.lz77 import Literal, TokenStream
from repro.algorithms.registry import available_codecs, get_codec
from repro.algorithms.snappy import SNAPPY_FRAME, SNAPPY_WINDOW, emit_elements
from repro.algorithms.streaming import (
    BufferedCompressContext,
    BufferedDecompressContext,
)
from repro.algorithms.zstd import BLOCK_SIZE
from repro.common.errors import CorruptStreamError, StreamStateError
from repro.common.units import KiB, MiB

PAYLOAD = (
    b"streaming payload with matches aplenty; streaming payload with "
    b"matches aplenty. " * 60
) + bytes(range(256))


def _feed_all(ctx, data: bytes, chunk_size: int) -> bytes:
    out = b"".join(
        ctx.feed(data[i : i + chunk_size]) for i in range(0, len(data), chunk_size)
    )
    return out + ctx.flush()


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


class TestStateMachine:
    def test_context_is_single_use(self):
        ctx = get_codec("snappy").compress_context()
        ctx.feed(PAYLOAD)
        ctx.flush()
        assert ctx.finished
        with pytest.raises(StreamStateError):
            ctx.feed(b"more")
        with pytest.raises(StreamStateError):
            ctx.flush()

    def test_nonfinal_flush_keeps_context_open(self):
        codec = get_codec("snappy")
        frame = codec.compress(PAYLOAD)
        ctx = codec.decompress_context()
        half = len(frame) // 2
        out = ctx.feed(frame[:half])
        out += ctx.flush(end=False)
        assert not ctx.finished
        out += ctx.feed(frame[half:])
        out += ctx.flush()
        assert ctx.finished
        assert out == PAYLOAD

    def test_corruption_poisons_context(self):
        codec = get_codec("zstd")
        ctx = codec.decompress_context()
        with pytest.raises(CorruptStreamError):
            ctx.feed(b"not a zstd frame at all")
        assert not ctx.finished
        with pytest.raises(StreamStateError):
            ctx.feed(b"retry")
        with pytest.raises(StreamStateError):
            ctx.flush()

    def test_empty_feeds_are_harmless(self):
        codec = get_codec("lzo")
        frame = codec.compress(PAYLOAD)
        ctx = codec.decompress_context()
        out = ctx.feed(b"")
        out += ctx.feed(frame)
        out += ctx.feed(b"")
        out += ctx.flush()
        assert out == PAYLOAD

    @pytest.mark.parametrize("codec_name", available_codecs())
    def test_one_shot_equals_streaming_everywhere(self, codec_name):
        codec = get_codec(codec_name)
        one_shot = codec.compress(PAYLOAD)
        for chunk_size in (1, 333, 1 << 16):
            ctx = codec.compress_context()
            assert _feed_all(ctx, PAYLOAD, chunk_size) == one_shot
            dctx = codec.decompress_context()
            assert _feed_all(dctx, one_shot, chunk_size) == PAYLOAD


class TestChunkingIndependence:
    """Property: any chunking of any input matches the one-shot bytes."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.binary(max_size=4096),
        chunk_size=st.integers(min_value=1, max_value=512),
        codec_name=st.sampled_from(sorted(available_codecs())),
    )
    def test_streaming_equals_one_shot(self, data, chunk_size, codec_name):
        codec = get_codec(codec_name)
        one_shot = codec.compress(data)
        ctx = codec.compress_context()
        assert _feed_all(ctx, data, chunk_size) == one_shot
        dctx = codec.decompress_context()
        assert _feed_all(dctx, one_shot, chunk_size) == data


class TestBoundedBuffering:
    """bounded=True decompress contexts: O(window + chunk), never O(input)."""

    def test_bounded_flags_by_codec(self):
        bounded = {
            name: type(get_codec(name).decompress_context()).bounded
            for name in available_codecs()
        }
        # Element/block formats stream with bounded history; the monolithic
        # entropy-coded bodies legitimately buffer the whole frame. Graph
        # pipelines run whole-buffer transforms, so they buffer too.
        assert bounded == {
            "brotli": False,
            "flate": False,
            "gipfeli": False,
            "graph-delta-fse": False,
            "graph-float-fse": False,
            "graph-lz-huff": False,
            "graph-plane-fse": False,
            "graph-token-fse": False,
            "lzo": True,
            "snappy": True,
            "snappy-framed": True,
            "zstd": True,
        }
        assert type(get_codec("snappy-framed").compress_context()).bounded

    def test_snappy_64mib_stream_is_window_bounded(self):
        """Decompressing a ≥64 MiB stream holds O(window + chunk) bytes.

        The stream is synthesized element-by-element (a 64 KiB literal per
        feed) so the test never materializes the whole input either; the
        context's high-water mark must stay near window + chunk, about
        three orders of magnitude below the stream size.
        """
        block = bytes(range(256)) * 256  # 64 KiB
        element = emit_elements(TokenStream.from_tokens([Literal(block)]))
        repeats = 1024  # 64 MiB of declared content
        total = repeats * len(block)
        ctx = get_codec("snappy").decompress_context()
        ctx.feed(SNAPPY_FRAME.encode_preamble(content_length=total))
        fed = produced = 0
        for index in range(repeats):
            out = ctx.feed(element)
            fed += len(element)
            produced += len(out)
            if index in (0, repeats - 1):
                assert out == block
        produced += len(ctx.flush())
        assert ctx.finished
        assert fed >= 64 * MiB
        assert produced == total
        # O(window + chunk): one retained window plus one in-flight element.
        assert ctx.max_buffered_bytes <= SNAPPY_WINDOW + 2 * len(element)

    def test_zstd_streaming_decompress_is_block_bounded(self):
        data = PAYLOAD * 80  # several 128 KiB blocks
        frame = get_codec("zstd").compress(data)
        ctx = get_codec("zstd").decompress_context()
        out = _feed_all(ctx, frame, 4 * KiB)
        assert out == data
        # Holds at most one undecoded block body plus the feed chunk.
        assert ctx.max_buffered_bytes <= 2 * BLOCK_SIZE + 4 * KiB

    def test_snappy_framed_bounded_both_directions(self):
        data = PAYLOAD * 40
        cctx = get_codec("snappy-framed").compress_context()
        frame = _feed_all(cctx, data, 8 * KiB)
        # The compressor holds less than one 64 KiB chunk of input.
        assert cctx.max_buffered_bytes < 64 * KiB + 8 * KiB
        dctx = get_codec("snappy-framed").decompress_context()
        assert _feed_all(dctx, frame, 8 * KiB) == data
        # The decompressor holds at most one in-flight chunk.
        assert dctx.max_buffered_bytes < 2 * (64 * KiB + 8 * KiB)

    def test_lzo_streaming_history_is_format_bounded(self):
        data = PAYLOAD * 120
        frame = get_codec("lzo").compress(data)
        ctx = get_codec("lzo").decompress_context()
        assert _feed_all(ctx, frame, 4 * KiB) == data
        from repro.algorithms.lzo import _MAX_COPY_OFFSET

        assert ctx.max_buffered_bytes <= _MAX_COPY_OFFSET + 8 * KiB


class TestStreamingObservability:
    def test_stream_counters_and_gauge(self):
        obs.enable()
        codec = get_codec("snappy")
        frame = codec.compress(PAYLOAD)
        obs.reset()
        ctx = codec.decompress_context()
        gauge_max = 0
        for i in range(0, len(frame), 100):
            ctx.feed(frame[i : i + 100])
            gauges = obs.snapshot().gauges
            gauge_max = max(
                gauge_max,
                gauges.get("codec.snappy.stream.decompress.buffered_bytes", 0),
            )
        ctx.flush()
        snap = obs.snapshot()
        feeds = -(-len(frame) // 100)
        assert snap.counter("codec.snappy.stream.decompress.feed.calls") == feeds
        assert snap.counter("codec.snappy.stream.decompress.bytes_in") == len(frame)
        assert snap.counter("codec.snappy.stream.decompress.bytes_out") == len(PAYLOAD)
        assert snap.counter("codec.snappy.stream.decompress.flush.calls") == 1
        # The gauge tracked real buffering while the stream was in flight.
        assert 0 < gauge_max <= ctx.max_buffered_bytes
        assert (
            snap.gauges["codec.snappy.stream.decompress.buffered_bytes"]
            <= gauge_max
        )

    def test_one_shot_wrappers_still_report_per_codec(self):
        obs.enable()
        codec = get_codec("gipfeli")
        codec.decompress(codec.compress(PAYLOAD))
        snap = obs.snapshot()
        assert snap.counter("codec.gipfeli.compress.calls") == 1
        assert snap.counter("codec.gipfeli.decompress.calls") == 1

    def test_disabled_obs_records_nothing(self):
        codec = get_codec("snappy")
        ctx = codec.decompress_context()
        _feed_all(ctx, codec.compress(PAYLOAD), 512)
        assert obs.snapshot().counters == {}


class TestBufferedFallbackContexts:
    """The generic buffered contexts used by monolithic-frame codecs."""

    def test_buffered_contexts_report_pending_input(self):
        codec = get_codec("flate")
        ctx = codec.compress_context()
        assert isinstance(ctx, BufferedCompressContext)
        ctx.feed(b"x" * 1000)
        assert ctx.buffered_bytes == 1000
        ctx.feed(b"y" * 500)
        assert ctx.buffered_bytes == 1500
        frame = ctx.flush()
        assert ctx.buffered_bytes == 0
        dctx = codec.decompress_context()
        assert isinstance(dctx, BufferedDecompressContext)
        dctx.feed(frame)
        assert dctx.buffered_bytes == len(frame)
        assert dctx.flush() == b"x" * 1000 + b"y" * 500
