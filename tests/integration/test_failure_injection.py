"""Failure injection: corrupted streams must never silently mis-decode.

Every decoder in the library raises
:class:`~repro.common.errors.CorruptStreamError` on damaged input, never
hangs, and never returns wrong bytes silently, with the exceptions below.
The fuzz matrix drives every registered codec through truncation at each 1/8
boundary and single-byte corruption; the content CRC-32C trailer (see
``repro.algorithms.container``) makes detection exhaustive for the custom
containers, and framed Snappy's per-chunk CRC-32C covers every byte inside a
data chunk.

Raw Snappy is the documented exception for the corruption leg: its wire
format is the open-source ``format_description.txt`` one, which carries no
checksum, so a flipped literal byte decodes "successfully" to wrong bytes.
Its corruption leg therefore targets the structural preamble, where the
declared-length invariant guarantees detection; arbitrary-position mutations
keep the weaker length-invariant check.

Framed Snappy has two damaged streams its open-source
``framing_format.txt`` decodes without an error, because the format has no
end marker and skips chunk types 0x80-0xfd: a stream cut at a chunk
boundary decodes to the bytes before the cut, and a data chunk whose type
byte becomes skippable is skipped. ``tests/algorithms/test_snappy_framing.py``
pins both; the matrix here never cuts at a chunk boundary or writes a
skippable chunk type.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import available_codecs, get_codec
from repro.common.errors import CorruptStreamError, ReproError

PAYLOAD = (
    b"resilience testing payload: structured, repetitive, and long enough "
    b"to exercise matches and entropy tables. " * 40
)

#: Codecs whose wire format lacks an integrity check by design (wire-format
#: fidelity with the open-source format): corruption detection is only
#: guaranteed for structural bytes.
UNCHECKSUMMED = {"snappy"}


def _mutate(data: bytes, position: int, delta: int) -> bytes:
    mutated = bytearray(data)
    mutated[position % len(mutated)] = (mutated[position % len(mutated)] + delta) % 256
    return bytes(mutated)


def _eighth_boundaries(n: int) -> list:
    """Distinct offsets at each 1/8 of the stream (clamped inside it)."""
    return sorted({min(n - 1, max(1, (n * i) // 8)) for i in range(1, 8)})


@pytest.mark.parametrize("codec_name", available_codecs())
class TestFuzzMatrix:
    """The codec x {truncation, corruption} matrix from DESIGN.md §7."""

    def test_truncation_at_each_eighth(self, codec_name):
        codec = get_codec(codec_name)
        compressed = codec.compress(PAYLOAD)
        for cut in _eighth_boundaries(len(compressed)):
            with pytest.raises(CorruptStreamError):
                get_codec(codec_name).decompress(compressed[:cut])

    def test_single_byte_corruption_at_each_eighth(self, codec_name):
        codec = get_codec(codec_name)
        compressed = codec.compress(PAYLOAD)
        if codec_name in UNCHECKSUMMED:
            # Structural bytes only: the varint preamble declares the output
            # length, so any change there trips the produced-vs-promised check.
            positions = range(2)
        else:
            positions = _eighth_boundaries(len(compressed))
        for position in positions:
            for delta in (1, 0x55, 0xFF):
                mutated = _mutate(compressed, position, delta)
                try:
                    out = get_codec(codec_name).decompress(mutated)
                except CorruptStreamError:
                    continue  # detected: good
                # The only silent escape: the mutation did not change the
                # decoded content (e.g. it hit unread padding bits).
                assert out == PAYLOAD, (
                    f"{codec_name}: corrupt byte at {position} (+{delta:#x}) "
                    f"decoded silently to wrong bytes"
                )

    def test_empty_input(self, codec_name):
        with pytest.raises(ReproError):
            get_codec(codec_name).decompress(b"")


@pytest.mark.parametrize("codec_name", available_codecs())
class TestRandomMutations:
    """Random-position mutations: length invariant everywhere, full content
    integrity for every checksummed codec."""

    def test_single_byte_mutations(self, codec_name):
        codec = get_codec(codec_name)
        compressed = codec.compress(PAYLOAD)
        rng = random.Random(17)
        for _ in range(40):
            position = rng.randrange(len(compressed))
            delta = rng.randrange(1, 256)
            try:
                out = get_codec(codec_name).decompress(_mutate(compressed, position, delta))
            except ReproError:
                continue  # detected: good
            except (IndexError, KeyError, OverflowError, MemoryError) as exc:
                pytest.fail(f"{codec_name} leaked internal exception {exc!r}")
            if codec_name in UNCHECKSUMMED:
                assert len(out) == len(PAYLOAD)  # length invariant only
            else:
                assert out == PAYLOAD  # CRC trailer: no silent wrong bytes

    def test_truncations(self, codec_name):
        codec = get_codec(codec_name)
        compressed = codec.compress(PAYLOAD)
        for cut in (1, len(compressed) // 4, len(compressed) // 2, len(compressed) - 1):
            with pytest.raises(ReproError):
                codec.decompress(compressed[:cut])


@pytest.mark.parametrize("codec_name", available_codecs())
class TestStreamingTruncation:
    """Mid-stream truncation through the incremental decompress contexts.

    A truncated stream fed chunk-by-chunk must fail with the same error
    class as the one-shot decoder (:class:`CorruptStreamError`) — at the
    latest from the final ``flush``, which is what guards against a
    streaming consumer mistaking a truncated stream for a complete one.
    Bytes emitted by earlier feeds are fine (that is what streaming is
    for); *finishing* without an error is not.
    """

    CHUNK_SIZES = (1, 7, 64)

    def _stream_decompress(self, codec_name, stream, chunk_size):
        ctx = get_codec(codec_name).decompress_context()
        for start in range(0, len(stream), chunk_size):
            ctx.feed(stream[start : start + chunk_size])
        ctx.flush()
        return ctx

    def test_truncation_at_chunk_boundaries(self, codec_name):
        compressed = get_codec(codec_name).compress(PAYLOAD)
        for chunk_size in self.CHUNK_SIZES:
            # Cut on an exact feed boundary: the context is in a clean
            # between-feeds state, so only the final flush can object.
            for boundary in _eighth_boundaries(len(compressed)):
                cut = max(chunk_size, boundary - boundary % chunk_size)
                truncated = compressed[:cut]
                with pytest.raises(CorruptStreamError):
                    get_codec(codec_name).decompress(truncated)
                ctx = get_codec(codec_name).decompress_context()
                with pytest.raises(CorruptStreamError):
                    for start in range(0, cut, chunk_size):
                        ctx.feed(truncated[start : start + chunk_size])
                    ctx.flush()
                assert not ctx.finished

    def test_truncation_at_misaligned_cuts(self, codec_name):
        compressed = get_codec(codec_name).compress(PAYLOAD)
        for chunk_size in self.CHUNK_SIZES:
            for cut in _eighth_boundaries(len(compressed)):
                with pytest.raises(CorruptStreamError):
                    self._stream_decompress(
                        codec_name, compressed[:cut], chunk_size
                    )

    def test_failed_context_is_poisoned(self, codec_name):
        from repro.common.errors import StreamStateError

        compressed = get_codec(codec_name).compress(PAYLOAD)
        ctx = get_codec(codec_name).decompress_context()
        with pytest.raises(CorruptStreamError):
            ctx.feed(compressed[: len(compressed) // 2])
            ctx.flush()
        with pytest.raises(StreamStateError):
            ctx.feed(compressed[len(compressed) // 2 :])

    def test_empty_stream_rejected_by_flush(self, codec_name):
        ctx = get_codec(codec_name).decompress_context()
        with pytest.raises(ReproError):
            ctx.flush()


#: Committed wire grammars (read from the live ``FrameSpec`` declarations
#: by ``repro.tools.regen_grammars``, drift-gated by
#: ``tests/algorithms/test_frame_grammars.py``). The fuzz rows below are
#: *seeded* from them, so the declared frame layouts and the dynamic
#: corruption coverage stay linked: move a header field and both the drift
#: gate and these offsets shift together.
_GRAMMARS = json.loads(
    (Path(__file__).resolve().parents[2] / "results" / "frame_grammars.json")
    .read_text(encoding="utf-8")
)["grammars"]

#: Byte offset of each frame's uncompressed-length varint, derived from the
#: grammar artifact: ``header_bytes`` counts the fixed-width fields (magic /
#: version / window-log) written before it. All of these mirror Snappy's
#: spec, which limits the declared length to 32 bits. ``snappy-framed``
#: carries raw Snappy frames inside chunks rather than a frame-level
#: preamble, so it has no varint field and is covered through the raw
#: codec's entry.
PREAMBLE_OFFSET = {
    name: grammar["header_bytes"]
    for name, grammar in _GRAMMARS.items()
    if name in set(available_codecs())
    and any(field["kind"] == "varint" for field in grammar["fields"])
}


def _fixed_fields(grammar):
    """``(field, offset)`` per fixed-width header field before the varint."""
    out, pos = [], 0
    for field in grammar["fields"]:
        if field.get("width") is None:
            break
        out.append((field, pos))
        pos += field["width"]
    return out


class TestOversizedPreamble:
    """A declared length beyond the 32-bit preamble limit is structural
    corruption: it must raise, not be honoured as a multi-GiB promise that
    only fails at the produced-vs-promised check (or an allocation)."""

    @pytest.mark.parametrize("codec_name", sorted(PREAMBLE_OFFSET))
    def test_oversized_length_preamble_rejected(self, codec_name):
        from repro.common.varint import MAX_VARINT32, decode_varint, encode_varint

        compressed = get_codec(codec_name).compress(PAYLOAD)
        offset = PREAMBLE_OFFSET[codec_name]
        declared, end = decode_varint(compressed, offset, max_bits=32)
        assert declared == len(PAYLOAD), "grammar-derived varint offset is stale"
        spliced = (
            compressed[:offset] + encode_varint(MAX_VARINT32 + 1) + compressed[end:]
        )
        with pytest.raises(CorruptStreamError):
            get_codec(codec_name).decompress(spliced)


class TestGrammarDerivedHeader:
    """Fuzz rows seeded by the committed wire grammars: truncation inside
    every fixed header field, wrong-version-byte corruption for every
    version-gated frame, and out-of-range window-log corruption for every
    guarded frame. New codecs (and new header fields) join these rows the
    moment their grammar lands in the artifact — no hand-written offset
    table to forget."""

    CODECS = sorted(set(available_codecs()) & set(_GRAMMARS))
    VERSION_GATED = [
        name
        for name in CODECS
        if any(f.get("gate") == "version" for f in _GRAMMARS[name]["fields"])
    ]
    WINDOW_GUARDED = [
        name
        for name in CODECS
        if any(f.get("guard") for f in _GRAMMARS[name]["fields"])
    ]

    def test_artifact_anchors(self):
        """Hand-pinned layout facts guard the artifact itself: if
        ``frame_grammars.json`` regressed, fail here rather than silently
        fuzz the wrong offsets."""
        assert PREAMBLE_OFFSET["snappy"] == 0
        assert PREAMBLE_OFFSET["zstd"] == 6
        assert _GRAMMARS["snappy-framed"]["header_bytes"] == 10
        assert self.VERSION_GATED and self.WINDOW_GUARDED

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_truncation_inside_fixed_header(self, codec_name):
        grammar = _GRAMMARS[codec_name]
        cuts = list(range(1, grammar["header_bytes"]))
        if any(field["kind"] == "varint" for field in grammar["fields"]):
            # Header complete but length varint missing. (For varint-less
            # frames like snappy-framed a bare header is a valid empty
            # stream, so the boundary cut only applies here.)
            cuts.append(grammar["header_bytes"])
        compressed = _compressed(codec_name)
        for cut in cuts:
            with pytest.raises(CorruptStreamError):
                get_codec(codec_name).decompress(compressed[:cut])

    @pytest.mark.parametrize("codec_name", VERSION_GATED)
    def test_wrong_version_byte_rejected(self, codec_name):
        ((field, offset),) = [
            (f, at)
            for f, at in _fixed_fields(_GRAMMARS[codec_name])
            if f.get("gate") == "version"
        ]
        compressed = _compressed(codec_name)
        assert compressed[offset] == field["value"], "grammar offset is stale"
        mutated = bytearray(compressed)
        mutated[offset] = (field["value"] + 1) % 256
        with pytest.raises(CorruptStreamError):
            get_codec(codec_name).decompress(bytes(mutated))

    @pytest.mark.parametrize("codec_name", WINDOW_GUARDED)
    def test_window_log_out_of_range_rejected(self, codec_name):
        ((field, offset),) = [
            (f, at)
            for f, at in _fixed_fields(_GRAMMARS[codec_name])
            if f.get("guard")
        ]
        low, high = (int(part) for part in field["guard"].split(".."))
        compressed = _compressed(codec_name)
        assert low <= compressed[offset] <= high, "grammar offset is stale"
        for bad in (max(0, low - 1), high + 1, 0xFF):
            mutated = bytearray(compressed)
            mutated[offset] = bad
            with pytest.raises(CorruptStreamError):
                get_codec(codec_name).decompress(bytes(mutated))


@pytest.mark.parametrize("codec_name", available_codecs())
@settings(max_examples=20, deadline=None)
@given(junk=st.binary(min_size=1, max_size=200))
def test_random_junk_never_crashes_uncontrolled(codec_name, junk):
    """Arbitrary bytes must produce a controlled error (or valid output)."""
    try:
        get_codec(codec_name).decompress(junk)
    except ReproError:
        pass


class TestGraphFrameDescriptors:
    """Graph frames add a descriptor table between preamble and body; attack
    it specifically: bad stage ids, truncated tables, and a pipeline whose
    inverse does not match the body (transform-terminated)."""

    GRAPH_PRESET = "graph-delta-fse"

    def _frame_and_table_offset(self):
        from repro.algorithms.graphs import GRAPH_FRAME

        frame = _compressed(self.GRAPH_PRESET)
        _, header_len = GRAPH_FRAME.try_decode_preamble(frame)
        return frame, header_len

    def test_bad_stage_id_rejected(self):
        frame, table_at = self._frame_and_table_offset()
        mutated = bytearray(frame)
        mutated[table_at + 1] = 0x7F  # first stage id varint -> unknown id
        with pytest.raises(CorruptStreamError):
            get_codec(self.GRAPH_PRESET).decompress(bytes(mutated))

    def test_descriptor_truncation_rejected_at_every_cut(self):
        frame, table_at = self._frame_and_table_offset()
        # The delta(1)>fse table is 6 varint bytes; every cut inside it (and
        # the headers before it) must raise, never return wrong bytes.
        for cut in range(table_at + 6):
            with pytest.raises(CorruptStreamError):
                get_codec(self.GRAPH_PRESET).decompress(frame[:cut])

    def test_oversized_stage_count_rejected(self):
        from repro.algorithms.container import MAX_GRAPH_STAGES

        frame, table_at = self._frame_and_table_offset()
        mutated = bytearray(frame)
        mutated[table_at] = MAX_GRAPH_STAGES + 1
        with pytest.raises(CorruptStreamError):
            get_codec(self.GRAPH_PRESET).decompress(bytes(mutated))

    def test_mismatched_inverse_pipeline_rejected(self):
        from repro.algorithms.container import (
            StageDescriptor,
            append_content_checksum,
            encode_stage_descriptors,
        )
        from repro.algorithms.graphs import GRAPH_FRAME

        # Body coded by delta>fse, table claiming a bare transform pipeline:
        # the decoder must reject the table, not run a mismatched inverse.
        frame, table_at = self._frame_and_table_offset()
        body = frame[table_at + 6 : -4]
        lying = (
            GRAPH_FRAME.encode_preamble(content_length=len(PAYLOAD))
            + encode_stage_descriptors((StageDescriptor(1, (1,)),))
            + body
        )
        with pytest.raises(CorruptStreamError):
            get_codec(self.GRAPH_PRESET).decompress(
                append_content_checksum(lying, PAYLOAD)
            )


#: Per-codec compressed PAYLOAD, computed once — compression dominates the
#: runtime of the property tests below and the input never changes.
_COMPRESSED_CACHE = {}


def _compressed(codec_name: str) -> bytes:
    if codec_name not in _COMPRESSED_CACHE:
        _COMPRESSED_CACHE[codec_name] = get_codec(codec_name).compress(PAYLOAD)
    return _COMPRESSED_CACHE[codec_name]


def _havoc(data, base: bytes) -> bytes:
    """A short random edit script (truncate/flip/insert/delete) over ``base``.

    Starting from a *valid* stream and damaging it reaches much deeper into
    the decoders than random junk: the header parses, so the mutations land
    in match offsets, lengths, and entropy payloads.
    """
    buf = bytearray(base)
    ops = data.draw(
        st.lists(
            st.sampled_from(["truncate", "flip", "insert", "delete"]),
            min_size=1,
            max_size=4,
        ),
        label="ops",
    )
    for op in ops:
        if not buf:
            break
        pos = data.draw(st.integers(0, len(buf) - 1), label=f"{op}-pos")
        if op == "truncate":
            del buf[pos:]
        elif op == "flip":
            buf[pos] ^= data.draw(st.integers(1, 255), label="flip-mask")
        elif op == "insert":
            buf.insert(pos, data.draw(st.integers(0, 255), label="insert-byte"))
        else:
            del buf[pos]
    return bytes(buf)


@pytest.mark.parametrize("codec_name", available_codecs())
class TestExceptionContractRuntime:
    """The exception contract: public decode surfaces let only
    :class:`ReproError` subclasses escape.

    This property test is the contract's only check (no lint rule models
    it): for any damaged stream, ``decompress`` / ``feed`` / ``flush``
    either succeed or raise a :class:`ReproError` subclass. An
    ``IndexError``, ``KeyError``, ``struct.error``, ``MemoryError``, or
    hang escaping here is a decoder bug; pin the stream that provoked it
    in the codec's own corruption tests.
    """

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_shot_decompress_raises_only_repro_errors(self, codec_name, data):
        stream = _havoc(data, _compressed(codec_name))
        try:
            get_codec(codec_name).decompress(stream)
        except ReproError:
            pass  # controlled failure: the contract holds

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_streaming_context_raises_only_repro_errors(self, codec_name, data):
        stream = _havoc(data, _compressed(codec_name))
        chunk_size = data.draw(st.integers(1, 64), label="chunk-size")
        ctx = get_codec(codec_name).decompress_context()
        try:
            for start in range(0, len(stream), chunk_size):
                ctx.feed(stream[start : start + chunk_size])
            ctx.flush()
        except ReproError:
            pass  # controlled failure: the contract holds


class TestHardwareModelUnderCorruption:
    def test_snappy_pipeline_rejects_corrupt_stream(self):
        from repro.core.generator import CdpuGenerator
        from repro.core.params import CdpuConfig
        from repro.algorithms.base import Operation

        cdpu = CdpuGenerator().generate(CdpuConfig())
        pipeline = cdpu.pipeline("snappy", Operation.DECOMPRESS)
        stream = get_codec("snappy").compress(PAYLOAD)
        with pytest.raises(CorruptStreamError):
            pipeline.run(stream[: len(stream) // 2])

    def test_zstd_pipeline_rejects_corrupt_frame(self):
        from repro.core.generator import CdpuGenerator
        from repro.core.params import CdpuConfig
        from repro.algorithms.base import Operation

        cdpu = CdpuGenerator().generate(CdpuConfig())
        pipeline = cdpu.pipeline("zstd", Operation.DECOMPRESS)
        frame = bytearray(get_codec("zstd").compress(PAYLOAD))
        frame[4] = 99  # bad version
        with pytest.raises(CorruptStreamError):
            pipeline.run(bytes(frame))

    def test_zstd_pipeline_rejects_flipped_content_byte(self):
        """A mutation that survives structural parsing is caught by the
        content trailer before the pipeline reports success."""
        from repro.core.generator import CdpuGenerator
        from repro.core.params import CdpuConfig
        from repro.algorithms.base import Operation

        cdpu = CdpuGenerator().generate(CdpuConfig())
        pipeline = cdpu.pipeline("zstd", Operation.DECOMPRESS)
        frame = bytearray(get_codec("zstd").compress(PAYLOAD))
        frame[-1] ^= 0x01  # flip a CRC trailer bit: content no longer attested
        with pytest.raises(CorruptStreamError):
            pipeline.run(bytes(frame))


def _bomb_frame(codec_name: str, match_length: int):
    """A hand-assembled frame declaring 8 bytes whose one sequence (one
    literal, offset 1) carries ``match_length``: the codec, the frame and
    the dict/window context it decodes under."""
    from repro.algorithms.container import append_content_checksum
    from repro.algorithms.lz77 import TokenStream
    from repro.algorithms.zstd import SequenceCoder, _encode_literals
    from repro.common.varint import encode_varint

    declared = 8
    if codec_name in ("zstd", "zstd-dict"):
        from repro.algorithms.zstd import ZSTD_FRAME
        from repro.algorithms.zstd_dict import DICT_FRAME, ZstdDictCodec

        body = _encode_literals(b"a") + SequenceCoder(9).encode([1], [1], [match_length]) + encode_varint(0)
        block = bytes([0x82]) + encode_varint(declared) + encode_varint(len(body)) + body
        if codec_name == "zstd":
            codec = get_codec("zstd")
            preamble = ZSTD_FRAME.encode_preamble(content_length=declared, window_log=16)
        else:
            codec = ZstdDictCodec(PAYLOAD[:512])
            preamble = DICT_FRAME.encode_preamble(
                content_length=declared,
                window_log=16,
                extra=codec._checksum.to_bytes(4, "little"),
            )
        frame = preamble + block
    elif codec_name == "flate":
        from repro.algorithms.flate import FLATE_FRAME, _encode_codes_huffman
        from repro.algorithms.zstd import value_to_code
        from repro.common.bitio import BitWriter

        codec = get_codec("flate")
        codes, extra = [], BitWriter()
        for value in (1, match_length, 1):  # ll, ml, off
            code, width, bits = value_to_code(value)
            codes.append(code)
            extra.write(bits, width)
        body = b"\x01" + b"\x00" + encode_varint(1) + b"a"
        body += b"".join(_encode_codes_huffman([code]) for code in codes)
        body += encode_varint(extra.bit_length) + extra.getvalue() + encode_varint(0)
        frame = FLATE_FRAME.encode_preamble(content_length=declared, window_log=15) + body
    else:
        from repro.algorithms.brotli import BROTLI_FRAME, _encode_sequences

        codec = get_codec("brotli")
        body = b"\x01" + b"\x00" + encode_varint(1) + b"a"
        body += _encode_sequences(TokenStream([1], [1], [match_length], b"a", 0))
        body += encode_varint(0)
        frame = BROTLI_FRAME.encode_preamble(content_length=declared, window_log=16) + body
    return codec, append_content_checksum(frame, b"a" * declared)


def _stream_decode(codec, data: bytes) -> bytes:
    ctx = codec.decompress_context()
    return ctx.feed(data) + ctx.flush()


#: The zstd-family code alphabet (codes 0..39) caps a sequence value at
#: 2**39 - 1; brotli's raw 6-bit code mode carries 2**40 itself.
_BOMB_LENGTHS = {
    "zstd": (1 << 39) - 1,
    "zstd-dict": (1 << 39) - 1,
    "flate": (1 << 39) - 1,
    "brotli": 1 << 40,
}


class TestDecompressionBomb:
    """A frame that declares a few bytes but carries a huge match length
    must be rejected before the match executes: the sequence kernel bounds
    every literal run and match by the declared size, so neither time nor
    memory grows with the forged length."""

    @pytest.mark.parametrize("codec_name", sorted(_BOMB_LENGTHS))
    def test_huge_match_rejected_before_copying(self, codec_name):
        import tracemalloc

        codec, frame = _bomb_frame(codec_name, _BOMB_LENGTHS[codec_name])
        for decode in (codec.decompress, lambda data: _stream_decode(codec, data)):
            tracemalloc.start()
            try:
                with pytest.raises(CorruptStreamError):
                    decode(frame)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, f"{codec_name}: peak {peak} B while rejecting"

    @pytest.mark.parametrize("codec_name", sorted(_BOMB_LENGTHS))
    def test_bomb_frame_is_well_formed_up_to_the_length(self, codec_name):
        """The same frame with an honest match length decodes: the bomb is
        rejected for its length, not for a malformed section."""
        codec, frame = _bomb_frame(codec_name, 7)
        assert codec.decompress(frame) == b"a" * 8
