"""Byte-exact golden wire-format vectors for every codec.

The frames under ``tests/data/golden/`` pin each codec's output bytes: any
change to headers, match heuristics, entropy coding or checksums shows up
here as a byte diff, forcing a deliberate
``python -m repro.tools.regen_golden`` rather than a silent format drift.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms.registry import available_codecs
from repro.tools.regen_golden import (
    EXTRA_CODECS,
    MANIFEST_SCHEMA,
    _codec_factories,
    golden_inputs,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "data" / "golden"

REGEN_HINT = "codec output changed: run `python -m repro.tools.regen_golden`"


@pytest.fixture(scope="module")
def manifest() -> dict:
    path = GOLDEN_DIR / "manifest.json"
    assert path.is_file(), "golden vectors missing; run repro.tools.regen_golden"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def codecs() -> dict:
    return _codec_factories()


@pytest.fixture(scope="module")
def inputs() -> dict:
    return golden_inputs()


class TestManifest:
    def test_schema(self, manifest):
        assert manifest["manifest_schema"] == MANIFEST_SCHEMA

    def test_covers_every_registered_codec(self, manifest):
        assert manifest["registered_codecs"] == available_codecs(), REGEN_HINT
        covered = {v["codec"] for v in manifest["vectors"]}
        assert covered == set(available_codecs()) | set(EXTRA_CODECS)

    def test_every_input_covered_per_codec(self, manifest, inputs):
        by_codec: dict = {}
        for vector in manifest["vectors"]:
            by_codec.setdefault(vector["codec"], set()).add(vector["input"])
        for codec, seen in by_codec.items():
            assert seen == set(inputs), codec

    def test_inputs_regenerate_identically(self, manifest, inputs):
        # The synthesized inputs are part of the contract: if make_rng or
        # the seed drifts, every frame comparison below would mislead.
        digests = {
            v["input"]: v["input_sha256"] for v in manifest["vectors"]
        }
        for name, data in inputs.items():
            assert hashlib.sha256(data).hexdigest() == digests[name], name


class TestFrames:
    def test_encoders_reproduce_frames_byte_exactly(self, manifest, codecs, inputs):
        for vector in manifest["vectors"]:
            stored = (GOLDEN_DIR / vector["path"]).read_bytes()
            assert len(stored) == vector["frame_bytes"], vector["path"]
            assert hashlib.sha256(stored).hexdigest() == vector["frame_sha256"], (
                vector["path"]
            )
            fresh = codecs[vector["codec"]].compress(
                inputs[vector["input"]], level=vector["level"]
            )
            assert fresh == stored, f"{vector['path']}: {REGEN_HINT}"

    def test_decoders_roundtrip_stored_frames(self, manifest, codecs, inputs):
        for vector in manifest["vectors"]:
            stored = (GOLDEN_DIR / vector["path"]).read_bytes()
            decoded = codecs[vector["codec"]].decompress(stored)
            assert decoded == inputs[vector["input"]], vector["path"]

    def test_no_orphan_frames_on_disk(self, manifest):
        listed = {v["path"] for v in manifest["vectors"]}
        on_disk = {
            str(p.relative_to(GOLDEN_DIR))
            for p in GOLDEN_DIR.rglob("*.bin")
        }
        assert on_disk == listed


def _chunks(data: bytes, size):
    """Split ``data`` into feed-sized pieces (``None`` = whole buffer)."""
    if size is None or size >= max(1, len(data)):
        return [data]
    return [data[i : i + size] for i in range(0, len(data), size)]


#: Feed granularities for the streaming-equivalence sweep: pathological
#: (1 byte), prime-misaligned (7), page-ish (4096), and whole-buffer.
CHUNK_SIZES = [1, 7, 4096, None]


class TestStreamingParity:
    """The streaming path must be bit-identical to one-shot at any chunking.

    One-shot output is already pinned byte-exactly by :class:`TestFrames`,
    so asserting streaming output against the stored frames proves
    streaming == one-shot == golden for every codec and vector.
    """

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_streaming_compress_matches_golden_frames(
        self, manifest, codecs, inputs, chunk_size
    ):
        for vector in manifest["vectors"]:
            stored = (GOLDEN_DIR / vector["path"]).read_bytes()
            ctx = codecs[vector["codec"]].compress_context(level=vector["level"])
            out = b"".join(
                ctx.feed(piece)
                for piece in _chunks(inputs[vector["input"]], chunk_size)
            )
            out += ctx.flush()
            assert out == stored, (vector["path"], chunk_size, REGEN_HINT)
            assert ctx.finished

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_streaming_decompress_matches_inputs(
        self, manifest, codecs, inputs, chunk_size
    ):
        for vector in manifest["vectors"]:
            stored = (GOLDEN_DIR / vector["path"]).read_bytes()
            ctx = codecs[vector["codec"]].decompress_context()
            decoded = b"".join(
                ctx.feed(piece) for piece in _chunks(stored, chunk_size)
            )
            decoded += ctx.flush()
            assert decoded == inputs[vector["input"]], (vector["path"], chunk_size)
            assert ctx.finished
