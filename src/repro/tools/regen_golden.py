"""Regenerate the golden wire-format vectors under ``tests/data/golden/``.

Usage::

    PYTHONPATH=src python -m repro.tools.regen_golden [--out tests/data/golden]

Every registered codec (plus the unregistered raw-DEFLATE interop module)
is run over a fixed set of deterministic inputs at representative levels;
each compressed frame is written to disk, and ``manifest.json`` records the
SHA-256 of every input and frame. ``tests/algorithms/test_golden_vectors.py``
then asserts that today's encoders reproduce the frames byte-for-byte and
that every stored frame still decodes.

Codec output bytes are part of the repo's compatibility surface: a change
to them (a new header field, different match heuristics, a checksum change)
fails the golden test until this tool is rerun and the refreshed frames are
committed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.algorithms.deflate import DeflateCodec
from repro.algorithms.registry import available_codecs, get_codec
from repro.common.rng import make_rng
from repro.common.units import KiB

#: Manifest layout version.
MANIFEST_SCHEMA = 1

#: Codecs exercised beyond the registry: raw DEFLATE is interop-only (no
#: integrity trailer, hence unregistered) but its wire bytes are golden too.
EXTRA_CODECS = {"deflate": DeflateCodec}

#: Seed for the synthesized inputs; the manifest records every input's
#: digest, so changing it fails the golden test until the vectors are rerun.
GOLDEN_SEED = 20230617

#: Size of the synthesized random/skewed inputs.
GOLDEN_BLOB_BYTES = 4 * KiB


def golden_inputs() -> Dict[str, bytes]:
    """The fixed input set, regenerated identically by tool and test."""
    rng = make_rng(GOLDEN_SEED, "golden-vectors")
    text = (
        b"Hyperscale fleets spend several percent of all cycles in "
        b"(de)compression; a co-designed CDPU gives those cycles back. " * 40
    )
    random_block = rng.integers(0, 256, size=GOLDEN_BLOB_BYTES, dtype="uint8").tobytes()
    skewed = rng.choice(
        list(b"aaaaabbbcd"), size=GOLDEN_BLOB_BYTES, replace=True
    ).astype("uint8").tobytes()
    return {
        "empty": b"",
        "one_byte": b"G",
        "ascii_text": text,
        "zeros": b"\x00" * 3000,
        "repeat8": b"golden!!" * 512,
        "random4k": random_block,
        "skewed4k": skewed,
        "mixed": text[:1500] + random_block[:1500] + text[:1500],
    }


def golden_levels(codec) -> List[Optional[int]]:
    """Representative levels: default only, or {min, default, max}."""
    info = codec.info
    if not info.supports_levels:
        return [None]
    return sorted({info.min_level, info.default_level, info.max_level})


def _codec_factories() -> Dict[str, object]:
    factories: Dict[str, object] = {name: get_codec(name) for name in available_codecs()}
    for name, factory in EXTRA_CODECS.items():
        factories[name] = factory()
    return factories


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def regenerate(out_dir: Path) -> dict:
    """Write all frames + manifest under ``out_dir``; returns the manifest."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    inputs = golden_inputs()
    vectors = []
    for codec_name, codec in sorted(_codec_factories().items()):
        codec_dir = out_dir / codec_name
        codec_dir.mkdir()
        for level in golden_levels(codec):
            for input_name, data in inputs.items():
                frame = codec.compress(data, level=level)
                label = "default" if level is None else str(level)
                rel = f"{codec_name}/{input_name}__l{label}.bin"
                (out_dir / rel).write_bytes(frame)
                vectors.append(
                    {
                        "codec": codec_name,
                        "input": input_name,
                        "level": level,
                        "path": rel,
                        "input_sha256": _sha256(data),
                        "frame_sha256": _sha256(frame),
                        "frame_bytes": len(frame),
                    }
                )
    manifest = {
        "manifest_schema": MANIFEST_SCHEMA,
        "golden_seed": GOLDEN_SEED,
        "registered_codecs": available_codecs(),
        "extra_codecs": sorted(EXTRA_CODECS),
        "vectors": vectors,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def default_out_dir() -> Path:
    return Path(__file__).resolve().parents[3] / "tests" / "data" / "golden"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=default_out_dir(),
        help="output directory (default: tests/data/golden)",
    )
    args = parser.parse_args(argv)
    manifest = regenerate(args.out)
    frames = len(manifest["vectors"])
    total = sum(v["frame_bytes"] for v in manifest["vectors"])
    codecs = len(manifest["registered_codecs"]) + len(manifest["extra_codecs"])
    print(f"wrote {frames} frames ({total} bytes) for {codecs} codecs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
