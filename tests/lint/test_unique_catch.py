"""Every registered rule catches something no other rule catches.

For each rule code there is one planted bug, taken from that rule's own
tests, on which the full rule set reports that code and nothing else. A
rule that cannot be given such a fixture duplicates another and should be
folded into it.
"""

import pytest

from repro.lint.registry import rule_codes

#: Rule code -> ``{project-relative path: source}`` of its planted bug.
PLANTED = {
    # A swallowed KeyError: R007 sees only exceptions that escape.
    "R002": {
        "src/repro/algorithms/toy.py": """
            _KINDS = {0: "literal", 1: "copy"}

            def decode_kind(tag):
                try:
                    return _KINDS[tag]
                except KeyError:
                    return None
            """,
    },
    "R003": {
        "src/repro/sim/clock.py": """
            def period(cycles):
                return cycles / 2.1e9
            """,
    },
    "R004": {
        "src/repro/fleet/api.py": """
            def collect(into=[]):
                return into
            """,
    },
    # The registered codec has no round-trip test file.
    "R005": {
        "src/repro/algorithms/registry.py": """
            from repro.algorithms.mycodec import MyCodec

            _CODEC_FACTORIES = {
                "mycodec": MyCodec,
            }
            """,
        "src/repro/algorithms/mycodec.py": """
            class MyCodec:
                def compress(self, data):
                    return data

                def decompress(self, data):
                    return data
            """,
    },
    "R006": {
        "src/repro/algorithms/mycodec.py": """
            MAGIC = b"XY"

            def decode(data):
                if data[:2] != MAGIC:
                    raise ValueError("bad magic")
            """,
    },
    "R007": {
        "src/repro/algorithms/toy.py": """
            import struct

            def decompress(data):
                return struct.unpack("<I", data[:4])[0]
            """,
    },
    "R008": {
        "src/repro/algorithms/toy.py": """
            from repro.common.varint import decode_varint

            def decode_block(buf, pos):
                length, pos = decode_varint(buf, pos)
                return buf[pos:pos + length]
            """,
    },
    "R009": {
        "src/repro/algorithms/toy.py": """
            def decode_header(data):
                return data[0] | (data[1] << 8)
            """,
    },
    "R010": {
        "src/repro/fleet/sweep.py": """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda x: x + 1, i) for i in items]
            """,
    },
    "R011": {
        "src/repro/fleet/sweep.py": """
            from concurrent.futures import ProcessPoolExecutor

            _RESULTS = []

            def work(x):
                global _RESULTS
                _RESULTS = [x]
                return x

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, i) for i in items]
            """,
    },
    "R012": {"src/repro/fleet/sampler.py": "import random\n"},
    "R013": {
        "src/repro/service/worker.py": """
            import time

            async def serve(request):
                time.sleep(0.1)
                return request
            """,
    },
    "R014": {
        "src/repro/algorithms/wonly.py": """
            from repro.algorithms.container import FrameSpec

            FAKE_FRAME = FrameSpec(magic=b"FAKE", version=1, has_checksum=False)

            def encode_frame(data):
                return FAKE_FRAME.encode_preamble(len(data)) + data
            """,
    },
    "R015": {
        "src/repro/algorithms/fakelz.py": """
            from repro.common.varint import decode_varint

            def _inflate(data, size):
                out = bytearray(size)
                out[: len(data)] = data[: len(out)]
                return bytes(out)

            def decode_block(data):
                size, pos = decode_varint(data, 0)
                return _inflate(data[pos:], size)
            """,
    },
    "R016": {
        "src/repro/algorithms/spinner.py": """
            def decode_tags(data):
                pos = 0
                out = []
                while pos < len(data):
                    tag = data[pos]
                    if tag == 0:
                        continue
                    pos += 1
                    out.append(tag)
                return out
            """,
    },
}


@pytest.mark.parametrize("code", rule_codes())
def test_only_this_rule_fires_on_its_planted_bug(project, code):
    assert code in PLANTED, f"{code} has no planted bug of its own"
    for rel, source in PLANTED[code].items():
        project.write(rel, source)
    fired = sorted({f.rule for f in project.findings("src")})
    assert fired == [code]
