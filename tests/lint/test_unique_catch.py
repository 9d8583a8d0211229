"""Every registered rule catches something no other rule catches.

For each rule code there is one planted bug, taken from that rule's own
tests, on which the full rule set reports that code and nothing else. A
rule that cannot be given such a fixture duplicates another and should be
folded into it.
"""

import pytest

from repro.lint import run_lint
from repro.lint.registry import rule_codes

#: Rule code -> ``{project-relative path: source}`` of its planted bug.
PLANTED = {
    # A swallowed KeyError: only R002 reads exception handlers.
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
    "R012": {"src/repro/fleet/sampler.py": "import random\n"},
    "R013": {
        "src/repro/service/worker.py": """
            import time

            async def serve(request):
                time.sleep(0.1)
                return request
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


#: Every finding row ``(rule, path, line, col, message)`` the full rule set
#: reports on each planted bug. Pinned so a change to how the analyzer reads
#: its trees cannot move, add or drop a finding unnoticed: the library itself
#: lints clean, so its own findings prove nothing here.
PINNED_ROWS = {
    'R002': [
        ('R002', 'src/repro/algorithms/toy.py', 7, 4, 'handler for KeyError must translate underflow into CorruptStreamError (with stream offset context)'),
    ],
    'R003': [
        ('R003', 'src/repro/sim/clock.py', 3, 20, 'frequency/throughput-scale literal 2100000000.0: define it in core/calibration.py (or build it from common.units)'),
    ],
    'R004': [
        ('R004', 'src/repro/fleet/api.py', 2, 17, "mutable default argument in 'collect': the instance is shared across calls; default to None and create inside"),
    ],
    'R005': [
        ('R005', 'src/repro/algorithms/registry.py', 5, 4, "codec 'mycodec': no round-trip test file tests/algorithms/test_mycodec.py"),
    ],
    'R006': [
        ('R006', 'src/repro/algorithms/mycodec.py', 5, 19, "inline use of frame magic 'MAGIC': preamble byte handling belongs to the container layer — declare a FrameSpec and use encode_preamble()/decode_preamble() instead"),
    ],
    'R008': [
        ('R008', 'src/repro/algorithms/toy.py', 6, 0, "'length' comes from the untrusted stream and reaches a slice-bound in 'decode_block' without a bounds check (slice bounds silently clamp, hiding truncation); compare it against the buffer length or a documented limit first"),
    ],
    'R009': [
        ('R009', 'src/repro/algorithms/toy.py', 3, 0, "read of 'data' in 'decode_header' has no dominating bounds check; corrupt input would surface as IndexError instead of CorruptStreamError — guard the index or translate the exception"),
        ('R009', 'src/repro/algorithms/toy.py', 3, 0, "read of 'data' in 'decode_header' has no dominating bounds check; corrupt input would surface as IndexError instead of CorruptStreamError — guard the index or translate the exception"),
    ],
    'R012': [
        ('R012', 'src/repro/fleet/sampler.py', 1, 0, "import of stdlib 'random': use repro.common.rng.make_rng so runs are seed-deterministic"),
    ],
    'R013': [
        ('R013', 'src/repro/service/worker.py', 5, 4, "blocking call 'time.sleep(...)' inside 'async def serve' stalls the event loop for every in-flight task; use await asyncio.sleep(...)"),
    ],
    'R016': [
        ('R016', 'src/repro/algorithms/spinner.py', 8, 12, 'this `continue` re-enters the loop without consuming input: no statement before it on this path advances the loop condition — a corrupt frame reaching it loops forever'),
    ],
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("code", rule_codes())
def test_planted_bug_finding_rows_are_pinned(project, code, jobs):
    for rel, source in PLANTED[code].items():
        project.write(rel, source)
    result = run_lint([project.root / "src"], root=project.root, jobs=jobs)
    rows = [(f.rule, f.path, f.line, f.col, f.message) for f in result.findings]
    assert rows == PINNED_ROWS[code]
