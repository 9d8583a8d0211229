"""Suppression and baseline interaction for the flow-sensitive rules.

Flow-sensitive findings have two candidate homes: the *surface* site (the
public function where the contract is declared) and the *blame* site (the
statement that actually violates it, possibly frames away).
``# repro: noqa[...]`` applies to the reported line only, so the rules'
choice of report site IS the suppression contract:

* R007 reports at the blame line inside the surface function — the call
  that lets a helper's low-level error escape. Suppress there; a noqa on
  the helper line that raises must NOT silence it, nor one on the ``def``.
* R009 reports at the unguarded read — suppress at the read.
* R016 reports at the ``continue`` that skips the cursor advance.

The baseline must grandfather the same lines the engine reports, so these
tests also pin the round-trip: update-baseline -> clean run -> stale entry
detection when the offending line disappears.
"""

import json

from repro.lint.cli import main as lint_main

#: An R007 violation: ``struct.error`` escapes ``decompress`` from a helper
#: one frame down.
_R007_PROJECT = """
import struct

def _read_u32(data):
    return struct.unpack("<I", data[:4])[0]{helper_noqa}

def decompress(data):
    return _read_u32(data){call_noqa}
"""

#: The fixed twin: the surface translates the helper's error.
_R007_FIXED = """
import struct

from repro.common.errors import CorruptStreamError

def _read_u32(data):
    return struct.unpack("<I", data[:4])[0]

def decompress(data):
    try:
        return _read_u32(data)
    except struct.error as exc:
        raise CorruptStreamError("truncated header") from exc
"""


def _r007_source(helper_noqa: str = "", call_noqa: str = "") -> str:
    return _R007_PROJECT.format(helper_noqa=helper_noqa, call_noqa=call_noqa)


class TestBlameVsSurfaceSuppression:
    def test_r007_noqa_at_helper_call_suppresses(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            _r007_source(call_noqa="  # repro: noqa[R007]"),
        )
        assert project.findings("src", rule="R007") == []

    def test_r007_noqa_at_helper_raise_does_not_suppress(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            _r007_source(helper_noqa="  # repro: noqa[R007]"),
        )
        assert len(project.findings("src", rule="R007")) == 1

    def test_r016_noqa_at_continue_suppresses(self, project):
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def decode_tags(data):
                pos = 0
                out = []
                while pos < len(data):
                    tag = data[pos]
                    if tag == 0:
                        continue  # repro: noqa[R016]
                    pos += 1
                    out.append(tag)
                return out
            """,
        )
        assert project.findings("src", rule="R016") == []

    def test_r007_noqa_at_blame_line_suppresses(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            import struct

            def decompress(data):
                return struct.unpack("<I", data[:4])[0]  # repro: noqa[R007]
            """,
        )
        assert project.findings("src", rule="R007") == []

    def test_r007_noqa_on_def_line_does_not_suppress(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            import struct

            def decompress(data):  # repro: noqa[R007]
                return struct.unpack("<I", data[:4])[0]
            """,
        )
        assert len(project.findings("src", rule="R007")) == 1

    def test_r009_noqa_at_read_site_suppresses(self, project):
        project.write(
            "src/repro/core/blocks/toy.py",
            """
            def decode_token(data, pos):
                if pos < len(data):
                    return data[pos]
                return data[pos + 1]  # repro: noqa[R009]
            """,
        )
        assert project.findings("src", rule="R009") == []

    def test_r012_noqa_at_hazard_line_suppresses(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            import os

            def manifest(root):
                return [n for n in os.listdir(root)]  # repro: noqa[R012]
            """,
        )
        assert project.findings("src", rule="R012") == []

    def test_r013_noqa_at_call_suppresses(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            import time

            async def serve(request):
                time.sleep(0.1)  # repro: noqa[R013]
                return request
            """,
        )
        assert project.findings("src", rule="R013") == []


class TestBaselineInteraction:
    def _baseline(self, project):
        return project.root / ".repro-lint-baseline.json"

    def test_r007_finding_baselines_and_then_passes(self, project, capsys):
        project.write("src/repro/algorithms/toy.py", _r007_source())
        src = str(project.root / "src")
        baseline = str(self._baseline(project))
        assert (
            lint_main(
                [
                    src,
                    "--baseline",
                    baseline,
                    "--update-baseline",
                    "--justification",
                    "legacy header reader; translation tracked",
                ]
            )
            == 0
        )
        capsys.readouterr()
        entries = json.loads(self._baseline(project).read_text())["findings"]
        assert [e["rule"] for e in entries] == ["R007"]
        # The blame line in the surface, not the helper that raises.
        assert entries[0]["snippet"] == "return _read_u32(data)"
        # Grandfathered: the strict run is clean now.
        assert lint_main([src, "--strict", "--baseline", baseline]) == 0

    def test_translating_the_leak_makes_baseline_entry_stale(self, project, capsys):
        project.write("src/repro/algorithms/toy.py", _r007_source())
        src = str(project.root / "src")
        baseline = str(self._baseline(project))
        lint_main(
            [
                src,
                "--baseline",
                baseline,
                "--update-baseline",
                "--justification",
                "legacy header reader; translation tracked",
            ]
        )
        # Fix the violation: the surface translates the helper's error.
        project.write("src/repro/algorithms/toy.py", _R007_FIXED)
        capsys.readouterr()
        # Strict mode flags the now-stale grandfathered entry.
        assert lint_main([src, "--strict", "--baseline", baseline]) == 1
        out = capsys.readouterr().out + capsys.readouterr().err
        assert "stale" in out.lower()
