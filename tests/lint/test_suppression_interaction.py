"""Suppression and baseline interaction for the flow-sensitive rules.

Flow-sensitive findings have two candidate homes: the *surface* site (the
``def`` of the function that holds the bug) and the *blame* site (the
statement that actually violates the contract). ``# repro: noqa[...]``
applies to the reported line only, so the rules' choice of report site IS
the suppression contract:

* R008 reports at the sink the unchecked length reaches — suppress there;
  a noqa on the ``def`` line must NOT silence it.
* R009 reports at the unguarded read — suppress at the read.
* R016 reports at the ``continue`` that skips the cursor advance.

The baseline must grandfather the same lines the engine reports, so these
tests also pin the round-trip: update-baseline -> clean run -> stale entry
detection when the offending line disappears.
"""

import json

from repro.lint.cli import main as lint_main

#: An R008 violation: a stream-decoded length bounds a slice unchecked.
_R008_SOURCE = """
from repro.common.varint import decode_varint

def decode_block(buf, pos):{def_noqa}
    length, pos = decode_varint(buf, pos)
    return buf[pos:pos + length]{sink_noqa}
"""

#: An R009 violation: a decoder reads the buffer with no bounds check.
_R009_PROJECT = """
def decode_tag(data, pos):
    return data[pos]
"""

#: The fixed twin: the decoder translates the read's IndexError.
_R009_FIXED = """
from repro.common.errors import CorruptStreamError

def decode_tag(data, pos):
    try:
        return data[pos]
    except IndexError:
        raise CorruptStreamError("truncated tag") from None
"""


def _r008_source(def_noqa: str = "", sink_noqa: str = "") -> str:
    return _R008_SOURCE.format(def_noqa=def_noqa, sink_noqa=sink_noqa)


class TestBlameVsSurfaceSuppression:
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

    def test_r008_noqa_at_sink_suppresses(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            _r008_source(sink_noqa="  # repro: noqa[R008]"),
        )
        assert project.findings("src", rule="R008") == []

    def test_r008_noqa_on_def_line_does_not_suppress(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            _r008_source(def_noqa="  # repro: noqa[R008]"),
        )
        assert len(project.findings("src", rule="R008")) == 1

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

    def test_r009_finding_baselines_and_then_passes(self, project, capsys):
        project.write("src/repro/algorithms/toy.py", _R009_PROJECT)
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
                    "legacy tag reader; translation tracked",
                ]
            )
            == 0
        )
        capsys.readouterr()
        entries = json.loads(self._baseline(project).read_text())["findings"]
        assert [e["rule"] for e in entries] == ["R009"]
        # The blame line, not the def of the function that holds it.
        assert entries[0]["snippet"] == "return data[pos]"
        # Grandfathered: the strict run is clean now.
        assert lint_main([src, "--strict", "--baseline", baseline]) == 0

    def test_translating_the_leak_makes_baseline_entry_stale(self, project, capsys):
        project.write("src/repro/algorithms/toy.py", _R009_PROJECT)
        src = str(project.root / "src")
        baseline = str(self._baseline(project))
        lint_main(
            [
                src,
                "--baseline",
                baseline,
                "--update-baseline",
                "--justification",
                "legacy tag reader; translation tracked",
            ]
        )
        # Fix the violation: the decoder translates the read's error.
        project.write("src/repro/algorithms/toy.py", _R009_FIXED)
        capsys.readouterr()
        # Strict mode flags the now-stale grandfathered entry.
        assert lint_main([src, "--strict", "--baseline", baseline]) == 1
        out = capsys.readouterr().out + capsys.readouterr().err
        assert "stale" in out.lower()
