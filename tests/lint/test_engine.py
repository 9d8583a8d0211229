"""Engine behaviour: suppressions, parse failures, discovery, rendering."""

import pytest

from repro.lint import Severity, run_lint
from repro.lint.findings import Finding


class TestSuppressions:
    def test_blanket_noqa_suppresses_all_rules(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            "import random  # repro: noqa\n",
        )
        result = project.lint("src")
        assert result.findings == []
        assert result.suppressed == 1

    def test_targeted_noqa_suppresses_named_rule(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            "import random  # repro: noqa[R012]\n",
        )
        result = project.lint("src")
        assert result.findings == []
        assert result.suppressed == 1

    def test_targeted_noqa_for_other_rule_does_not_suppress(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            "import random  # repro: noqa[R003]\n",
        )
        result = project.lint("src")
        assert [f.rule for f in result.findings] == ["R012"]
        assert result.suppressed == 0

    def test_multiple_codes_in_one_marker(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            "import random  # repro: noqa[R003, R012]\n",
        )
        assert project.lint("src").findings == []

    def test_noqa_only_covers_its_own_line(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            "# repro: noqa[R012]\nimport random\n",
        )
        assert [f.rule for f in project.lint("src").findings] == ["R012"]


class TestParseFailures:
    def test_syntax_error_becomes_r000_finding(self, project):
        project.write("src/repro/broken.py", "def broken(:\n")
        result = project.lint("src")
        assert [f.rule for f in result.findings] == ["R000"]
        assert result.findings[0].severity is Severity.ERROR

    def test_other_files_still_checked(self, project):
        project.write("src/repro/broken.py", "def broken(:\n")
        project.write("src/repro/fleet/sampler.py", "import random\n")
        assert sorted(f.rule for f in project.lint("src").findings) == ["R000", "R012"]


class TestDiscovery:
    def test_pycache_skipped_and_single_file_accepted(self, project):
        project.write("src/repro/__pycache__/junk.py", "import random\n")
        target = project.write("src/repro/one.py", "import random\n")
        result = run_lint([target], root=project.root)
        assert result.files_checked == 1
        assert [f.rule for f in result.findings] == ["R012"]

    def test_results_sorted_by_location(self, project):
        project.write("src/repro/b.py", "import random\n")
        project.write("src/repro/a.py", "import random\nimport random\n")
        findings = project.lint("src").findings
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/a.py", 1),
            ("src/repro/a.py", 2),
            ("src/repro/b.py", 1),
        ]

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            run_lint([])


class TestFindingRendering:
    FINDING = Finding(
        rule="R001",
        path="src/repro/x.py",
        line=3,
        col=4,
        severity=Severity.ERROR,
        message="no entropy for you",
        snippet="import random",
    )

    def test_render_is_clickable_and_complete(self):
        text = self.FINDING.render()
        assert text.startswith("src/repro/x.py:3:4: ")
        assert "R001" in text and "error" in text and "no entropy" in text

    def test_json_round_trip_fields(self):
        payload = self.FINDING.to_json()
        assert payload["rule"] == "R001"
        assert payload["severity"] == "error"
        assert payload["line"] == 3

    def test_fingerprint_stable_under_line_drift(self):
        moved = Finding(
            rule="R001",
            path="src/repro/x.py",
            line=99,
            col=0,
            severity=Severity.ERROR,
            message="no entropy for you",
            snippet="import random",
        )
        assert moved.fingerprint == self.FINDING.fingerprint

    def test_severity_parse_and_order(self):
        assert Severity.parse("warning") is Severity.WARNING
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
