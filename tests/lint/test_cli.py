"""CLI behaviour: exit codes, formats, baseline flags, repro-CLI wiring."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema

from repro.lint.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"

#: Structural subset of the SARIF 2.1.0 schema covering everything this
#: tool emits. The full upstream schema is not vendored; this pins the
#: load-bearing shape (versioning, tool.driver.rules, result locations)
#: so a regression cannot silently break code-scanning upload.
SARIF_21_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string"},
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "columnKind": {
                        "enum": ["utf16CodeUnits", "unicodeCodePoints"]
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": ["artifactLocation"],
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    }
                                                },
                                            }
                                        },
                                    },
                                },
                                "suppressions": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["kind"],
                                        "properties": {
                                            "kind": {
                                                "enum": [
                                                    "inSource",
                                                    "external",
                                                ]
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        project.write("src/repro/clean.py", "X = 1\n")
        assert main([str(project.root / "src")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_error_finding_exits_one(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        assert main([str(project.root / "src")]) == 1
        assert "R012" in capsys.readouterr().out

    def test_warning_passes_by_default_fails_strict(self, project, capsys):
        project.write(
            "src/repro/sim/clock.py",
            "def period(cycles):\n    return cycles / 2.1e9\n",
        )
        assert main([str(project.root / "src")]) == 0
        assert main([str(project.root / "src"), "--strict"]) == 1

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["/definitely/not/a/path"]) == 2

    def test_baselined_finding_passes(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        src = str(project.root / "src")
        assert main([src, "--update-baseline", "--justification", "legacy rng"]) == 0
        assert main([src, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_update_baseline_requires_justification(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        src = str(project.root / "src")
        assert main([src, "--update-baseline"]) == 2
        assert "justification" in capsys.readouterr().err

    def test_update_baseline_rejects_placeholder(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        src = str(project.root / "src")
        rc = main([src, "--update-baseline", "--justification", "TODO: fix"])
        assert rc == 2
        assert "deferral" in capsys.readouterr().err

    def test_no_baseline_flag_resurfaces_findings(self, project):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        src = str(project.root / "src")
        assert main([src, "--update-baseline", "--justification", "legacy rng"]) == 0
        assert main([src, "--no-baseline"]) == 1

    def test_stale_baseline_fails_only_under_strict(self, project):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        src = str(project.root / "src")
        assert main([src, "--update-baseline", "--justification", "legacy rng"]) == 0
        project.write("src/repro/fleet/sampler.py", "X = 1\n")  # fixed
        assert main([src]) == 0
        assert main([src, "--strict"]) == 1


class TestJsonFormat:
    def test_json_output_parses_and_carries_findings(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        main([str(project.root / "src"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] >= 1
        assert [f["rule"] for f in payload["findings"]] == ["R012"]


class TestSarifFormat:
    def _emit(self, project, capsys, *extra):
        main([str(project.root / "src"), "--format", "sarif", *extra])
        return json.loads(capsys.readouterr().out)

    def test_log_validates_against_sarif_21_schema(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        log = self._emit(project, capsys)
        jsonschema.validate(log, SARIF_21_SCHEMA)
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_all_rules_declared_and_results_indexed(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        log = self._emit(project, capsys)
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        expected = [
            "R002", "R003", "R004", "R005", "R006", "R008", "R009",
            "R012", "R013", "R016",
        ]
        assert [r["id"] for r in rules] == expected
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "R012"
        assert result["level"] == "error"
        assert rules[result["ruleIndex"]]["id"] == "R012"

    def test_concurrency_rules_carry_help_markdown(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        log = self._emit(project, capsys)
        rules = {r["id"]: r for r in log["runs"][0]["tool"]["driver"]["rules"]}
        for code in ("R012", "R013", "R016"):
            help_block = rules[code]["help"]
            assert help_block["markdown"] == help_block["text"]
            assert help_block["markdown"]

    def test_columns_are_one_based(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        log = self._emit(project, capsys)
        region = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_baselined_findings_carry_suppressions(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        src = str(project.root / "src")
        assert main([src, "--update-baseline", "--justification", "legacy rng"]) == 0
        capsys.readouterr()
        log = self._emit(project, capsys)
        jsonschema.validate(log, SARIF_21_SCHEMA)
        (result,) = log["runs"][0]["results"]
        assert result["suppressions"][0]["kind"] == "external"

    def test_runs_without_numpy(self, project, tmp_path_factory):
        """CI's SARIF job installs nothing: ``repro lint`` needs only the
        standard library, in the parent and in its pool workers."""
        project.write("src/repro/fleet/sampler.py", "import random\n")
        blocked = tmp_path_factory.mktemp("blocked") / "numpy"
        blocked.mkdir()
        (blocked / "__init__.py").write_text('raise ModuleNotFoundError("numpy is blocked")\n')
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(blocked.parent), str(SRC)]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--format", "sarif", "--jobs", "2", "src"],
            cwd=project.root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert proc.returncode == 1, proc.stderr  # the one finding
        log = json.loads(proc.stdout)  # a crash also exits 1, with no log
        jsonschema.validate(log, SARIF_21_SCHEMA)
        assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["R012"]

    def test_fingerprints_present_for_dedup(self, project, capsys):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        log = self._emit(project, capsys)
        fingerprints = log["runs"][0]["results"][0]["partialFingerprints"]
        assert "reproLintFingerprint/v1" in fingerprints


class TestJobsAndCache:
    FIXTURES = {
        "src/repro/fleet/sampler.py": "import random\n",
        "src/repro/algorithms/toy.py": """
            def decompress(data):
                length = int.from_bytes(data[:4], "little")
                return data[4:4 + length]
        """,
        "src/repro/algorithms/helper.py": """
            def _read(data, pos):
                return data[pos]
        """,
        "src/repro/sim/clock.py": "def period(cycles):\n    return cycles / 2.1e9\n",
        "src/repro/common/util.py": "X = 1\n",
    }

    def _populate(self, project):
        for rel, source in self.FIXTURES.items():
            project.write(rel, source)

    def test_jobs_4_output_is_byte_identical_to_jobs_1(self, project, capsys):
        self._populate(project)
        src = str(project.root / "src")
        main([src, "--format", "sarif", "--no-cache", "--jobs", "1"])
        serial = capsys.readouterr().out
        main([src, "--format", "sarif", "--no-cache", "--jobs", "4"])
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert json.loads(serial)["runs"][0]["results"]  # non-trivial run

    def test_invalid_jobs_is_usage_error(self, project, capsys):
        self._populate(project)
        assert main([str(project.root / "src"), "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_jobs_env_var_is_validated(self, project, capsys, monkeypatch):
        self._populate(project)
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert main([str(project.root / "src")]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_cache_dir_created_by_default_not_with_no_cache(self, project):
        self._populate(project)
        src = str(project.root / "src")
        cache_dir = project.root / "results" / ".lint-cache"
        main([src, "--no-cache"])
        assert not cache_dir.exists()
        main([src])
        assert any(cache_dir.glob("*.json"))

    def test_warm_cache_matches_cold_output(self, project, capsys):
        self._populate(project)
        src = str(project.root / "src")
        main([src, "--format", "json"])
        cold = capsys.readouterr().out
        main([src, "--format", "json"])
        warm = capsys.readouterr().out
        assert cold == warm


class TestReproCliWiring:
    def test_lint_subcommand_forwards(self, project, capsys):
        from repro.cli import main as repro_main

        project.write("src/repro/fleet/sampler.py", "import random\n")
        rc = repro_main(["lint", str(project.root / "src")])
        assert rc == 1
        assert "R012" in capsys.readouterr().out

    def test_module_entry_point_exists(self):
        import repro.lint.__main__  # noqa: F401
