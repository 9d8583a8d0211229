"""Tests for the determinism and event-loop rules (R012, R013)."""

import pytest

from repro.lint import get_rule
from tests.planted_worker import PLANTED_WORKER_SOURCE


class TestR012DeterminismHygiene:
    def test_unsorted_listdir_flagged(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            import os

            def manifest(root):
                return [name for name in os.listdir(root)]
            """,
        )
        (finding,) = project.findings("src", rule="R012")
        assert "os.listdir" in finding.message

    def test_sorted_listdir_clean(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            import os

            def manifest(root):
                return sorted(os.listdir(root))
            """,
        )
        assert project.findings("src", rule="R012") == []

    def test_path_glob_method_flagged(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            def entries(root):
                for path in root.glob("*.bin"):
                    yield path
            """,
        )
        (finding,) = project.findings("src", rule="R012")
        assert "root.glob" in finding.message

    def test_len_wrapper_is_order_safe(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            import os

            def count(root):
                return len(os.listdir(root))
            """,
        )
        assert project.findings("src", rule="R012") == []

    def test_set_iteration_in_for_flagged(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            def emit(names):
                pending = {n.strip() for n in names}
                out = []
                for name in pending:
                    out.append(name)
                return out
            """,
        )
        (finding,) = project.findings("src", rule="R012")
        assert "PYTHONHASHSEED" in finding.message

    def test_sorted_set_iteration_clean(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            def emit(names):
                pending = {n.strip() for n in names}
                return [name for name in sorted(pending)]
            """,
        )
        assert project.findings("src", rule="R012") == []

    def test_set_membership_not_flagged(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            ALLOWED = {"a", "b"}

            def check(name):
                return name in ALLOWED
            """,
        )
        assert project.findings("src", rule="R012") == []

    def test_clock_value_into_cache_key_flagged(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            import time

            def stamp_key(cache, payload):
                stamp = time.time()
                return cache.make_key(payload, stamp)
            """,
        )
        (finding,) = project.findings("src", rule="R012")
        assert "wall-clock" in finding.message

    def test_clock_into_json_dumps_flagged(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            import json
            import time

            def report(results):
                return json.dumps({"results": results, "at": time.time()})
            """,
        )
        assert project.findings("src", rule="R012") != []

    def test_global_random_call_flagged(self, project):
        project.write(
            "src/repro/corpus/scan.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert any(
            "interpreter-global" in f.message
            for f in project.findings("src", rule="R012")
        )

    def test_aliased_numpy_random_flagged(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            """
            from numpy import random as npr
            import numpy.random as nr

            def draw():
                return npr.rand() + nr.randint(4)
            """,
        )
        found = project.findings("src", rule="R012")
        assert sorted(f.line for f in found) == [2, 3, 6, 6]
        assert any("npr.rand()" in f.message for f in found)

    def test_planted_worker_source_detected_statically(self, project):
        """The hash-seed parity test's planted bug must also be caught by R012."""
        project.write("src/repro/fleet/planted.py", PLANTED_WORKER_SOURCE)
        findings = project.findings("src", rule="R012")
        assert findings, "R012 missed the planted unsorted-glob worker"
        assert any("glob.glob" in f.message for f in findings)

    def test_obs_tree_exempt(self, project):
        project.write(
            "src/repro/obs/clock.py",
            """
            import time

            def snapshot_key(metrics):
                return metrics.make_key(time.time())
            """,
        )
        assert project.findings("src", rule="R012") == []


class TestR013BlockingInAsync:
    def test_time_sleep_in_async_flagged(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            import time

            async def serve(request):
                time.sleep(0.1)
                return request
            """,
        )
        (finding,) = project.findings("src", rule="R013")
        assert "time.sleep" in finding.message
        assert "asyncio.sleep" in finding.message

    def test_subprocess_run_in_async_flagged(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            import subprocess

            async def serve(request):
                return subprocess.run(["true"])
            """,
        )
        (finding,) = project.findings("src", rule="R013")
        assert "subprocess.run" in finding.message

    def test_import_alias_resolved(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            import subprocess as sp

            async def serve(request):
                return sp.check_output(["true"])
            """,
        )
        (finding,) = project.findings("src", rule="R013")
        assert "check_output" in finding.message

    def test_bare_open_in_async_flagged(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            async def serve(path):
                with open(path) as handle:
                    return handle.read()
            """,
        )
        (finding,) = project.findings("src", rule="R013")
        assert "'open(" in finding.message

    def test_sync_function_not_flagged(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            import time

            def serve(request):
                time.sleep(0.1)
                return request
            """,
        )
        assert project.findings("src", rule="R013") == []

    def test_nested_sync_def_inside_async_not_flagged(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            import time

            async def serve(request):
                def blocking_helper():
                    time.sleep(0.1)
                return blocking_helper
            """,
        )
        assert project.findings("src", rule="R013") == []

    def test_asyncio_sleep_clean(self, project):
        project.write(
            "src/repro/service/worker.py",
            """
            import asyncio

            async def serve(request):
                await asyncio.sleep(0.1)
                return request
            """,
        )
        assert project.findings("src", rule="R013") == []


class TestRemediationMetadata:
    @pytest.mark.parametrize("code", ["R012", "R013"])
    def test_new_rules_carry_remediation(self, code):
        assert get_rule(code).remediation
