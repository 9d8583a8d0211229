"""Import layering: each process loads only the modules it runs.

``repro/__init__.py`` resolves its public names on first use (PEP 562), so
the analyzer, which needs only the standard library, never pays for numpy,
the codecs, the cycle model or the DSE. What a process has imported is only
visible in a fresh interpreter, so the checks on what loads start one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def _last_json(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Modules the analyzer must never load.
HEAVY = ("numpy", "repro.algorithms", "repro.core", "repro.dse")

LINT_IMPORTS = f"""
import json, sys
import repro
import repro.lint.cli
import repro.lint.engine
print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))
"""

#: Imports every module under ``src/repro`` as the first ``repro`` module of
#: the process, so a cycle that an eager package ``__init__`` would hide by
#: loading the other side first fails here.
EACH_MODULE_FIRST = """
import importlib, json, pkgutil, sys, traceback
import repro

failures = []
names = sorted(
    info.name
    for info in pkgutil.walk_packages(
        repro.__path__, "repro.", onerror=lambda name: failures.append([name, "walk"])
    )
)
for name in names:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures.append([name, traceback.format_exc(limit=-3)])
print(json.dumps({"modules": len(names), "failures": failures}))
"""


class TestLazyTopLevel:
    def test_lint_loads_no_numpy_codecs_model_or_dse(self):
        assert _last_json(_python("-c", LINT_IMPORTS)) == []

    def test_every_public_name_resolves_and_is_listed(self):
        listing = dir(repro)
        for name in repro.__all__:
            assert getattr(repro, name) is not None
            assert name in listing

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro, "no_such_name")

    def test_quickstart_runs(self):
        proc = _python(str(ROOT / "examples" / "quickstart.py"))
        assert proc.returncode == 0, proc.stderr
        assert "GB/s (model)" in proc.stdout


class TestImportCycles:
    def test_every_module_imports_first(self):
        report = _last_json(_python("-c", EACH_MODULE_FIRST))
        assert report["failures"] == []
        assert report["modules"] > 100
