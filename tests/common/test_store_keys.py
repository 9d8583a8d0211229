"""Every on-disk store is keyed by the code that fills it.

Each store names the package roots whose :func:`~repro.common.store.source_digest`
is part of its key. That is sound while the store's entry modules import
nothing else from ``repro`` that can change a stored value: the closure test
checks this for all three stores, and the key tests check that an edited
copy of a module under a store's roots misses while an edit elsewhere hits.
"""

import ast
import shutil

import pytest

import repro.dse.cache as dse_cache
import repro.hcbench.suite as suite_module
from repro.algorithms.base import Operation
from repro.common.store import PACKAGE_DIR, source_digest
from repro.core.params import CdpuConfig
from repro.dse.parallel import evaluate_points
from repro.dse.runner import DesignPoint, DseRunner
from repro.hcbench.suite import HyperCompressBench, Suite, default_benchmark
from repro.lint.cache import ANALYZER_DIR

SRC = PACKAGE_DIR.parent

#: Each store: the modules that fill it, and the roots its key digests.
STORES = {
    "dse": (
        ("repro.dse.experiments", "repro.dse.cache", "repro.dse.parallel"),
        dse_cache.CODE_ROOTS,
    ),
    "suite": (("repro.hcbench.suite",), suite_module.CODE_ROOTS),
    "lint": (("repro.lint.engine", "repro.lint.registry"), (ANALYZER_DIR,)),
}

#: Modules a store may import from outside its roots, because none of them
#: can change a stored value.
ALLOWED = {
    "repro",  # the top-level package: a lazy table of re-exports
    "repro.common",  # package init: re-exports the errors and units below
    "repro.common.errors",  # exception types
    "repro.common.parallel",  # worker-count resolution; results match for any count
    "repro.common.store",  # the store and its key rule, not what it stores
    "repro.common.units",  # size constants, loaded by repro.common
}

#: Packages a store may import any module of: spans and counters, never read
#: back into a result.
ALLOWED_PACKAGES = ("repro.obs",)


def _module_file(name):
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imports(name):
    """The ``repro`` modules ``name`` imports anywhere, function bodies and
    ``TYPE_CHECKING`` blocks included."""
    found = set()
    for node in ast.walk(ast.parse(_module_file(name).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{name}: relative import escapes this scan"
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                found.add(submodule if _module_file(submodule) else node.module)
    return {module for module in found if module.split(".")[0] == "repro"}


def _closure(entries):
    """Every ``repro`` module that importing ``entries`` can load, with the
    packages above each one."""
    seen, todo = set(), list(entries)
    while todo:
        parts = todo.pop().split(".")
        for depth in range(1, len(parts) + 1):
            module = ".".join(parts[:depth])
            if module not in seen and _module_file(module) is not None:
                seen.add(module)
                todo.extend(_imports(module))
    return seen


def _under(module, package):
    return module == package or module.startswith(package + ".")


@pytest.mark.parametrize("store", sorted(STORES))
class TestImportClosure:
    def test_store_imports_nothing_outside_its_roots(self, store):
        """Widen a store's roots before it imports a module listed here."""
        entries, roots = STORES[store]
        packages = tuple(".".join(root.relative_to(SRC).parts) for root in roots)
        reached = _closure(entries)
        assert set(entries) <= reached
        outside = {
            module
            for module in reached
            if module not in ALLOWED
            and not any(_under(module, package) for package in packages + ALLOWED_PACKAGES)
        }
        assert outside == set()


def _package(dest, edit=None):
    """A copy of the ``repro`` package under ``dest``, with a comment appended
    to the module ``edit`` (a path inside the package)."""
    package = dest / "repro"
    shutil.copytree(PACKAGE_DIR, package, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        target = package / edit
        target.write_text(target.read_text(encoding="utf-8") + "# edited\n", encoding="utf-8")
    return package


def _roots(package, roots):
    """``roots`` located in the copy ``package``."""
    return tuple(package / root.relative_to(PACKAGE_DIR) for root in roots)


POINT = DesignPoint("snappy", Operation.DECOMPRESS, CdpuConfig())


class TestDseKey:
    def test_digest_follows_content_not_location(self, tmp_path):
        roots = dse_cache.CODE_ROOTS
        assert source_digest(*_roots(_package(tmp_path), roots)) == source_digest(*roots)

    def test_edited_cycle_model_misses_and_edit_elsewhere_hits(
        self, bench, tmp_path, monkeypatch
    ):
        files = bench.suite(POINT.algorithm, POINT.operation).files
        tiny = HyperCompressBench(
            suites={
                (POINT.algorithm, POINT.operation): Suite(
                    POINT.algorithm, POINT.operation, [min(files, key=lambda f: len(f.data))]
                )
            },
            config=bench.config,
        )
        cache = dse_cache.DseCache(tmp_path / "dse-cache")
        roots = dse_cache.CODE_ROOTS

        def stores(name, edit=None):
            package = _package(tmp_path / name, edit)
            monkeypatch.setattr(dse_cache, "CODE_ROOTS", _roots(package, roots))
            evaluate_points(DseRunner(tiny), [POINT], cache=cache)
            return cache.stores

        assert stores("base") == 1
        assert stores("outside", "service/dispatcher.py") == 1
        assert stores("cycle-model", "core/blocks/lz77.py") == 2


class TestSuiteKey:
    def test_edited_corpus_source_misses_and_edit_elsewhere_hits(self, tmp_path, monkeypatch):
        generated = []

        def generate(config):
            generated.append(config)
            return HyperCompressBench(suites={}, config=config)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(suite_module, "generate_hypercompressbench", generate)
        roots = suite_module.CODE_ROOTS

        def generations(name, edit=None):
            package = _package(tmp_path / name, edit)
            monkeypatch.setattr(suite_module, "CODE_ROOTS", _roots(package, roots))
            default_benchmark.__wrapped__(0, 1)
            return len(generated)

        assert generations("base") == 1
        # The cycle model is outside the suite's roots (but inside the DSE's).
        assert generations("outside", "core/blocks/lz77.py") == 1
        assert generations("corpus", "corpus/sources.py") == 2
