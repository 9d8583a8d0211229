"""Content-hash lint cache: warm hits, invalidation, keying and eviction.

The on-disk contract itself (atomic writes, corrupt-entry eviction, schema
bumps) is tested once for every cache in ``tests/common/test_store.py``.
"""

import json
import shutil

from repro.lint import cache as cache_module
from repro.lint import engine, run_lint
from repro.lint.cache import ANALYZER_DIR, CACHE_SCHEMA_VERSION, LintCache, analyzer_digest
from repro.lint.findings import Severity
from repro.lint.registry import Rule


class CountingRule(Rule):
    """A rule that counts invocations — cache hits must not re-run it."""

    code = "R001"  # reuse a known code so Severity parsing etc. stays happy
    name = "counting"
    summary = "test double"
    default_severity = Severity.ERROR

    def __init__(self):
        self.calls = 0

    def check(self, project):
        self.calls += 1
        for ctx in project.modules:
            if "random" in ctx.source:
                yield ctx.finding(self, 1, "counted finding")


class TestWarmHits:
    def test_second_run_replays_without_rerunning_rules(self, project, tmp_path):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        cache = LintCache(tmp_path / "lint-cache")
        rule = CountingRule()
        first = run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        second = run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        assert rule.calls == 1
        assert [f.to_json() for f in first.findings] == [
            f.to_json() for f in second.findings
        ]
        assert second.files_checked == first.files_checked

    def test_edited_file_misses(self, project, tmp_path):
        target = project.write("src/repro/fleet/sampler.py", "import random\n")
        cache = LintCache(tmp_path / "lint-cache")
        rule = CountingRule()
        run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        target.write_text("import random  # edited\n")
        run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        assert rule.calls == 2

    def test_warm_run_parses_nothing(self, project, tmp_path, monkeypatch):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        cache = LintCache(tmp_path / "lint-cache")
        rule = CountingRule()
        first = run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)

        def no_parse(path, root):
            raise AssertionError(f"warm run parsed {path}")

        monkeypatch.setattr(engine, "load_module", no_parse)
        second = run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        assert [f.to_json() for f in second.findings] == [f.to_json() for f in first.findings]

    def test_fixed_unparsable_file_misses(self, project, tmp_path):
        target = project.write("src/repro/fleet/sampler.py", "def broken(:\n")
        cache = LintCache(tmp_path / "lint-cache")
        first = run_lint([project.root / "src"], root=project.root, cache=cache)
        assert [f.rule for f in first.findings] == ["R000"]
        target.write_text("def fixed():\n    return 1\n")
        assert run_lint([project.root / "src"], root=project.root, cache=cache).findings == []

    def test_added_file_misses(self, project, tmp_path):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        cache = LintCache(tmp_path / "lint-cache")
        rule = CountingRule()
        run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        project.write("src/repro/fleet/extra.py", "X = 1\n")
        run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        assert rule.calls == 2


class TestRuleReads:
    """Files a rule reads from disk besides the linted modules (R005's codec
    modules and round-trip tests) are part of the key: a warm run must not
    replay a result those files no longer support."""

    REGISTRY = """
        from repro.algorithms.mycodec import MyCodec

        _CODEC_FACTORIES = {"mycodec": MyCodec}
        """
    CODEC = """
        class MyCodec:
            def compress(self, data):
                return data

            def decompress(self, data):
                return data
        """

    def _r005(self, targets, project, cache):
        result = run_lint(targets, root=project.root, cache=cache)
        return [f.message for f in result.findings if f.rule == "R005"]

    def test_deleted_round_trip_test_misses(self, project, tmp_path):
        project.write("src/repro/algorithms/registry.py", self.REGISTRY)
        project.write("src/repro/algorithms/mycodec.py", self.CODEC)
        test_file = project.write(
            "tests/algorithms/test_mycodec.py", "def test(): decompress\n"
        )
        cache = LintCache(tmp_path / "lint-cache")
        src = [project.root / "src"]
        assert self._r005(src, project, cache) == []
        test_file.unlink()
        assert self._r005(src, project, cache) == [
            "codec 'mycodec': no round-trip test file tests/algorithms/test_mycodec.py"
        ]

    def test_edited_unlinted_codec_module_misses(self, project, tmp_path):
        registry = project.write("src/repro/algorithms/registry.py", self.REGISTRY)
        codec = project.write("src/repro/algorithms/mycodec.py", self.CODEC)
        project.write("tests/algorithms/test_mycodec.py", "def test(): decompress\n")
        cache = LintCache(tmp_path / "lint-cache")
        assert self._r005([registry], project, cache) == []
        codec.write_text("class MyCodec:\n    def compress(self, data):\n        return data\n")
        assert self._r005([registry], project, cache) == [
            "codec 'mycodec': MyCodec is missing decompress — "
            "a registry entry must both encode and decode"
        ]


class TestKeying:
    FILES = [("src/a.py", "digest-a"), ("src/b.py", "digest-b")]

    def test_key_is_order_insensitive_in_files(self, tmp_path):
        cache = LintCache(tmp_path)
        assert cache.key(1, ["R001"], self.FILES) == cache.key(
            1, ["R001"], list(reversed(self.FILES))
        )

    def test_key_changes_with_analyzer_digest(self, tmp_path):
        cache = LintCache(tmp_path)
        assert cache.key("digest-1", ["R001"], self.FILES) != cache.key(
            "digest-2", ["R001"], self.FILES
        )

    def test_key_changes_with_rule_selection(self, tmp_path):
        cache = LintCache(tmp_path)
        assert cache.key(1, ["R001"], self.FILES) != cache.key(
            1, ["R001", "R002"], self.FILES
        )

    def test_key_changes_with_any_file_digest(self, tmp_path):
        cache = LintCache(tmp_path)
        changed = [("src/a.py", "digest-a2"), ("src/b.py", "digest-b")]
        assert cache.key(1, ["R001"], self.FILES) != cache.key(1, ["R001"], changed)

    def test_key_changes_with_schema_version(self, tmp_path, monkeypatch):
        # No literal key is pinned: the key holds the analyzer digest, so an
        # analyzer edit already misses every older entry. A layout bump must
        # miss them as well.
        cache = LintCache(tmp_path)
        before = cache.key(1, ["R001"], self.FILES)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
        assert cache.key(1, ["R001"], self.FILES) != before


class TestAnalyzerKey:
    """The key holds the digest of the analyzer's own source, so editing a
    rule misses a warm cache, and editing the rest of the library does not."""

    def _package(self, root, *, rule_note="", library_note=""):
        """A copy of the ``repro`` package holding the analyzer and one
        module outside it, with optional edits to each."""
        lint = root / "repro" / "lint"
        shutil.copytree(ANALYZER_DIR, lint, ignore=shutil.ignore_patterns("__pycache__"))
        rule = lint / "rules" / "calibration.py"
        rule.write_text(rule.read_text(encoding="utf-8") + rule_note, encoding="utf-8")
        (root / "repro" / "fleet.py").write_text(f"X = 1\n{library_note}", encoding="utf-8")
        return lint

    def _calls(self, project, cache, rule, monkeypatch, analyzer_dir):
        monkeypatch.setattr(cache_module, "ANALYZER_DIR", analyzer_dir)
        run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        return rule.calls

    def test_digest_follows_content_not_location(self, tmp_path, monkeypatch):
        real = analyzer_digest()
        monkeypatch.setattr(cache_module, "ANALYZER_DIR", self._package(tmp_path))
        assert analyzer_digest() == real

    def test_edited_analyzer_misses_and_edited_library_hits(
        self, project, tmp_path, monkeypatch
    ):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        cache = LintCache(tmp_path / "lint-cache")
        rule = CountingRule()
        base = self._package(tmp_path / "base")
        library = self._package(tmp_path / "library", library_note="# edited\n")
        analyzer = self._package(tmp_path / "analyzer", rule_note="# edited\n")
        assert self._calls(project, cache, rule, monkeypatch, base) == 1
        assert self._calls(project, cache, rule, monkeypatch, library) == 1
        assert self._calls(project, cache, rule, monkeypatch, analyzer) == 2


class TestEviction:
    def test_schema_mismatch_evicts_entries(self, tmp_path):
        cache = LintCache(tmp_path / "store")
        cache.put("k", {"findings": []})
        assert cache.get("k") is not None
        # Simulate a store written by an older layout.
        (tmp_path / "store" / "SCHEMA").write_text(str(CACHE_SCHEMA_VERSION + 1))
        fresh = LintCache(tmp_path / "store")
        assert fresh.get("k") is None
        assert (tmp_path / "store" / "SCHEMA").read_text().strip() == str(
            CACHE_SCHEMA_VERSION
        )

    def test_incompatible_payload_is_miss_not_crash(self, project, tmp_path):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        cache = LintCache(tmp_path / "store")
        rule = CountingRule()
        run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        # Overwrite the stored payload with a wrong-shaped one.
        entries = list((tmp_path / "store").glob("*.json"))
        assert len(entries) == 1
        entries[0].write_text(json.dumps({"findings": [{"bogus": True}]}))
        result = run_lint(
            [project.root / "src"], root=project.root, rules=[rule], cache=cache
        )
        assert rule.calls == 2  # fell back to a real run
        assert [f.rule for f in result.findings] == ["R001"]

    def test_marker_without_trailing_newline_keeps_entries(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "SCHEMA").write_text(str(CACHE_SCHEMA_VERSION))
        (store / "k.json").write_text(json.dumps({"findings": []}))
        assert LintCache(store).get("k") == {"findings": []}


class TestBlockedStore:
    def test_blocked_cache_matches_uncached(self, project, tmp_path):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        cache = LintCache(blocker / "lint-cache")
        rule = CountingRule()
        blocked = run_lint([project.root / "src"], root=project.root, rules=[rule], cache=cache)
        plain = run_lint([project.root / "src"], root=project.root, rules=[rule])
        assert [f.to_json() for f in blocked.findings] == [f.to_json() for f in plain.findings]
        assert blocked.files_checked == plain.files_checked
        assert blocker.read_text() == "in the way"
