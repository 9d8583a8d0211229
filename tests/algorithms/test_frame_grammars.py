"""Tier-1 drift gate for the committed wire-grammar artifact.

``results/frame_grammars.json`` pins the frame layout of every codec, read
from its live ``FrameSpec`` (see :mod:`repro.tools.regen_grammars` and
DESIGN.md §7.9). These tests fail when the library's grammars no longer
match the committed snapshot — and the layout *fingerprint* makes the failure mode
explicit: it covers field order, widths, and varint ``max_bits`` but not
the version byte's value, so a frame-layout change is only ever legitimate
together with a version bump (plus an artifact regen), exactly like a wire
format rollout across a fleet of decoders.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.algorithms.registry import available_codecs
from repro.tools.regen_grammars import (
    ARTIFACT,
    FrameGrammar,
    extract_project_grammars,
    render,
)

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / ARTIFACT).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def extracted():
    return extract_project_grammars(ROOT)


class TestArtifactDrift:
    def test_artifact_matches_source(self, committed, extracted):
        fresh = json.loads(render(ROOT))
        if fresh == committed:
            return
        # Make the failure actionable: distinguish "layout changed without
        # a version bump" (fix the code or bump the spec version) from a
        # stale-but-legitimate artifact (regen and commit).
        problems = []
        for name in sorted(set(committed["grammars"]) | set(fresh["grammars"])):
            old = committed["grammars"].get(name)
            new = fresh["grammars"].get(name)
            if old is None or new is None:
                problems.append(f"{name}: codec grammar added/removed")
                continue
            if old["fingerprint"] != new["fingerprint"]:
                if old["version"] == new["version"]:
                    problems.append(
                        f"{name}: frame layout changed WITHOUT a version "
                        "bump — bump the FrameSpec version byte before "
                        "regenerating the artifact"
                    )
                else:
                    problems.append(
                        f"{name}: layout changed with a version bump — "
                        "regenerate via `python -m repro.tools.regen_grammars`"
                    )
            elif old != new:
                problems.append(
                    f"{name}: metadata drift (stage table / display / "
                    "spec site) — regenerate the artifact"
                )
        raise AssertionError(
            "results/frame_grammars.json is stale:\n  " + "\n  ".join(problems)
        )

    def test_every_registered_codec_has_a_grammar(self, committed):
        grammars = committed["grammars"]
        missing = [c for c in available_codecs() if c not in grammars]
        assert not missing, f"registered codecs without a grammar: {missing}"

    def test_graph_presets_carry_stage_tables(self, committed):
        presets = [n for n in committed["grammars"] if n.startswith("graph-")]
        assert len(presets) == 5
        for name in presets:
            rows = committed["grammars"][name]["stage_table"]
            assert rows, f"{name} has an empty stage table"
            for row in rows:
                assert isinstance(row["stage_id"], int), row
                assert isinstance(row["params"], list), row


class TestFingerprintSemantics:
    """The fingerprint must trip on layout changes and *only* on them."""

    def _grammar(self, extracted, name) -> FrameGrammar:
        return extracted.grammars[name]

    def test_width_mutation_changes_fingerprint(self, extracted):
        for name, grammar in extracted.grammars.items():
            baseline = grammar.fingerprint
            for position, fld in enumerate(grammar.fields):
                if "width" not in fld or fld["name"] == "body":
                    continue
                mutated = copy.deepcopy(grammar.fields)
                mutated[position]["width"] = fld["width"] + 1
                clone = FrameGrammar(
                    codec=grammar.codec,
                    spec=grammar.spec,
                    display=grammar.display,
                    version=grammar.version,
                    fields=mutated,
                    stage_table=grammar.stage_table,
                )
                assert clone.fingerprint != baseline, (
                    f"{name}: widening field {fld['name']!r} did not "
                    "change the layout fingerprint"
                )

    def test_field_reorder_changes_fingerprint(self, extracted):
        grammar = extracted.grammars["zstd"]
        swapped = copy.deepcopy(grammar.fields)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        clone = FrameGrammar(
            codec=grammar.codec,
            spec=grammar.spec,
            display=grammar.display,
            version=grammar.version,
            fields=swapped,
        )
        assert clone.fingerprint != grammar.fingerprint

    def test_varint_max_bits_changes_fingerprint(self, extracted):
        grammar = extracted.grammars["snappy"]
        mutated = copy.deepcopy(grammar.fields)
        for fld in mutated:
            if fld["kind"] == "varint":
                fld["max_bits"] = 64
        clone = FrameGrammar(
            codec=grammar.codec,
            spec=grammar.spec,
            display=grammar.display,
            version=grammar.version,
            fields=mutated,
        )
        assert clone.fingerprint != grammar.fingerprint

    def test_version_bump_alone_keeps_fingerprint(self, extracted):
        """A version bump must NOT perturb the layout fingerprint — it is
        the sanctioned escape hatch for layout changes, not one itself."""
        grammar = extracted.grammars["zstd"]
        bumped = copy.deepcopy(grammar.fields)
        for fld in bumped:
            if fld["name"] == "version":
                fld["value"] = fld["value"] + 1
        clone = FrameGrammar(
            codec=grammar.codec,
            spec=grammar.spec,
            display=grammar.display,
            version=(grammar.version or 0) + 1,
            fields=bumped,
        )
        assert clone.fingerprint == grammar.fingerprint


class TestGrammarShape:
    def test_header_bytes_are_pre_varint_fixed_widths(self, committed):
        for name, grammar in committed["grammars"].items():
            total = 0
            for fld in grammar["fields"]:
                if fld["kind"] == "varint" or fld["name"] in ("body", "stage_table"):
                    break
                total += fld.get("width") or 0
            assert grammar["header_bytes"] == total, name

    def test_known_layout_anchors(self, committed):
        """Spot anchors against the shipped formats; a failure here means
        the extractor regressed, not that the formats moved."""
        grammars = committed["grammars"]
        assert grammars["snappy"]["header_bytes"] == 0
        assert grammars["zstd"]["header_bytes"] == 6
        assert grammars["zstd"]["version"] == 2
        assert [f["name"] for f in grammars["zstd-dict"]["fields"]] == [
            "magic",
            "version",
            "window_log",
            "extra",
            "content_length",
            "body",
            "checksum",
        ]
        assert grammars["graph-delta-fse"]["stage_table"] == [
            {"stage": "delta", "stage_id": 1, "params": [1]},
            {"stage": "fse", "stage_id": 18, "params": []},
        ]
