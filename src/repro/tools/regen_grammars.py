"""Regenerate the committed wire-grammar artifact.

``results/frame_grammars.json`` is to the *frame layout* what the golden
vectors are to the frame bytes: a committed snapshot of every codec's wire
grammar that tier-1 diffs against the live library. The grammars are read
from the objects the codecs run on, not re-derived: each module-level
:class:`~repro.algorithms.container.FrameSpec` under ``repro.algorithms``
states its ordered fields (:meth:`FrameSpec.wire_fields`), and
``GRAPH_PRESETS`` with each stage's ``STAGE_ID`` fixes the ``GRPH``
stage-descriptor rows. The drift test
(``tests/algorithms/test_frame_grammars.py``) fails when the artifact and
the library disagree — and, via the layout fingerprint, demands a frame
*version bump* whenever a preamble field's order or width changed, exactly
like a wire format change in a deployed fleet would.

Usage::

    PYTHONPATH=src python -m repro.tools.regen_grammars          # rewrite
    PYTHONPATH=src python -m repro.tools.regen_grammars --check  # diff only

Run after any deliberate frame-layout change (with its version bump) or
after adding/retiring a codec or graph preset, and commit the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pkgutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import repro.algorithms
from repro.algorithms.container import FrameSpec
from repro.algorithms.registry import available_codecs, get_codec
from repro.algorithms.stages import descriptor_for, make_stage

ARTIFACT = Path("results") / "frame_grammars.json"

#: Version of the ``results/frame_grammars.json`` artifact schema.
GRAMMAR_SCHEMA_VERSION = 1


@dataclass
class FrameGrammar:
    """The wire grammar of one registered codec frame."""

    codec: str
    spec: str  # "<module path>::<NAME>" of the FrameSpec
    display: str
    version: Optional[int]
    #: Ordered header/body/trailer fields (:meth:`FrameSpec.wire_fields`).
    fields: List[Dict[str, object]]
    #: ``GRPH`` presets only: the stage-descriptor rows.
    stage_table: Optional[List[Dict[str, object]]] = None

    @property
    def header_bytes(self) -> int:
        """Fixed bytes preceding the varint length (the fuzz-matrix
        preamble offset for this codec)."""
        total = 0
        for fld in self.fields:
            if fld["kind"] == "varint" or fld["name"] in ("body", "stage_table"):
                break
            total += int(fld.get("width") or 0)
        return total

    @property
    def fingerprint(self) -> str:
        """Layout fingerprint: every field property *except* the version
        byte's value, so bumping the version alone keeps the fingerprint
        stable while any width/order/max_bits change breaks it."""
        layout = [
            {
                key: value
                for key, value in sorted(fld.items())
                if not (fld["name"] == "version" and key == "value")
            }
            for fld in self.fields
        ]
        blob = json.dumps(layout, sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "spec": self.spec,
            "display": self.display,
            "version": self.version,
            "header_bytes": self.header_bytes,
            "fields": self.fields,
            "fingerprint": self.fingerprint,
        }
        if self.stage_table is not None:
            entry["stage_table"] = self.stage_table
        return entry


@dataclass
class GrammarIndex:
    """Every codec's grammar, keyed by codec name."""

    grammars: Dict[str, FrameGrammar] = field(default_factory=dict)

    def to_artifact(self) -> Dict[str, object]:
        """The committed ``results/frame_grammars.json`` payload."""
        return {
            "schema": GRAMMAR_SCHEMA_VERSION,
            "grammars": {
                name: self.grammars[name].to_json() for name in sorted(self.grammars)
            },
        }


def _codec_modules() -> Dict[str, List[str]]:
    """Module name -> the registered codecs whose class it defines."""
    owners: Dict[str, List[str]] = {}
    for name in available_codecs():
        owners.setdefault(type(get_codec(name)).__module__, []).append(name)
    return owners


def _stage_row(stage: str, *params: int) -> Dict[str, object]:
    """One ``GRPH`` stage-table row: the preset's stage with its wire id."""
    stage_id = descriptor_for(make_stage(stage, *params)).stage_id
    return {"stage": stage, "stage_id": stage_id, "params": list(params)}


def extract_project_grammars(root: Path) -> GrammarIndex:
    """The grammars of the library imported from ``root/src``.

    Spec identities are module paths relative to ``root``, so the package
    must be imported from that tree (``PYTHONPATH=src``).
    """
    root = Path(root).resolve()
    owners = _codec_modules()
    index = GrammarIndex()
    seen = set()
    for info in sorted(pkgutil.iter_modules(repro.algorithms.__path__), key=lambda m: m.name):
        module = importlib.import_module(f"repro.algorithms.{info.name}")
        rel = Path(module.__file__).resolve().relative_to(root).as_posix()
        for name, spec in sorted(vars(module).items()):
            # A spec bound in several modules (a re-export) is counted once,
            # under the first module in name order; none is re-exported today.
            if not isinstance(spec, FrameSpec) or id(spec) in seen:
                continue
            seen.add(id(spec))
            identity = f"{rel}::{name}"
            presets = getattr(module, "GRAPH_PRESETS", None)
            if presets:
                for preset, stages in sorted(presets.items()):
                    index.grammars[preset] = FrameGrammar(
                        codec=preset,
                        spec=identity,
                        display=spec.display,
                        version=spec.version,
                        fields=spec.wire_fields(stage_table=True),
                        stage_table=[_stage_row(stage, *params) for stage, *params in stages],
                    )
                continue
            names = owners.get(module.__name__, [])
            codec = names[0] if len(names) == 1 else info.name.replace("_", "-")
            index.grammars[codec] = FrameGrammar(
                codec=codec,
                spec=identity,
                display=spec.display,
                version=spec.version,
                fields=spec.wire_fields(),
            )
    return index


def render(root: Path) -> str:
    index = extract_project_grammars(root)
    return json.dumps(index.to_artifact(), indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path("."), help="repository root"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the committed artifact is stale instead of rewriting",
    )
    args = parser.parse_args(argv)
    path = args.root / ARTIFACT
    fresh = render(args.root)
    stale = not path.exists() or path.read_text(encoding="utf-8") != fresh
    if args.check:
        if stale:
            print(f"{path} is stale — rerun repro.tools.regen_grammars")
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fresh, encoding="utf-8")
    names = sorted(json.loads(fresh)["grammars"])
    print(f"wrote {path}: {len(names)} grammars ({', '.join(names)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
