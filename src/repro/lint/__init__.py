"""``repro.lint``: codec-aware static analysis for the reproduction.

The reproduction's credibility rests on properties that ordinary linters do
not check: seed-determinism of every sampled artifact, loud decoder failure
on corrupt input, and physical constants living in
:mod:`repro.core.calibration` / :mod:`repro.common.units` instead of being
scattered as magic numbers. This package enforces them mechanically.

Rules
-----

* **R002 decoder safety** — no swallowed broad exception handlers, and a
  decoder's ``IndexError``/``KeyError``/``struct.error`` handler must raise
  :class:`~repro.common.errors.CorruptStreamError`.
* **R003 calibration hygiene** — frequency/latency/size magic numbers belong
  in ``core/calibration.py`` or ``common/units.py``.
* **R004 API hygiene** — mutable default arguments, float ``==`` in asserts,
  ``Params``/``Config`` dataclasses without ``__post_init__`` validation.
* **R005 registry completeness** — every codec in ``algorithms/registry.py``
  has an encoder, a decoder, and a round-trip test file.
* **R006 container framing** — frame magics (``MAGIC``, ``*_MAGIC``,
  ``STREAM_IDENTIFIER``) may only be read inside
  ``algorithms/container.py``; codecs declare a
  :class:`~repro.algorithms.container.FrameSpec` instead of hand-rolling
  preamble bytes. Baseline-free: new hits are fixed, not grandfathered.
* **R008 tainted length** — integers decoded from the untrusted stream
  (varints, ``int.from_bytes``, ``struct.unpack``, wide bit reads) must be
  compared against a buffer length or documented limit before sizing a
  slice, a ``range()``, or an allocation.
* **R009 guarded read** — each decoder buffer read needs a *dominating*
  bounds check; a decoder the flow layer cannot model is itself a finding.
* **R012 determinism hygiene** — entropy only from
  :func:`repro.common.rng.make_rng` (no ``random``/``numpy.random`` imports
  or calls, under any alias; no time-derived seeds), no unsorted filesystem
  enumeration, no hash-order set iteration, no wall-clock in artifacts.
* **R013 blocking in async** — no blocking primitives inside ``async def``
  (see DESIGN.md §7.5).
* **R016 decoder progress** — every decode loop consumes input or exits.

The decoder tree and the decode-side classifier the decoder rules share
live in :mod:`repro.lint.common`. The flow rules run on a shared flow layer
(:mod:`repro.lint.flow`): per-function CFGs over :mod:`ast`, a taint
lattice solved where a rule reads it, and an index of per-function
summaries, built once per lint run and handed to the rules (see DESIGN.md
§7.4 for the architecture and its soundness caveats). That public surfaces
let only :class:`~repro.common.errors.ReproError` subclasses escape is
checked by running them on damaged streams
(``tests/integration/test_failure_injection.py``), not statically.

Findings can be suppressed on a line with ``# repro: noqa[R012]`` (or a bare
``# repro: noqa`` for all rules), or grandfathered in a checked-in baseline
file (``.repro-lint-baseline.json``) with a one-line justification.

Run it as ``python -m repro lint [paths]`` or ``python -m repro.lint``.
"""

from repro.lint.baseline import Baseline, load_baseline, write_baseline
from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules, get_rule

# Importing the rule modules registers them.
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "Severity",
    "all_rules",
    "get_rule",
    "load_baseline",
    "run_lint",
    "write_baseline",
]
