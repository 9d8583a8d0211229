"""Command-line front end: ``python -m repro lint`` / ``python -m repro.lint``.

Exit codes: 0 — clean (every finding baselined or below the gate);
1 — findings at/above the gate (ERROR by default, WARNING with
``--strict``), or stale baseline entries under ``--strict``; 2 — usage
error. ``--update-baseline`` rewrites the baseline from the current
findings, preserving existing justifications; findings not already in the
baseline need a real ``--justification`` (placeholders are rejected).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.cache import DEFAULT_CACHE_DIR, LintCache
from repro.lint.engine import find_project_root, run_lint
from repro.lint.findings import Severity
from repro.lint.reporting import render_human, render_json, render_sarif

DEFAULT_BASELINE = ".repro-lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Codec-aware static analysis (rules R002-R016); see "
        "README.md 'Static analysis' for the rule catalogue and "
        "'# repro: noqa[RULE]' suppression syntax.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint (default: src)"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="gate on warnings as well as errors, and fail on stale baseline entries",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        dest="output_format",
        help="output format (sarif emits a SARIF 2.1.0 log for code-scanning upload)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the flow-analysis pass (default: "
        "$REPRO_JOBS or serial); findings are identical for any N",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-hash result cache under results/.lint-cache",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} at the project root)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from current findings (keeps justifications; "
        "newly grandfathered findings require --justification)",
    )
    parser.add_argument(
        "--justification",
        default=None,
        metavar="TEXT",
        help="with --update-baseline: why any *newly* baselined findings are "
        "acceptable (placeholders like TODO are rejected)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    paths = args.paths or ["src"]
    for path in paths:
        if not Path(path).exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    root = find_project_root(Path(paths[0]).resolve())
    cache = None if args.no_cache else LintCache(root / DEFAULT_CACHE_DIR)
    try:
        result = run_lint(paths, root=root, jobs=args.jobs, cache=cache)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
    if args.no_baseline:
        baseline = load_baseline(Path("/nonexistent-baseline"))
    else:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.update_baseline:
        try:
            write_baseline(
                result.findings,
                baseline_path,
                previous=baseline,
                justification=args.justification,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"baseline updated: {len(result.findings)} entr"
            f"{'ies' if len(result.findings) != 1 else 'y'} -> {baseline_path}"
        )
        return 0

    new, grandfathered, stale = baseline.partition(result.findings)
    renderer = {
        "json": render_json,
        "sarif": render_sarif,
        "human": render_human,
    }[args.output_format]
    print(renderer(result, new, grandfathered, stale))

    gate = Severity.WARNING if args.strict else Severity.ERROR
    failing = [f for f in new if f.severity >= gate]
    if failing:
        return 1
    if args.strict and stale:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
