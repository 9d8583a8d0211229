"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 12 --trace 0

The first run in a checkout builds the inputs (``prepare.py``). Each run then
sets the workload up five times in fresh processes (four set-up only) and
reports the median as ``setup_s``, measures for ``--seconds`` in the last
one, and checks every output. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only for a correct run; without the program's sources next to
this directory it is 2 and nothing is printed on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import median  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from prepare import BENCH_DIR, checkout_root, child_env, ensure_built  # noqa: E402
from worker import WORKLOADS  # noqa: E402

#: Set-up-only runs before the measured one; ``setup_s`` is the median of all.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 40
#: Budget for the measured child beyond twice its measuring time.
RUN_SLACK_S = 60


class ChildFailed(RuntimeError):
    pass


def run_child(root: Path, build: Path, argv: List[str], timeout: float) -> Dict:
    """Run ``worker.py`` in its own process group; return its report, with
    ``setup_s`` measured from just before the process was started."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--build", str(build), *argv]
    started = time.monotonic()
    proc = subprocess.Popen(
        command,
        cwd=root,
        env=child_env(root, build),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"worker timed out after {timeout:.0f} s") from None
    finally:
        # Pool workers left behind by a crashed child share its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited with {proc.returncode}:\n{stderr[-4000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - started
    return report


def render(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    build = ensure_built(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        runs = [
            run_child(root, build, common + ["--setup-only"], PROBE_TIMEOUT_S)
            for _ in range(SETUP_PROBES)
        ]
        report = run_child(
            root,
            build,
            common + (["--trace"] if args.trace else []),
            2 * args.seconds + RUN_SLACK_S,
        )
    except ChildFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 3
    runs.append(report)
    end_to_end = dict(report["end_to_end"], setup_s=median([r["setup_s"] for r in runs]))
    layers = report["layers"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value in sorted({**layers, **end_to_end}.items()):
        print(f"  {name:<36s} {render(value):>12s} {UNITS.get(name, '')}")
    for violation in report["violations"]:
        print(f"  violation: {violation}")
    if report["invalid"]:
        print(f"  invalid: {report['invalid']}")

    wanted = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else end_to_end
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit} for name, unit in wanted
    }
    correct = (
        report["failed"] == 0
        and not report["invalid"]
        and all(name in end_to_end and end_to_end[name] > 0 for name, _ in END_TO_END)
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
