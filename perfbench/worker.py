"""One measured (or set-up-only) workload run, in its own process.

``run.py`` starts this under a pinned environment and reads the JSON object
it prints last. ``ready_at`` is the ``time.monotonic()`` reading when set-up
finished; the parent turns it into ``setup_s``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
from pathlib import Path

from common import Context

WORKLOADS = {
    "serve-fleet": "workloads.serve",
    "codec-hcbench": "workloads.codec",
    "dse-sweep": "workloads.dse",
    "lint-src": "workloads.lint",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--build", type=Path, required=True)
    args = parser.parse_args()
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_only=args.setup_only,
        build=args.build,
    )
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(args.build / "tmp" / str(os.getpid()), ignore_errors=True)
    outcome.finish()
    print(
        json.dumps(
            {
                "ready_at": ctx.ready_at,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "violations": outcome.violations,
                "invalid": outcome.invalid,
                "end_to_end": outcome.end_to_end,
                "layers": outcome.layers,
            }
        )
    )


if __name__ == "__main__":
    main()
