"""Command-line interface: ``python -m repro <command>``.

Ten subcommands expose the library's main surfaces:

* ``compress`` / ``decompress`` — run any of the from-scratch codecs on a
  file (buffer-in/buffer-out, §3.4's stable API).
* ``stream`` — pipe stdin to stdout through a codec's incremental
  compress/decompress context chunk-by-chunk (§3.4's "streaming
  equivalent"); ``--chunk-size`` controls the feed granularity.
* ``fleet`` — print the §3 fleet-profiling summary from a synthetic sample.
* ``dse`` — run one of the Figure 11-15 sweeps and print its table
  (``--jobs N`` fans design points over worker processes; ``--cache`` /
  ``--no-cache`` controls the persistent store under ``results/.dse-cache``).
* ``summaries`` — regenerate FINAL_TEXT_SUMMARIES from a full exploration
  (same ``--jobs``/``--cache`` engine options).
* ``graph`` — list, describe, round-trip and sweep the composable codec
  graph presets (see :mod:`repro.algorithms.graphs`).
* ``stats`` — run an instrumented workload (codec round-trips, or a fig11
  smoke sweep) and print the metric snapshot (see :mod:`repro.obs`).
* ``serve`` — stand up the async compression service and replay an
  open-loop fleet-mix load against it (see :mod:`repro.service`);
  ``--validate`` replays the served workload through the queueing
  simulator and compares predicted vs measured service levels.
* ``lint`` — run the codec-aware static-analysis pass (rules R002-R016).

The global ``--trace <file>`` flag (before the subcommand) enables the
observability layer for any command and writes a Chrome trace-event JSON on
exit — load it in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    from repro.algorithms.registry import available_codecs

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CDPU (ISCA'23) reproduction: codecs, fleet study, benchmark "
        "generation and CDPU design-space exploration.",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable observability and write a Chrome trace-event JSON "
        "(viewable in chrome://tracing or Perfetto) when the command exits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compress", help="compress a file with one of the codecs")
    comp.add_argument("input", help="input path ('-' for stdin)")
    comp.add_argument("output", help="output path ('-' for stdout)")
    comp.add_argument("--algorithm", "-a", choices=available_codecs(), default="snappy")
    comp.add_argument("--level", "-l", type=int, default=None)
    comp.add_argument("--window-log", type=int, default=None, help="log2 window size")

    decomp = sub.add_parser("decompress", help="decompress a file")
    decomp.add_argument("input")
    decomp.add_argument("output")
    decomp.add_argument("--algorithm", "-a", choices=available_codecs(), default="snappy")

    stream = sub.add_parser(
        "stream",
        help="pipe stdin to stdout through an incremental codec context",
    )
    stream.add_argument(
        "direction",
        choices=["compress", "decompress"],
        help="which direction to stream",
    )
    stream.add_argument(
        "--codec",
        "--algorithm",
        "-a",
        dest="codec",
        choices=available_codecs(),
        default="snappy",
    )
    stream.add_argument(
        "--chunk-size",
        type=int,
        default=64 * 1024,
        metavar="BYTES",
        help="bytes fed to the context per step (default 65536)",
    )
    stream.add_argument("--level", "-l", type=int, default=None)

    fleet = sub.add_parser("fleet", help="print the fleet profiling summary (paper §3)")
    fleet.add_argument("--calls", type=int, default=120_000)
    fleet.add_argument("--seed", type=int, default=0)

    dse = sub.add_parser("dse", help="run one paper experiment (Figures 11-15)")
    dse.add_argument(
        "figure", choices=["fig11", "fig12", "fig13", "fig14", "fig15"],
        help="which figure's sweep to run",
    )
    dse.add_argument(
        "--files-per-suite",
        type=int,
        default=None,
        metavar="N",
        help="reduce the benchmark to N files per suite (default: full 48; "
        "small values give tier-1-sized runs for tests and CI)",
    )
    _add_engine_options(dse)

    summaries = sub.add_parser(
        "summaries", help="regenerate FINAL_TEXT_SUMMARIES (full DSE)"
    )
    _add_engine_options(summaries)

    graph = sub.add_parser(
        "graph", help="inspect and run composable codec graphs"
    )
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    graph_sub.add_parser("list", help="list registered graph presets")
    graph_describe = graph_sub.add_parser(
        "describe", help="describe a preset pipeline or a .bin graph frame"
    )
    graph_describe.add_argument(
        "target", help="preset name (e.g. graph-delta-fse) or path to a frame"
    )
    graph_roundtrip = graph_sub.add_parser(
        "roundtrip", help="compress + decompress a file through a preset"
    )
    graph_roundtrip.add_argument("preset", help="preset name")
    graph_roundtrip.add_argument(
        "input", nargs="?", default="-", help="input file (default: stdin)"
    )
    graph_sweep = graph_sub.add_parser(
        "sweep",
        help="score the transform-chain x backend lattice per workload "
        "against every monolithic codec",
    )
    graph_sweep.add_argument("--seed", type=int, default=None)
    graph_sweep.add_argument("--size", type=int, default=None, metavar="BYTES")
    graph_sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON artifact (e.g. results/graph_dse.json)",
    )

    stats = sub.add_parser(
        "stats",
        help="run an instrumented workload and print the metrics snapshot",
    )
    stats.add_argument(
        "--workload",
        choices=["roundtrip", "fig11", "sim"],
        default="roundtrip",
        help="what to instrument: every codec's round-trip on a small payload "
        "(default), a Figure 11 smoke sweep (2 design points, cache-backed), "
        "or a short queueing-simulator run",
    )
    stats.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        dest="stats_format",
        help="snapshot rendering (json is deterministic for a given workload state)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async serving layer under an open-loop fleet-mix load",
    )
    serve.add_argument("--calls", type=int, default=200, help="offered call count")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--codecs",
        default="snappy,zstd",
        help="comma-separated codec lanes to offer traffic to (default snappy,zstd)",
    )
    serve.add_argument(
        "--workers",
        "-j",
        type=int,
        default=None,
        help="worker processes per codec lane (default: $REPRO_JOBS, else 1)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, help="requests per worker round-trip"
    )
    serve.add_argument(
        "--no-batch",
        dest="batching",
        action="store_false",
        default=True,
        help="dispatch one request per worker round-trip",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        help="bounded outstanding requests per lane; beyond it requests shed "
        "with a typed ServiceOverloadError",
    )
    serve.add_argument(
        "--max-payload",
        type=int,
        default=None,
        metavar="BYTES",
        help="cap sampled call sizes (pure-python codecs; default 4 KiB)",
    )
    pacing = serve.add_mutually_exclusive_group()
    pacing.add_argument(
        "--target-utilization",
        type=float,
        default=0.6,
        help="calibrate arrival pacing to this offered utilization (default 0.6)",
    )
    pacing.add_argument(
        "--time-scale",
        type=float,
        default=None,
        help="fixed multiplier on trace arrival times instead of calibration "
        "(0 offers every call at t=0)",
    )
    serve.add_argument(
        "--validate",
        action="store_true",
        help="replay the served workload through the queueing simulator and "
        "report predicted vs measured service levels",
    )
    serve.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        dest="serve_format",
    )

    # ``lint`` owns its own argparse (repro.lint.cli); capture everything
    # after the subcommand and forward it verbatim.
    lint = sub.add_parser(
        "lint",
        help="run the static-analysis pass (R002-R016)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    return parser


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Sweep-engine knobs shared by the DSE-driven subcommands."""
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for the sweep (default: $REPRO_JOBS, else serial)",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=True,
        help="reuse/populate the on-disk result cache under results/.dse-cache (default)",
    )
    cache.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="evaluate every design point from scratch",
    )


def _build_runner(args: argparse.Namespace, bench=None):
    """A DseRunner honouring the --jobs/--cache engine options."""
    from repro.dse import DseCache, DseRunner

    cache = DseCache() if args.cache else None
    return DseRunner(bench, jobs=args.jobs, cache=cache)


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        return
    with open(path, "wb") as handle:
        handle.write(data)


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import get_codec
    from repro.common.errors import ReproError

    codec = get_codec(args.algorithm)
    data = _read(args.input)
    window = (1 << args.window_log) if args.window_log else None
    try:
        compressed = codec.compress(data, level=args.level, window_size=window)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(args.output, compressed)
    ratio = len(data) / max(1, len(compressed))
    print(
        f"{args.algorithm}: {len(data)} -> {len(compressed)} bytes ({ratio:.2f}x)",
        file=sys.stderr,
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import get_codec
    from repro.common.errors import CorruptStreamError

    codec = get_codec(args.algorithm)
    try:
        output = codec.decompress(_read(args.input))
    except CorruptStreamError as exc:
        print(f"error: corrupt stream: {exc}", file=sys.stderr)
        return 1
    _write(args.output, output)
    print(f"{args.algorithm}: {len(output)} bytes restored", file=sys.stderr)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import get_codec
    from repro.common.errors import ReproError

    if args.chunk_size <= 0:
        print(f"error: --chunk-size must be positive, got {args.chunk_size}", file=sys.stderr)
        return 2
    codec = get_codec(args.codec)
    if args.direction == "compress":
        ctx = codec.compress_context(level=args.level)
    else:
        ctx = codec.decompress_context()
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    bytes_in = bytes_out = 0
    try:
        while True:
            chunk = stdin.read(args.chunk_size)
            if not chunk:
                break
            bytes_in += len(chunk)
            out = ctx.feed(chunk)
            bytes_out += len(out)
            stdout.write(out)
        out = ctx.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bytes_out += len(out)
    stdout.write(out)
    stdout.flush()
    print(
        f"{args.codec} stream {args.direction}: {bytes_in} -> {bytes_out} bytes "
        f"(chunks of {args.chunk_size}, peak buffered {ctx.max_buffered_bytes})",
        file=sys.stderr,
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import analysis as A
    from repro.fleet import generate_fleet_profile

    profile = generate_fleet_profile(seed=args.seed, num_calls=args.calls)
    print(f"fleet sample: {len(profile):,} calls (seed {args.seed})")
    print(f"  decompression cycle share : {100 * A.decompression_cycle_fraction(profile):.1f}%")
    print(f"  lightweight comp bytes    : {100 * A.lightweight_compress_byte_share(profile):.1f}%")
    print(f"  decompressions per byte   : {A.decompression_reuse_factor(profile):.2f}")
    print(f"  ZStd bytes at level <= 3  : {100 * A.zstd_level_cdf_at(profile, 3):.1f}%")
    print(f"  file-format caller cycles : {100 * A.file_format_cycle_share(profile):.1f}%")
    ratios = A.compression_ratio_by_bin(profile)
    print(
        "  aggregate ratios          : "
        + "  ".join(f"{k}={v:.2f}" for k, v in sorted(ratios.items()))
    )
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import experiments

    bench = None
    if args.files_per_suite is not None:
        from repro.hcbench.suite import default_benchmark

        bench = default_benchmark(seed=0, files_per_suite=args.files_per_suite)
    runner = _build_runner(args, bench)
    figure = {
        "fig11": experiments.fig11_snappy_decompression,
        "fig12": experiments.fig12_snappy_compression,
        "fig13": experiments.fig13_snappy_compression_small_ht,
        "fig14": experiments.fig14_zstd_decompression,
        "fig15": experiments.fig15_zstd_compression,
    }[args.figure](runner)
    print(figure.to_table())
    return 0


def _cmd_summaries(args: argparse.Namespace) -> int:
    from repro.dse.summaries import final_text_summaries

    print(final_text_summaries(_build_runner(args)))
    return 0


def _stats_workload_roundtrip() -> None:
    """Round-trip every registered codec on a small mixed payload."""
    from repro.algorithms.registry import available_codecs, get_codec
    from repro.common.errors import ReproError

    payload = (b"the quick brown fox jumps over the lazy dog. " * 40) + bytes(
        range(256)
    )
    for name in available_codecs():
        codec = get_codec(name)
        try:
            compressed = codec.compress(payload)
            codec.decompress(compressed)
        except ReproError as exc:  # pragma: no cover - registry codecs round-trip
            print(f"warning: {name} failed round-trip: {exc}", file=sys.stderr)


def _stats_workload_fig11() -> None:
    """A 2-point cache-backed slice of the Figure 11 sweep.

    Runs the same points twice through one fresh cache so the snapshot shows
    the full cache life-cycle — ``dse.cache.miss``/``store`` on the cold pass,
    ``dse.cache.hit`` on the warm one — plus codec/stage activity from the
    evaluations themselves. Uses a reduced benchmark (4 files per suite) so
    the smoke run stays interactive.
    """
    import tempfile

    from repro.algorithms.base import Operation
    from repro.core.params import CdpuConfig
    from repro.dse.cache import DseCache
    from repro.dse.parallel import evaluate_points
    from repro.dse.runner import DesignPoint, DseRunner
    from repro.hcbench.suite import default_benchmark
    from repro.soc.placement import Placement

    runner = DseRunner(default_benchmark(seed=0, files_per_suite=4))
    points = [
        DesignPoint(
            algorithm="snappy",
            operation=Operation.DECOMPRESS,
            config=CdpuConfig(placement=placement),
        )
        for placement in (Placement.ROCC, Placement.PCIE_NO_CACHE)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-stats-cache-") as tmp:
        cache = DseCache(tmp)
        evaluate_points(runner, points, cache=cache)
        evaluate_points(runner, points, cache=cache)


def _stats_workload_sim() -> None:
    """A short queueing run against the software-baseline service model."""
    from repro.fleet import generate_fleet_profile
    from repro.sim.arrivals import poisson_trace
    from repro.sim.queueing import ServiceModel, simulate

    profile = generate_fleet_profile(seed=0, num_calls=2000)
    service = ServiceModel.software_baseline()
    trace = poisson_trace(
        profile, seed=0, num_calls=500, algorithms=["snappy", "zstd"]
    )
    simulate(trace, service, lanes=2)


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.algorithms.graphs import (
        GRAPH_PRESETS,
        describe_frame,
        describe_graph,
        graph_presets,
    )
    from repro.algorithms.registry import get_codec
    from repro.common.errors import ReproError

    try:
        if args.graph_command == "list":
            for name in graph_presets():
                print(f"{name:18s} {describe_graph(GRAPH_PRESETS[name])}")
            return 0
        if args.graph_command == "describe":
            if args.target in GRAPH_PRESETS:
                print(f"{args.target}: {describe_graph(GRAPH_PRESETS[args.target])}")
                return 0
            info = describe_frame(_read(args.target))
            print(f"pipeline       : {info['pipeline']}")
            print(f"content length : {info['content_length']} bytes")
            print(f"body           : {info['body_bytes']} bytes")
            escaped = "yes (pipeline expanded; body stored verbatim)" if info[
                "raw_escape"
            ] else "no"
            print(f"raw escape     : {escaped}")
            return 0
        if args.graph_command == "roundtrip":
            codec = get_codec(args.preset)
            data = _read(args.input)
            frame = codec.compress(data)
            restored = codec.decompress(frame)
            if restored != data:
                print("error: round trip diverged", file=sys.stderr)
                return 1
            ratio = len(frame) / max(1, len(data))
            print(
                f"{args.preset}: {len(data)} -> {len(frame)} bytes "
                f"(ratio {ratio:.4f}), round trip OK"
            )
            return 0
        # sweep
        from repro.dse.graphs import sweep_graph_designs, sweep_summary_lines

        kwargs = {}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.size is not None:
            kwargs["size"] = args.size
        payload = sweep_graph_designs(**kwargs)
        for line in sweep_summary_lines(payload):
            print(line)
        if args.out:
            import json

            _write(
                args.out,
                (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
            )
            print(f"wrote {args.out}", file=sys.stderr)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs

    obs.enable()
    obs.reset()  # only this workload's activity in the report
    workload = {
        "roundtrip": _stats_workload_roundtrip,
        "fig11": _stats_workload_fig11,
        "sim": _stats_workload_sim,
    }[args.workload]
    with obs.span(f"stats.{args.workload}", category="cli"):
        workload()
    snap = obs.snapshot()
    if args.stats_format == "json":
        print(snap.to_json())
    else:
        print(snap.render_human())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.common.errors import ReproError
    from repro.service import ServiceConfig, ServiceHarness, WorkloadSpec
    from repro.service.validation import validate_against_sim

    codecs = tuple(name for name in args.codecs.split(",") if name)
    try:
        spec_kwargs = dict(
            seed=args.seed,
            num_calls=args.calls,
            algorithms=codecs,
            time_scale=args.time_scale if args.time_scale is not None else 1.0,
        )
        if args.max_payload is not None:
            spec_kwargs["max_payload_bytes"] = args.max_payload
        spec = WorkloadSpec(**spec_kwargs)
        config = ServiceConfig(
            workers=args.workers,
            max_batch=args.max_batch,
            batching=args.batching,
            max_queue_depth=args.queue_depth,
        )
        harness = ServiceHarness(spec, config)
        if args.time_scale is None:
            harness.calibrate_time_scale(args.target_utilization)
        trace = harness.effective_trace()
        report = harness.run(verify=True)
        validation = None
        if args.validate:
            validation = validate_against_sim(report, trace)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.serve_format == "json":
        payload = report.to_payload()
        if validation is not None:
            payload["sim_validation"] = validation.to_payload()
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render_human())
        if validation is not None:
            print(validation.render_human())
    nonconforming = sum(
        1 for r in report.records if r.status == "ok" and r.conforms is False
    )
    if nonconforming:
        print(
            f"error: {nonconforming} responses diverged from one-shot output",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "stream": _cmd_stream,
    "fleet": _cmd_fleet,
    "dse": _cmd_dse,
    "summaries": _cmd_summaries,
    "graph": _cmd_graph,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Dispatch ``lint`` before argparse: REMAINDER does not reliably capture
    # leading options after a subcommand (python bug bpo-17050), and lint
    # owns its own parser anyway.
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.trace is None:
        return _COMMANDS[args.command](args)

    from repro import obs

    obs.enable()
    try:
        status = _COMMANDS[args.command](args)
    finally:
        written = obs.export_chrome_trace(args.trace)
        print(f"trace: {written} spans -> {args.trace}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
