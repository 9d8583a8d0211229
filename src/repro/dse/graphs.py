"""Graph-aware design-space exploration: which transforms does a CDPU need?

The paper's DSE sweeps history SRAM, placement and hash-table shape for a
*fixed* algorithm (§6). Codec graphs add an orthogonal axis: the transform
pipeline itself. This module enumerates a candidate lattice — transform
chains crossed with entropy backends — and evaluates compression ratio per
workload domain against every monolithic codec, so the best graph for a
domain *emerges from the sweep* instead of being hard-coded.

The committed artifact (``results/graph_dse.json``, regenerated via
``python -m repro graph sweep``) holds the deterministic ratio tables; the
throughput column is machine-dependent and is reported for context only.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.algorithms.graphs import GraphCodec, GraphSpec, describe_graph
from repro.algorithms.registry import available_codecs, get_codec
from repro.core.pipelines.base import verify_output
from repro.corpus.sources import DOMAIN_SOURCES, SOURCES

#: Candidate transform chains (possibly empty: backend-only pipelines).
#: Strides cover the two domain layouts: 8-byte lanes (f64 / u64 columns)
#: and 4-byte lanes (f32 columns).
GRAPH_TRANSFORM_CHAINS: Tuple[Tuple[Tuple, ...], ...] = (
    (),
    (("delta", 1),),
    (("delta", 8),),
    (("transpose", 4),),
    (("transpose", 8),),
    (("transpose", 4), ("delta", 1)),
    (("transpose", 8), ("delta", 1)),
    (("float_split", 4),),
    (("float_split", 8),),
    (("float_split", 4), ("delta", 1)),
    (("float_split", 8), ("delta", 1)),
    (("tokenize", 10),),
)

#: Entropy backends each chain is crossed with. ``raw`` is excluded: a
#: raw-terminated pipeline never compresses, so it cannot win a ratio sweep.
GRAPH_BACKENDS: Tuple[str, ...] = ("huffman", "fse", "lz77")

#: Workloads the sweep scores: the FCBench-style domains plus two classic
#: sources as a control (graphs should NOT win on plain text).
SWEEP_WORKLOADS: Tuple[str, ...] = (
    "float_timeseries",
    "columnar_records",
    "text",
    "log",
)

DEFAULT_SWEEP_SEED = 20230617
DEFAULT_SWEEP_SIZE = 16 * 1024


def graph_candidates() -> Dict[str, GraphSpec]:
    """The candidate lattice, keyed by human-readable pipeline label."""
    candidates: Dict[str, GraphSpec] = {}
    for chain in GRAPH_TRANSFORM_CHAINS:
        for backend in GRAPH_BACKENDS:
            spec: GraphSpec = tuple(chain) + ((backend,),)
            candidates[describe_graph(spec)] = spec
    return candidates


def _workload_bytes(name: str, seed: int, size: int) -> bytes:
    fn = DOMAIN_SOURCES.get(name) or SOURCES[name]
    return fn(seed, size)


def sweep_graph_designs(
    *,
    seed: int = DEFAULT_SWEEP_SEED,
    size: int = DEFAULT_SWEEP_SIZE,
    workloads: Tuple[str, ...] = SWEEP_WORKLOADS,
) -> Dict[str, object]:
    """Score every candidate graph and monolithic codec on every workload.

    Returns the artifact payload: per-workload ratio tables (deterministic
    in ``(seed, size)``), the emergent per-workload winner, and indicative
    compress throughput (machine-dependent, context only).
    """
    candidates = graph_candidates()
    monolithic = [n for n in available_codecs() if not n.startswith("graph-")]
    per_workload: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        data = _workload_bytes(workload, seed, size)
        graph_ratios: Dict[str, float] = {}
        throughput: Dict[str, float] = {}
        for label, spec in candidates.items():
            codec = GraphCodec(f"sweep-{len(graph_ratios)}", spec)
            begin = time.perf_counter()
            frame = codec.compress(data)
            elapsed = time.perf_counter() - begin
            verify_output(codec.decompress(frame), data, f"graph {label} on {workload}")
            graph_ratios[label] = round(len(frame) / len(data), 4)
            throughput[label] = round(len(data) / elapsed / 1e6, 3)
        codec_ratios: Dict[str, float] = {}
        for name in monolithic:
            codec = get_codec(name)
            codec_ratios[name] = round(len(codec.compress(data)) / len(data), 4)
        winner = min(graph_ratios, key=graph_ratios.get)
        best_codec = min(codec_ratios, key=codec_ratios.get)
        per_workload[workload] = {
            "bytes": len(data),
            "graph_ratios": graph_ratios,
            "codec_ratios": codec_ratios,
            "winner_graph": winner,
            "winner_graph_ratio": graph_ratios[winner],
            "best_codec": best_codec,
            "best_codec_ratio": codec_ratios[best_codec],
            "graph_beats_all_codecs": graph_ratios[winner] < codec_ratios[best_codec],
            "compress_mbps_indicative": throughput,
        }
    return {
        "experiment": "graph_dse",
        "description": (
            "Codec-graph design axis: transform chains x entropy backends "
            "scored by compression ratio per workload domain against every "
            "monolithic codec. Ratios are deterministic in (seed, size); "
            "the throughput column is machine-dependent context."
        ),
        "seed": seed,
        "size": size,
        "candidate_count": len(candidates),
        "workloads": per_workload,
    }


def sweep_summary_lines(payload: Dict[str, object]) -> List[str]:
    """Human-readable per-workload summary for the CLI."""
    lines = []
    for workload, cell in payload["workloads"].items():
        verdict = "beats" if cell["graph_beats_all_codecs"] else "loses to"
        lines.append(
            f"{workload}: best graph {cell['winner_graph']} "
            f"(ratio {cell['winner_graph_ratio']}) {verdict} best monolithic "
            f"{cell['best_codec']} (ratio {cell['best_codec_ratio']})"
        )
    return lines
