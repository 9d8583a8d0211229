"""The five DSE experiments: Figures 11-15 (paper §6.2-§6.5).

Each ``figNN_*`` function runs the corresponding sweep through a
:class:`~repro.dse.runner.DseRunner` and returns a
:class:`~repro.dse.results.FigureResult` holding the same series the paper
plots: speedup-vs-Xeon per placement across history SRAM sizes, normalized
area, and (for compressors) compression ratio vs software.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import Operation
from repro.core.area import pipeline_area_mm2
from repro.core.params import CdpuConfig
from repro.dse.results import FigureResult
from repro.dse.runner import DesignPointResult, DseRunner
from repro.dse.sweeps import (
    HASH_TABLE_ENTRIES_DEFAULT,
    HASH_TABLE_ENTRIES_SMALL,
    decoder_points,
    encoder_points,
    speculation_points,
    sram_labels,
)
from repro.soc.placement import ALL_PLACEMENTS, Placement

#: Figures 12/13/15 omit PCIeLocalCache: "PCIeNoCache and PCIeLocalCache are
#: identical for compression, given that there are no intermediate data
#: accesses" (§6.3).
COMPRESSION_PLACEMENTS = [Placement.ROCC, Placement.CHIPLET, Placement.PCIE_NO_CACHE]


def _decoder_figure(
    runner: DseRunner,
    algorithm: str,
    figure_id: str,
    title: str,
    *,
    base: CdpuConfig = CdpuConfig(),
) -> FigureResult:
    labels = sram_labels()
    series: Dict[str, List[float]] = {p.value: [] for p in ALL_PLACEMENTS}
    points: List[DesignPointResult] = []
    areas: List[float] = []
    for point in runner.evaluate_many(decoder_points(algorithm, base=base)):
        points.append(point)
        placement = point.config.placement
        series[placement.value].append(point.speedup)
        if placement is Placement.ROCC:
            areas.append(point.area_mm2)
    area_normalized = [a / areas[0] for a in areas]
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_labels=labels,
        series=series,
        area_normalized=area_normalized,
        points=points,
    )


def _encoder_figure(
    runner: DseRunner,
    algorithm: str,
    figure_id: str,
    title: str,
    *,
    hash_table_entries: int = HASH_TABLE_ENTRIES_DEFAULT,
    area_reference_mm2: Optional[float] = None,
) -> FigureResult:
    labels = sram_labels()
    series: Dict[str, List[float]] = {p.value: [] for p in COMPRESSION_PLACEMENTS}
    points: List[DesignPointResult] = []
    areas: List[float] = []
    ratios: List[float] = []
    for point in runner.evaluate_many(
        encoder_points(
            algorithm, COMPRESSION_PLACEMENTS, hash_table_entries=hash_table_entries
        )
    ):
        points.append(point)
        placement = point.config.placement
        series[placement.value].append(point.speedup)
        if placement is Placement.ROCC:
            areas.append(point.area_mm2)
            ratios.append(point.ratio_vs_software or 0.0)
    # Both Figures 12 and 13 normalize area against the 64K/2^14-entry design.
    reference = area_reference_mm2 if area_reference_mm2 is not None else areas[0]
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_labels=labels,
        series=series,
        area_normalized=[a / reference for a in areas],
        ratio_vs_sw=ratios,
        points=points,
    )


def fig11_snappy_decompression(runner: DseRunner) -> FigureResult:
    """Figure 11: Snappy decompression across placements and history SRAMs."""
    return _decoder_figure(
        runner,
        "snappy",
        "Figure 11",
        "Snappy decompression speedup vs Xeon (HyperCompressBench)",
    )


def fig12_snappy_compression(runner: DseRunner) -> FigureResult:
    """Figure 12: Snappy compression, 2^14-entry hash table."""
    return _encoder_figure(
        runner,
        "snappy",
        "Figure 12",
        "Snappy compression speedup/ratio/area, 2^14 hash-table entries",
    )


def fig13_snappy_compression_small_ht(runner: DseRunner) -> FigureResult:
    """Figure 13: Snappy compression with only 2^9 hash-table entries.

    Area stays normalized against the 64K/2^14 design, as in the paper.
    """
    reference = pipeline_area_mm2("snappy", Operation.COMPRESS, CdpuConfig())
    return _encoder_figure(
        runner,
        "snappy",
        "Figure 13",
        "Snappy compression speedup/ratio/area, 2^9 hash-table entries",
        hash_table_entries=HASH_TABLE_ENTRIES_SMALL,
        area_reference_mm2=reference,
    )


def fig14_zstd_decompression(runner: DseRunner) -> FigureResult:
    """Figure 14: ZStd decompression across placements and history SRAMs
    (speculation fixed at 16, as in the paper's main sweep)."""
    return _decoder_figure(
        runner,
        "zstd",
        "Figure 14",
        "ZStd decompression speedup vs Xeon (HyperCompressBench)",
    )


def fig15_zstd_compression(runner: DseRunner) -> FigureResult:
    """Figure 15: ZStd compression, 2^14-entry hash table."""
    return _encoder_figure(
        runner,
        "zstd",
        "Figure 15",
        "ZStd compression speedup/ratio/area, 2^14 hash-table entries",
    )


@dataclass(frozen=True)
class SpeculationPoint:
    """One row of the §6.4 speculation study (64K history, RoCC)."""

    speculation: int
    speedup: float
    area_mm2: float


def speculation_study(runner: DseRunner) -> List[SpeculationPoint]:
    """§6.4: ZStd decompression vs Huffman speculation width (4/16/32)."""
    results = runner.evaluate_many(speculation_points())
    return [
        SpeculationPoint(
            speculation=result.config.huffman_speculation,
            speedup=result.speedup,
            area_mm2=result.area_mm2,
        )
        for result in results
    ]


def all_figures(runner: DseRunner) -> Dict[str, FigureResult]:
    """Run the full §6 exploration (used by the summary generator)."""
    return {
        "fig11": fig11_snappy_decompression(runner),
        "fig12": fig12_snappy_compression(runner),
        "fig13": fig13_snappy_compression_small_ht(runner),
        "fig14": fig14_zstd_decompression(runner),
        "fig15": fig15_zstd_compression(runner),
    }
