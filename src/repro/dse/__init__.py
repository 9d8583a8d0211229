"""Design-space exploration harness (paper §6)."""

from repro.dse.cache import DseCache, runner_fingerprint
from repro.dse.graphs import graph_candidates, sweep_graph_designs
from repro.dse.parallel import evaluate_points
from repro.dse.pareto import best_within_area, pareto_frontier, smallest_meeting_speedup
from repro.dse.results import FigureResult
from repro.dse.runner import DesignPoint, DesignPointResult, DseRunner

__all__ = [
    "DesignPoint",
    "DesignPointResult",
    "DseCache",
    "DseRunner",
    "FigureResult",
    "best_within_area",
    "evaluate_points",
    "graph_candidates",
    "pareto_frontier",
    "sweep_graph_designs",
    "runner_fingerprint",
    "smallest_meeting_speedup",
]
