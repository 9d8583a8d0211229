"""Graph-aware DSE: the winning transform graph emerges from the sweep."""

import json
from pathlib import Path

import pytest

from repro.algorithms.graphs import GraphCodec
from repro.common.errors import VerificationError
from repro.dse.graphs import (
    GRAPH_BACKENDS,
    GRAPH_TRANSFORM_CHAINS,
    graph_candidates,
    sweep_graph_designs,
    sweep_summary_lines,
)

_ARTIFACT = Path(__file__).resolve().parents[2] / "results" / "graph_dse.json"


def test_candidate_lattice_shape():
    candidates = graph_candidates()
    assert len(candidates) == len(GRAPH_TRANSFORM_CHAINS) * len(GRAPH_BACKENDS)
    # Backend-only pipelines are present (the "no transform" baseline).
    for backend in GRAPH_BACKENDS:
        assert backend in candidates
    # Every candidate label ends in its backend.
    for label in candidates:
        assert label.split(" > ")[-1] in GRAPH_BACKENDS


def test_small_sweep_is_deterministic_and_graphs_win_on_floats():
    kwargs = dict(size=6 * 1024, workloads=("float_timeseries",))
    first = sweep_graph_designs(**kwargs)
    second = sweep_graph_designs(**kwargs)
    cell = first["workloads"]["float_timeseries"]
    # Ratios (not throughput) are deterministic in (seed, size).
    assert cell["graph_ratios"] == second["workloads"]["float_timeseries"]["graph_ratios"]
    assert cell["codec_ratios"] == second["workloads"]["float_timeseries"]["codec_ratios"]
    # The acceptance property, at reduced size: some transform graph beats
    # every monolithic codec on the float corpus — and the winner is the
    # sweep's argmin, not a hard-coded pick.
    assert cell["graph_beats_all_codecs"]
    assert cell["winner_graph"] == min(cell["graph_ratios"], key=cell["graph_ratios"].get)
    assert cell["winner_graph_ratio"] < min(cell["codec_ratios"].values())
    assert len(sweep_summary_lines(first)) == 1


def test_lossy_round_trip_raises_verification_error(monkeypatch):
    """The sweep checks each candidate's round trip with ``verify_output``,
    not an ``assert`` that ``python -O`` strips."""
    real = GraphCodec.decompress
    monkeypatch.setattr(GraphCodec, "decompress", lambda self, frame: real(self, frame)[:-1])
    with pytest.raises(VerificationError):
        sweep_graph_designs(size=1024, workloads=("float_timeseries",))


class TestCommittedArtifact:
    """results/graph_dse.json is the committed experiment: re-derivable and
    internally consistent."""

    @pytest.fixture(scope="class")
    def artifact(self):
        assert _ARTIFACT.exists(), (
            "regenerate with: python -m repro graph sweep --out results/graph_dse.json"
        )
        return json.loads(_ARTIFACT.read_text())

    def test_float_graph_beats_every_monolithic_codec(self, artifact):
        cell = artifact["workloads"]["float_timeseries"]
        assert cell["graph_beats_all_codecs"] is True
        assert cell["winner_graph_ratio"] < min(cell["codec_ratios"].values())
        # The winner contains at least one transform stage (the design-axis
        # point of the experiment: transforms, not just another backend).
        assert " > " in cell["winner_graph"]

    def test_columnar_graph_beats_every_monolithic_codec(self, artifact):
        cell = artifact["workloads"]["columnar_records"]
        assert cell["graph_beats_all_codecs"] is True

    def test_classic_controls_present(self, artifact):
        # Text/log are controls: monolithic LZ should still win there, which
        # is what makes the float/columnar wins meaningful.
        for workload in ("text", "log"):
            assert workload in artifact["workloads"]

    def test_ratios_match_a_fresh_sweep(self, artifact):
        fresh = sweep_graph_designs(
            seed=artifact["seed"],
            size=artifact["size"],
            workloads=("float_timeseries",),
        )
        committed = artifact["workloads"]["float_timeseries"]
        recomputed = fresh["workloads"]["float_timeseries"]
        assert committed["graph_ratios"] == recomputed["graph_ratios"]
        assert committed["codec_ratios"] == recomputed["codec_ratios"]
        assert committed["winner_graph"] == recomputed["winner_graph"]
