"""Sim-validation: the queueing model's predictions vs the live service.

The closing of the loop ISSUE 7 asks for: the identical workload a live
:class:`~repro.service.ServiceHarness` run served is replayed through
:func:`repro.sim.queueing.simulate` and the predictions must agree with the
measurements within the stated :class:`~repro.service.SimTolerance`. The
comparison (both modes, predicted and measured side by side) is the
reviewable artifact ``results/service_sim_validation.json``; the tests
here write it to a temporary directory, and
``benchmarks/test_service_sim_validation.py`` regenerates the committed
copy from the same workload.

Single codec, one worker, batching off: that configuration *is* the sim's
single-lane FIFO station, so replay-mode disagreement would be a genuine
queueing-dynamics modelling error, not an abstraction gap.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.service import (
    ServiceConfig,
    ServiceHarness,
    WorkloadSpec,
    validate_against_sim,
)

SPEC = WorkloadSpec(
    seed=7,
    num_calls=80,
    algorithms=("snappy",),
    max_payload_bytes=2048,
)
CONFIG = ServiceConfig(workers=1, batching=False, max_queue_depth=10_000)
TARGET_UTILIZATION = 0.6


def serve_base_case():
    """One calibrated live run: ``(harness, trace, report)``."""
    harness = ServiceHarness(SPEC, CONFIG)
    harness.calibrate_time_scale(TARGET_UTILIZATION)
    trace = harness.effective_trace()
    report = harness.run(verify=True)
    return harness, trace, report


def write_validation_artifact(path: Path, report, trace) -> dict:
    """Write the predicted-vs-measured comparison to ``path``; return it as
    read back, after checking it records both sides."""
    validation = validate_against_sim(report, trace)
    payload = {
        "load_report": report.to_payload(),
        "sim_validation": validation.to_payload(),
        "target_utilization": TARGET_UTILIZATION,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    written = json.loads(path.read_text())
    replay = written["sim_validation"]["replay"]
    for metric in (
        "utilization",
        "mean_wait_seconds",
        "p50_sojourn_seconds",
        "p99_sojourn_seconds",
    ):
        assert "measured" in replay[metric] and "predicted" in replay[metric]
    assert written["sim_validation"]["agrees"] is True
    return written


@pytest.fixture(scope="module")
def served():
    """One calibrated live run shared by the agreement and artifact tests."""
    return serve_base_case()


def test_workload_preparation_is_deterministic():
    """Same spec -> byte-identical offered workload, run to run."""
    first = ServiceHarness(SPEC, CONFIG).prepare()
    second = ServiceHarness(SPEC, CONFIG).prepare()
    assert [(p.algorithm, p.operation, p.payload, p.expected) for p in first] == [
        (p.algorithm, p.operation, p.payload, p.expected) for p in second
    ]
    assert [p.arrival_time for p in first] == [p.arrival_time for p in second]


def test_live_run_completes_and_conforms(served):
    _harness, _trace, report = served
    assert report.offered == SPEC.num_calls
    assert report.failed == 0
    assert report.completed + report.shed == report.offered
    ok_records = [r for r in report.records if r.status == "ok"]
    assert ok_records, "calibrated run completed nothing"
    assert all(r.conforms for r in ok_records)


def test_predictions_agree_within_tolerance(served):
    _harness, trace, report = served
    validation = validate_against_sim(report, trace)
    assert validation.lanes == 1
    assert validation.calls == report.completed
    assert validation.agrees, (
        "sim replay disagrees with live measurements:\n"
        + validation.render_human()
    )


def test_validation_artifact_records_both_sides(served, tmp_path):
    _harness, trace, report = served
    write_validation_artifact(tmp_path / "service_sim_validation.json", report, trace)


def test_validation_rejects_mismatched_trace(served):
    _harness, trace, report = served
    with pytest.raises(ConfigError, match="records"):
        validate_against_sim(report, trace[:-1])
