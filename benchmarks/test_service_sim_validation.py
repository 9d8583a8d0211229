"""Regenerates the committed ``results/service_sim_validation.json``.

The tier-1 sim-validation tests (``tests/service/test_sim_validation.py``)
gate the same agreement but write their copy of the artifact to a
temporary directory, so running the test suite never rewrites a committed
file. This benchmark serves the identical calibrated workload and refreshes
the committed artifact::

    PYTHONPATH=src python -m pytest benchmarks/test_service_sim_validation.py -q
    git add results/service_sim_validation.json
"""

import pytest

from tests.service.test_sim_validation import serve_base_case, write_validation_artifact


@pytest.mark.bench
def test_service_sim_validation_artifact(results_dir):
    _harness, trace, report = serve_base_case()
    assert report.failed == 0
    write_validation_artifact(results_dir / "service_sim_validation.json", report, trace)
