"""Rule implementations; importing this package registers them all."""

from repro.lint.rules import (  # noqa: F401
    allocation_amplification,
    api_hygiene,
    blocking_in_async,
    calibration,
    container_framing,
    decoder_progress,
    decoder_safety,
    determinism_hygiene,
    exception_contract,
    grammar_symmetry,
    guarded_read,
    pool_safety,
    registry_completeness,
    tainted_length,
    worker_purity,
)
