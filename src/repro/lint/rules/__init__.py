"""Rule implementations; importing this package registers them all."""

from repro.lint.rules import (  # noqa: F401
    api_hygiene,
    blocking_in_async,
    calibration,
    container_framing,
    decoder_progress,
    decoder_safety,
    determinism_hygiene,
    guarded_read,
    registry_completeness,
    tainted_length,
)
