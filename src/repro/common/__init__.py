"""Shared low-level primitives: bit I/O, varints, hashing, units, RNG."""

from repro.common.errors import (
    CalibrationError,
    ConfigError,
    CorruptStreamError,
    ReproError,
    UnsupportedInputError,
    VerificationError,
)
from repro.common.units import GB, GiB, KiB, MiB, ceil_log2, floor_log2, format_size

__all__ = [
    "CalibrationError",
    "ConfigError",
    "CorruptStreamError",
    "ReproError",
    "UnsupportedInputError",
    "VerificationError",
    "GB",
    "GiB",
    "KiB",
    "MiB",
    "ceil_log2",
    "floor_log2",
    "format_size",
]
