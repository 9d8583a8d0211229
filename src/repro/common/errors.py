"""Exception hierarchy shared across the reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at API boundaries. Codec-level corruption is
always signalled with :class:`CorruptStreamError` — decoders never silently
produce wrong output for malformed input.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid parameter combination was supplied to a generator/model."""


class CorruptStreamError(ReproError):
    """A compressed stream failed validation during decoding."""


class UnsupportedInputError(ReproError):
    """The input violates a documented limit (e.g. exceeds a format maximum)."""


class VerificationError(ReproError):
    """A hardware model's functional output disagrees with the software codec."""


class StreamStateError(ReproError):
    """A streaming context was used out of order (e.g. feed after flush)."""


class CalibrationError(ReproError):
    """A calibration table is inconsistent or missing an anchor point."""


class ServiceError(ReproError):
    """Base class for compression-as-a-service (``repro.service``) failures."""


class ServiceOverloadError(ServiceError):
    """Admission control rejected the request: the codec lane is at capacity.

    This is the serving layer's typed backpressure signal — the caller sees
    an immediate shed instead of unbounded queueing (paper §3: open-loop
    fleet traffic must not grow the queue without bound).
    """


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that is not accepting work."""


class ServiceInternalError(ServiceError):
    """A worker failed outside the codec error contract (wrapped, never raw)."""
