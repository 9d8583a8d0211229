"""Compression-as-a-service: the async serving layer over the codec tree.

The gateway to the "millions of users" scenarios (ROADMAP item 1): an
asyncio dispatcher (:mod:`repro.service.dispatcher`) accepts open-loop
compress/decompress traffic, batches per codec, executes on per-codec
worker processes (:mod:`repro.service.workers`), bounds its queues, and sheds
overload with typed :class:`~repro.common.errors.ServiceOverloadError`
rejections. The load harness (:mod:`repro.service.harness`) drives it with
fleet-mix arrival streams, and :mod:`repro.service.validation` replays each
served workload through the queueing simulator so predicted and measured
service levels are compared, not assumed.
"""

from __future__ import annotations

from repro.common.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceInternalError,
    ServiceOverloadError,
)
from repro.service.dispatcher import CompressionService
from repro.service.harness import (
    LoadReport,
    PayloadLibrary,
    PreparedCall,
    ServiceHarness,
    WorkloadSpec,
)
from repro.service.types import ServiceConfig, ServiceRequest, ServiceResponse
from repro.service.validation import (
    SimTolerance,
    SimValidationReport,
    validate_against_sim,
)

__all__ = [
    "CompressionService",
    "LoadReport",
    "PayloadLibrary",
    "PreparedCall",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceHarness",
    "ServiceInternalError",
    "ServiceOverloadError",
    "ServiceRequest",
    "ServiceResponse",
    "SimTolerance",
    "SimValidationReport",
    "WorkloadSpec",
    "validate_against_sim",
]
