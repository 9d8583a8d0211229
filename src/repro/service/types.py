"""Request/response records and configuration for the serving layer.

The wire-free analogue of an RPC schema: a :class:`ServiceRequest` names a
codec, a direction, and a payload; a :class:`ServiceResponse` carries either
the transformed bytes or a typed :class:`~repro.common.errors.ReproError`,
plus the per-stage timings the harness and the sim-validation layer consume
(queueing wait, in-worker service time, end-to-end sojourn).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError, ReproError
from repro.algorithms.base import Operation

#: Queue-depth default: deep enough for healthy bursts, bounded so overload
#: sheds instead of queueing without limit (admission control, §3 open-loop).
DEFAULT_MAX_QUEUE_DEPTH = 256


@dataclass(frozen=True)
class ServiceRequest:
    """One offered (de)compression call."""

    request_id: int
    codec: str
    operation: Operation
    payload: bytes
    level: Optional[int] = None


@dataclass(frozen=True)
class ServiceResponse:
    """Outcome of one request, with per-stage timing breakdown.

    ``wait_seconds`` is enqueue -> batch dispatch (queueing delay),
    ``service_seconds`` is the in-worker execution time for this item alone
    (the quantity the queueing simulator's service model predicts), and
    ``sojourn_seconds`` is enqueue -> completion as the caller observes it.
    """

    request_id: int
    codec: str
    operation: Operation
    ok: bool
    payload: Optional[bytes]
    error: Optional[ReproError]
    wait_seconds: float
    service_seconds: float
    sojourn_seconds: float
    batch_size: int
    worker_pid: int

    def result_bytes(self) -> bytes:
        """The payload, or the typed error re-raised at the call site."""
        if not self.ok or self.payload is None:
            assert self.error is not None
            raise self.error
        return self.payload


@dataclass(frozen=True)
class ServiceConfig:
    """Dispatcher knobs: lane width, batching, and admission control.

    ``workers`` is the number of worker processes per codec lane (each lane
    owns its own, mirroring the paper's per-algorithm CDPU instances); each
    process has at most one batch in flight, so a lane runs up to
    ``workers`` batches at once. ``max_batch``
    bounds how many queued requests one worker round-trip carries;
    ``batching=False`` pins the effective batch to 1. ``max_queue_depth``
    bounds outstanding requests per lane — queued *plus* in flight — beyond
    which submission sheds with ``ServiceOverloadError``. ``linger_seconds``
    optionally delays a non-full batch to let stragglers join.
    """

    workers: Optional[int] = None  # None -> REPRO_JOBS, else 1 (resolve_jobs)
    max_batch: int = 8
    batching: bool = True
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    linger_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.linger_seconds < 0:
            raise ConfigError(
                f"linger_seconds must be >= 0, got {self.linger_seconds}"
            )

    @property
    def effective_batch(self) -> int:
        return self.max_batch if self.batching else 1
