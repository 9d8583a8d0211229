"""Pipeline evaluation results and shared accounting.

A pipeline evaluation is *functional first*: the input is really parsed /
compressed by the codec layer, and cycles are then accounted from the true
work counts. :class:`CycleReport` separates:

* **pipelined stages** — concurrently active blocks; the call's streaming
  phase runs at the slowest stage (``max``),
* **serial phases** — work that cannot overlap the stream (table builds,
  blocking history fallbacks, per-call dispatch),

so ``total = max(pipelined) + sum(serial)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.algorithms.lz77 import MatcherStats, TokenStream, decode_tokens
from repro.common.errors import CorruptStreamError, VerificationError
from repro.core import calibration as cal


def verify_output(produced: bytes, reference: bytes, what: str) -> None:
    """Byte-exact functional check of a pipeline against the software codec.

    Raises :class:`VerificationError` — never a bare ``assert``, so the
    check survives ``python -O``.
    """
    if produced != reference:
        raise VerificationError(
            f"{what}: {len(produced)} bytes differ from the software codec's "
            f"{len(reference)}"
        )


@dataclass(frozen=True)
class Encoded:
    """What a compressor pipeline's matcher runs produced for one input."""

    #: The frame the pipeline emits.
    frame: bytes
    #: The token stream the frame carries, element for element.
    tokens: TokenStream
    #: Counters summed over the matcher runs behind ``frame``.
    stats: MatcherStats


def verify_encoded(
    encoded: Encoded, data: bytes, decompress: Callable[[bytes], bytes], what: str
) -> None:
    """The frame must decompress to ``data`` with the software codec, and
    the accounted tokens must execute to ``data`` too. Raises
    :class:`VerificationError`."""
    verify_output(decompress(encoded.frame), data, what)
    try:
        replayed = decode_tokens(encoded.tokens, expected_length=len(data))
    except CorruptStreamError as exc:
        raise VerificationError(f"{what}: accounted tokens do not execute: {exc}") from exc
    if replayed != data:
        raise VerificationError(f"{what}: accounted tokens do not reproduce the input")


@dataclass
class CycleReport:
    """Cycle breakdown for one accelerator invocation."""

    pipelined: Dict[str, float] = field(default_factory=dict)
    serial: Dict[str, float] = field(default_factory=dict)

    def add_pipelined(self, name: str, cycles: float) -> None:
        self.pipelined[name] = self.pipelined.get(name, 0.0) + cycles

    def add_serial(self, name: str, cycles: float) -> None:
        self.serial[name] = self.serial.get(name, 0.0) + cycles

    @property
    def bottleneck(self) -> str:
        """Name of the slowest pipelined stage."""
        if not self.pipelined:
            return "none"
        return max(self.pipelined, key=self.pipelined.get)

    @property
    def total_cycles(self) -> float:
        stage = max(self.pipelined.values()) if self.pipelined else 0.0
        return stage + sum(self.serial.values())

    def seconds(self, clock_hz: float = cal.CDPU_CLOCK_HZ) -> float:
        return self.total_cycles / clock_hz


@dataclass(frozen=True)
class CallResult:
    """Outcome of one accelerated (de)compression call."""

    input_bytes: int
    output_bytes: int
    report: CycleReport

    @property
    def cycles(self) -> float:
        return self.report.total_cycles

    @property
    def seconds(self) -> float:
        return self.report.seconds()

    @property
    def uncompressed_bytes(self) -> int:
        """The call-size metric (decompression output / compression input)."""
        return max(self.input_bytes, self.output_bytes)

    @property
    def throughput_gbps(self) -> float:
        return self.uncompressed_bytes / self.seconds / cal.GB_PER_SECOND
