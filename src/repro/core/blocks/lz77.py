"""LZ77 hardware blocks: the decoder (§5.2) and the encoder (§5.5).

Both blocks consume *real* token streams:

* The decoder executes the token stream parsed from an actual compressed
  input, so off-SRAM history fallbacks are counted from the true offset
  distribution of the data.
* The encoder runs the shared :class:`~repro.algorithms.lz77.Lz77Encoder`
  with the hardware parameter set (history = SRAM size, the configured hash
  table, no software skipping), so compression-ratio losses from small
  SRAMs or small hash tables come from real match-finding behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.algorithms.lz77 import Lz77Encoder, MatcherStats, TokenStream
from repro.core import calibration as cal
from repro.core.params import CdpuConfig
from repro.soc.memory import MemorySystem

#: The LZ77 Loader parses elements ahead of the Writer, so the Off-Chip
#: History Lookup block (§5.2, Figure 9) issues fallback reads early: a
#: lookup only stalls the writer for the latency it could not hide behind
#: this decoupling slack. Near-core L2 hits (~30 cycles) are fully hidden —
#: which is why the paper's RoCC curve barely degrades at 2K history (§6.2) —
#: while chiplet/PCIe round trips are not, which is why those curves collapse.
DECOUPLE_SLACK_CYCLES = 30.0


@dataclass(frozen=True)
class Lz77DecoderBlock:
    """History-window decoder: LZ77 Loader + History SRAM + Writer (§5.2)."""

    config: CdpuConfig
    memory: MemorySystem

    def execute_cycles(self, tokens: TokenStream) -> float:
        """Pipelined token-execution time (the LZ77 Writer stage)."""
        byte_cycles = tokens.output_length() / cal.LZ77_WRITER_BYTES_PER_CYCLE
        token_cycles = len(tokens) * cal.LZ77_DECODE_CYCLES_PER_TOKEN
        return byte_cycles + token_cycles

    def fallback_requests(self, tokens: TokenStream) -> float:
        """Memory requests for copies whose offset exceeds the history SRAM.

        Each fallback copy fetches its source from the memory hierarchy;
        long copies need multiple beats.
        """
        sram = self.config.decoder_history_bytes
        count = tokens.fallback_copy_count(sram)
        extra_beats = tokens.fallback_copy_bytes(sram) / cal.BEAT_BYTES
        return count + 0.25 * extra_beats

    def _banded_requests(self, tokens: TokenStream) -> list:
        """Split fallback requests by which memory tier serves them.

        Offsets just past the SRAM land in the L2; past the L2's capacity in
        the LLC; past that in DRAM (§3.6). Returns
        ``[(base_latency, requests), ...]``.
        """
        sram = self.config.decoder_history_bytes
        bands = [
            (cal.L2_LATENCY_CYCLES, sram, cal.L2_CAPACITY_BYTES),
            (cal.LLC_LATENCY_CYCLES, cal.L2_CAPACITY_BYTES, cal.LLC_CAPACITY_BYTES),
            (cal.DRAM_LATENCY_CYCLES, cal.LLC_CAPACITY_BYTES, None),
        ]
        out = []
        for latency, low, high in bands:
            low_bound = max(low, sram)
            count = tokens.fallback_copy_count(low_bound)
            bytes_beyond = tokens.fallback_copy_bytes(low_bound)
            if high is not None:
                count -= tokens.fallback_copy_count(max(high, sram))
                bytes_beyond -= tokens.fallback_copy_bytes(max(high, sram))
            if count <= 0 and bytes_beyond <= 0:
                continue
            out.append((latency, count + 0.25 * bytes_beyond / cal.BEAT_BYTES))
        return out

    def fallback_cycles(self, tokens: TokenStream) -> float:
        """Writer stall from off-chip history lookups.

        Each fallback read's latency is hidden up to the loader/writer
        decoupling slack; only the remainder stalls the pipeline, with the
        base latency set by the serving memory tier (L2 / LLC / DRAM) plus
        any placement injection. With a PCIe-local cache, the card's own
        storage serves every tier at one latency. The bandwidth cost of the
        fetched lines is charged separately via :meth:`fallback_traffic_bytes`.
        """
        from repro.soc.placement import Placement

        model = self.memory.model
        total = 0.0
        for base_latency, requests in self._banded_requests(tokens):
            if model.placement is Placement.PCIE_LOCAL_CACHE:
                latency = cal.CARD_CACHE_LATENCY_CYCLES
            else:
                latency = base_latency + model.intermediate_extra_cycles
            stall = max(cal.FALLBACK_MIN_OCCUPANCY_CYCLES, latency - DECOUPLE_SLACK_CYCLES)
            total += requests * stall
        return total

    def fallback_traffic_bytes(self, tokens: TokenStream) -> float:
        """Extra port traffic generated by off-chip history fetches."""
        return self.fallback_requests(tokens) * cal.BEAT_BYTES


@dataclass(frozen=True)
class Lz77EncoderBlock:
    """Hash matcher + LitLen injector (§5.5): the compression front-end.

    Unlike the decoder, the encoder cannot fall back to L2 for history
    (match verification is serial, §6.3), so the SRAM size caps the reachable
    offset instead of generating memory traffic — the cost shows up as a
    lower compression ratio, exactly as in Figures 12/13.
    """

    config: CdpuConfig

    def tokenize(self, data: bytes) -> Tuple[TokenStream, MatcherStats]:
        """The matcher run at this block's own history SRAM size."""
        history = self.config.encoder_history_bytes
        return self.tokenize_histories(data, (history,))[history]

    def tokenize_histories(
        self, data: bytes, histories: Iterable[int]
    ) -> Dict[int, Tuple[TokenStream, MatcherStats]]:
        """One matcher run for every history SRAM size in ``histories``:
        each size's tokens and stats, as this block with that SRAM finds
        them. The SRAM only caps the accepted offset, so the sizes share
        the run up to the first candidate a smaller one rejects."""
        encoder = Lz77Encoder(self.config.encoder_lz77_params())
        return encoder.encode_windows(data, histories)

    def match_cycles(self, data_length: int, tokens: TokenStream, stats: MatcherStats) -> float:
        """Pipelined matcher time.

        The matcher examines input positions at a fixed rate; emitting an
        element (copy or literal-run boundary) costs extra pipeline slots.
        Tag-augmented hash tables (§5.8 parameter 7) skip history reads on
        tag mismatches, trimming the per-candidate cost.
        """
        position_cycles = data_length / cal.LZ77_MATCH_POSITIONS_PER_CYCLE
        token_cycles = len(tokens) * cal.LZ77_ENCODE_CYCLES_PER_TOKEN
        if self.config.hash_table_contents == "position_and_tag":
            # Rejected candidates were filtered before the history read.
            candidate_cycles = 0.02 * stats.candidates_checked
        else:
            candidate_cycles = 0.05 * stats.candidates_rejected
        return position_cycles + token_cycles + candidate_cycles

    def emit_cycles(self, compressed_bytes: int) -> float:
        """Output-side element emission (LitLen injector / copy emit path).

        Lower compression ratios push more bytes through this stage — the
        §6.3 effect where small-history compressors lose speed "only because
        of the increased amount of data they must write"."""
        return compressed_bytes / cal.EMIT_BYTES_PER_CYCLE
