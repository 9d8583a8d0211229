"""Unit tests for the CDPU hardware block cycle models (§5.1-§5.7)."""

import pytest

from repro.algorithms.lz77 import Copy, Literal, TokenStream
from repro.core import calibration as cal
from repro.core.blocks.entropy import (
    FseCompressorBlock,
    FseExpanderBlock,
    HuffmanCompressorBlock,
    HuffmanExpanderBlock,
)
from repro.core.blocks.interface import CommandRouter, MemLoader, MemWriter, shared_port_cycles
from repro.core.blocks.lz77 import Lz77DecoderBlock, Lz77EncoderBlock
from repro.core.params import CdpuConfig
from repro.soc.memory import MemorySystem
from repro.soc.placement import Placement

ROCC = MemorySystem.for_placement(Placement.ROCC)
CHIPLET = MemorySystem.for_placement(Placement.CHIPLET)
PCIE = MemorySystem.for_placement(Placement.PCIE_NO_CACHE)


def stream_with_offsets(offsets, length=16):
    tokens = [Literal(b"x" * 64)]
    tokens += [Copy(offset=o, length=length) for o in offsets]
    return TokenStream.from_tokens(tokens)


class TestInterfaceBlocks:
    def test_memloader_linear(self):
        loader = MemLoader(ROCC)
        assert loader.stream_cycles(6400) == pytest.approx(2 * loader.stream_cycles(3200))

    def test_memwriter_equals_loader_rate(self):
        assert MemWriter(ROCC).stream_cycles(1024) == MemLoader(ROCC).stream_cycles(1024)

    def test_shared_port_sums_directions(self):
        assert shared_port_cycles(ROCC, 500, 700) == pytest.approx(
            MemLoader(ROCC).stream_cycles(1200)
        )

    def test_command_router_cost_by_placement(self):
        assert CommandRouter(PCIE).dispatch_cycles() > 10 * CommandRouter(ROCC).dispatch_cycles()


class TestLz77Decoder:
    def test_execute_cycles_scale_with_output(self):
        config = CdpuConfig()
        block = Lz77DecoderBlock(config, ROCC)
        small = block.execute_cycles(stream_with_offsets([100] * 10))
        large = block.execute_cycles(stream_with_offsets([100] * 100))
        assert large > small

    def test_fallbacks_only_beyond_sram(self):
        config = CdpuConfig(decoder_history_bytes=4096)
        block = Lz77DecoderBlock(config, ROCC)
        near = stream_with_offsets([1000, 2000, 4096])
        far = stream_with_offsets([5000, 9000])
        assert block.fallback_requests(near) == 0
        assert block.fallback_requests(far) > 0

    def test_fallback_latency_hidden_near_core_but_not_pcie(self):
        """§6.2's placement asymmetry: L2 fallbacks are nearly free, PCIe
        fallbacks are catastrophic."""
        config = CdpuConfig(decoder_history_bytes=2048)
        stream = stream_with_offsets([30_000] * 50)
        near = Lz77DecoderBlock(config, ROCC).fallback_cycles(stream)
        chiplet = Lz77DecoderBlock(config, CHIPLET).fallback_cycles(stream)
        pcie = Lz77DecoderBlock(config, PCIE).fallback_cycles(stream)
        assert near < chiplet / 10
        assert chiplet < pcie

    def test_fallback_traffic_counted(self):
        config = CdpuConfig(decoder_history_bytes=2048)
        block = Lz77DecoderBlock(config, ROCC)
        stream = stream_with_offsets([30_000] * 10)
        assert block.fallback_traffic_bytes(stream) >= 10 * cal.BEAT_BYTES

    def test_memory_tiers_price_distant_history(self):
        """§3.6: history beyond the L2's capacity falls back to LLC/DRAM,
        so very distant offsets stall more than just-off-SRAM ones."""
        config = CdpuConfig(decoder_history_bytes=2048)
        block = Lz77DecoderBlock(config, ROCC)
        near = stream_with_offsets([100_000] * 20)  # L2-resident history
        llc = stream_with_offsets([3 << 20] * 20)  # past L2 capacity
        dram = stream_with_offsets([12 << 20] * 20)  # past LLC capacity
        assert block.fallback_cycles(near) < block.fallback_cycles(llc)
        assert block.fallback_cycles(llc) < block.fallback_cycles(dram)

    def test_card_cache_flattens_tiers_for_pcie_local(self):
        from repro.soc.placement import Placement

        config = CdpuConfig(decoder_history_bytes=2048)
        local = Lz77DecoderBlock(config, MemorySystem.for_placement(Placement.PCIE_LOCAL_CACHE))
        near = stream_with_offsets([100_000] * 20)
        dram = stream_with_offsets([12 << 20] * 20)
        assert local.fallback_cycles(near) == pytest.approx(
            local.fallback_cycles(dram), rel=0.25
        )


class TestLz77Encoder:
    def test_tokenize_respects_sram_window(self):
        config = CdpuConfig(encoder_history_bytes=2048)
        data = (b"pattern-far-away" * 300)[:4000] + b"pattern-far-away"
        tokens, _ = Lz77EncoderBlock(config).tokenize(data)
        assert all(c.offset <= 2048 for c in tokens.tokens() if isinstance(c, Copy))

    def test_match_cycles_scale_with_input(self):
        config = CdpuConfig()
        block = Lz77EncoderBlock(config)
        data = b"abcd" * 2000
        tokens, stats = block.tokenize(data)
        cycles = block.match_cycles(len(data), tokens, stats)
        assert cycles >= len(data) / cal.LZ77_MATCH_POSITIONS_PER_CYCLE

    def test_tag_contents_cheaper_on_collisions(self):
        data = bytes((i * 37 + (i >> 5)) & 0xFF for i in range(20000))
        plain_cfg = CdpuConfig(hash_table_entries=1 << 9, hash_table_contents="position")
        tag_cfg = CdpuConfig(hash_table_entries=1 << 9, hash_table_contents="position_and_tag")
        plain_block = Lz77EncoderBlock(plain_cfg)
        tag_block = Lz77EncoderBlock(tag_cfg)
        pt, ps = plain_block.tokenize(data)
        tt, ts = tag_block.tokenize(data)
        assert tag_block.match_cycles(len(data), tt, ts) <= plain_block.match_cycles(
            len(data), pt, ps
        )

    def test_emit_cycles_scale_with_output(self):
        block = Lz77EncoderBlock(CdpuConfig())
        assert block.emit_cycles(2000) == pytest.approx(2 * block.emit_cycles(1000))


class TestHuffmanBlocks:
    def test_speculation_sqrt_scaling(self):
        """The decode-rate law behind §6.4's 2.11x/4.2x/5.64x sweep."""
        rate4 = HuffmanExpanderBlock(CdpuConfig(huffman_speculation=4)).symbols_per_cycle()
        rate16 = HuffmanExpanderBlock(CdpuConfig(huffman_speculation=16)).symbols_per_cycle()
        rate64 = HuffmanExpanderBlock(CdpuConfig(huffman_speculation=64)).symbols_per_cycle()
        assert rate16 == pytest.approx(2 * rate4)
        assert rate64 == pytest.approx(2 * rate16)

    def test_table_build_serial_cost(self):
        block = HuffmanExpanderBlock(CdpuConfig())
        assert block.table_build_cycles(2) == pytest.approx(2 * block.table_build_cycles(1))

    def test_compressor_stats_bandwidth_knob(self):
        fast = HuffmanCompressorBlock(CdpuConfig(huffman_stats_bytes_per_cycle=16.0))
        slow = HuffmanCompressorBlock(CdpuConfig(huffman_stats_bytes_per_cycle=2.0))
        assert fast.stats_cycles(4096) < slow.stats_cycles(4096)


class TestFseBlocks:
    def test_expander_rate(self):
        block = FseExpanderBlock(CdpuConfig())
        assert block.decode_cycles(500) == pytest.approx(500 / cal.FSE_SEQUENCES_PER_CYCLE)

    def test_table_build_bounded_by_max_accuracy(self):
        narrow = FseExpanderBlock(CdpuConfig(fse_max_accuracy_log=6))
        wide = FseExpanderBlock(CdpuConfig(fse_max_accuracy_log=12))
        assert narrow.table_build_cycles(3, 12) < wide.table_build_cycles(3, 12)

    def test_compressor_three_builders(self):
        block = FseCompressorBlock(CdpuConfig())
        assert block.stats_cycles(100) == pytest.approx(
            3 * 100 / cal.DEFAULT_STATS_BYTES_PER_CYCLE
        )
