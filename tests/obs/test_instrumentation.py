"""Integration: the hot layers actually report through repro.obs.

Covers the three instrumented surfaces from DESIGN.md "Observability":
codecs (byte/call counters + stage timings), the DSE engine (cache and
worker accounting), and the queueing simulator (virtual-time spans and
per-lane busy counters) — plus the ``repro stats`` CLI wiring.
"""

import json

import pytest

from repro import obs
from repro.algorithms.registry import get_codec
from repro.obs.spans import SPAN_BUFFER, VIRTUAL_PID

PAYLOAD = b"instrumentation payload: ripe for matching, " * 64


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


class TestCodecInstrumentation:
    def test_roundtrip_reports_bytes_and_calls(self):
        obs.enable()
        codec = get_codec("snappy")
        compressed = codec.compress(PAYLOAD)
        codec.decompress(compressed)
        snap = obs.snapshot()
        assert snap.counter("codec.snappy.compress.calls") == 1
        assert snap.counter("codec.snappy.compress.bytes_in") == len(PAYLOAD)
        assert snap.counter("codec.snappy.compress.bytes_out") == len(compressed)
        assert snap.counter("codec.snappy.decompress.bytes_in") == len(compressed)
        assert snap.counter("codec.snappy.decompress.bytes_out") == len(PAYLOAD)

    @pytest.mark.parametrize("name", ["snappy-framed", "graph-lz-huff"])
    def test_inner_snappy_blocks_count_as_outer_call_only(self, name):
        payload = PAYLOAD * 111  # ~320 KB: five framed chunks
        obs.enable()
        codec = get_codec(name)
        compressed = codec.compress(payload)
        assert codec.decompress(compressed) == payload
        counters = obs.snapshot().counters
        assert [k for k in counters if k.startswith("codec.snappy.")] == []
        outer = {k: v for k, v in counters.items() if k.startswith(f"codec.{name}.")}
        assert outer == {
            f"codec.{name}.compress.calls": 1,
            f"codec.{name}.compress.bytes_in": len(payload),
            f"codec.{name}.compress.bytes_out": len(compressed),
            f"codec.{name}.decompress.calls": 1,
            f"codec.{name}.decompress.bytes_in": len(compressed),
            f"codec.{name}.decompress.bytes_out": len(payload),
            f"codec.{name}.stream.compress.feed.calls": 1,
            f"codec.{name}.stream.compress.flush.calls": 1,
            f"codec.{name}.stream.compress.bytes_in": len(payload),
            f"codec.{name}.stream.compress.bytes_out": len(compressed),
            f"codec.{name}.stream.decompress.feed.calls": 1,
            f"codec.{name}.stream.decompress.flush.calls": 1,
            f"codec.{name}.stream.decompress.bytes_in": len(compressed),
            f"codec.{name}.stream.decompress.bytes_out": len(payload),
        }

    def test_parse_elements_is_not_a_snappy_call(self):
        """The DSE parses Snappy frames through the codec's element loop;
        that parse must not count as a Snappy decompress."""
        from repro.algorithms.snappy import decode_with_tokens

        compressed = get_codec("snappy").compress(PAYLOAD)
        _, quiet = decode_with_tokens(compressed)
        obs.enable()
        content, stream = decode_with_tokens(compressed)
        counters = obs.snapshot().counters
        assert [k for k in counters if k.startswith("codec.snappy.")] == []
        assert content == PAYLOAD
        for column in ("literal_lengths", "offsets", "match_lengths", "literals", "trailing", "breaks"):
            assert getattr(stream, column) == getattr(quiet, column), column

    def test_compress_emits_codec_span(self):
        obs.enable()
        get_codec("snappy").compress(PAYLOAD)
        names = [r.name for r in SPAN_BUFFER.drain_view()]
        assert "codec.snappy.compress" in names

    def test_stage_timings_recorded_for_entropy_codecs(self):
        obs.enable()
        codec = get_codec("zstd")
        codec.decompress(codec.compress(PAYLOAD))
        histograms = obs.snapshot().histograms
        assert any(name.startswith("stage.lz77.") for name in histograms)
        assert any(name.startswith("stage.crc32c") for name in histograms)

    def test_disabled_codec_records_nothing(self):
        codec = get_codec("snappy")
        codec.decompress(codec.compress(PAYLOAD))
        assert obs.snapshot().counters == {}
        assert len(SPAN_BUFFER) == 0

    def test_every_registered_codec_is_wrapped(self):
        from repro.algorithms.registry import available_codecs

        for name in available_codecs():
            codec = get_codec(name)
            assert getattr(type(codec).compress, "_obs_wrapped", False), name
            assert getattr(type(codec).decompress, "_obs_wrapped", False), name


class TestDseInstrumentation:
    def test_cache_miss_counted(self, tmp_path):
        from repro.dse.cache import DseCache

        obs.enable()
        cache = DseCache(tmp_path / "cache")
        assert cache.get("k" * 64) is None  # cold: miss
        assert obs.snapshot().counter("dse.cache.miss") == 1

    def test_evaluate_points_reports_cache_and_queue(self, dse_runner, tmp_path):
        from repro.algorithms.base import Operation
        from repro.core.params import CdpuConfig
        from repro.dse.cache import DseCache
        from repro.dse.parallel import evaluate_points
        from repro.dse.runner import DesignPoint

        obs.enable()
        points = [DesignPoint("snappy", Operation.DECOMPRESS, CdpuConfig())]
        cache = DseCache(tmp_path / "cache")
        evaluate_points(dse_runner, points, cache=cache)
        evaluate_points(dse_runner, points, cache=cache)
        snap = obs.snapshot()
        assert snap.counter("dse.cache.miss") == 1
        assert snap.counter("dse.cache.store") == 1
        assert snap.counter("dse.cache.hit") == 1
        assert snap.counter("dse.points.evaluated") == 1
        assert snap.counter("dse.points.from_cache") == 1
        assert snap.gauges["dse.queue.depth"] == 0
        assert any(
            name.startswith("dse.worker.pid") for name in snap.counters
        )
        names = [r.name for r in SPAN_BUFFER.drain_view()]
        assert "dse.evaluate_points" in names
        assert "dse.cache.probe" in names
        assert "dse.point.snappy.decompress" in names


class TestSimInstrumentation:
    def test_sim_emits_virtual_spans_and_lane_counters(self):
        from repro.algorithms.base import Operation
        from repro.sim.arrivals import CallArrival
        from repro.sim.queueing import ServiceModel, simulate

        obs.enable()
        trace = [
            CallArrival(i * 1e-6, "snappy", Operation.DECOMPRESS, 1000, 500)
            for i in range(10)
        ]
        service = ServiceModel(
            rates={("snappy", Operation.DECOMPRESS): 1e9}, per_call_seconds=0.0
        )
        simulate(trace, service, lanes=2)
        snap = obs.snapshot()
        assert snap.counter("sim.arrivals") == 10
        assert snap.counter("sim.departures") == 10
        assert snap.counter("sim.bytes_offered") == 10 * 1000
        assert snap.counter("sim.lane0.busy_seconds") > 0.0
        virtual = [r for r in SPAN_BUFFER.drain_view() if r.pid == VIRTUAL_PID]
        service_spans = [r for r in virtual if r.name == "sim.snappy.decompress"]
        assert len(service_spans) == 10
        # Virtual span timestamps are simulated seconds in microseconds.
        assert service_spans[0].duration_us == pytest.approx(1.0)


class TestStatsCli:
    def test_stats_roundtrip_reports_codec_counters(self, capsys):
        from repro.cli import main

        assert main(["stats", "--workload", "roundtrip", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["codec.snappy.compress.calls"] >= 1
        assert payload["counters"]["codec.zstd.decompress.calls"] >= 1

    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["--trace", str(out), "stats", "--workload", "roundtrip"]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert {"M", "X"} == {e["ph"] for e in payload["traceEvents"]}
