"""Positive (fires) and negative (stays quiet) fixtures for every rule."""

import pytest

from repro.lint import Severity, get_rule


def codes(findings):
    return [f.rule for f in findings]


class TestR001Determinism:
    """R001's planted bugs; R012 has owned these checks since R001 was
    folded into it."""

    def test_stdlib_random_import_fires(self, project):
        project.write("src/repro/fleet/sampler.py", "import random\n")
        found = project.findings("src", rule="R012")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "random" in found[0].message

    def test_from_random_import_fires(self, project):
        project.write("src/repro/fleet/sampler.py", "from random import choice\n")
        assert len(project.findings("src", rule="R012")) == 1

    def test_numpy_random_call_fires(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            """
            import numpy as np

            def draw():
                return np.random.default_rng().random()
            """,
        )
        assert len(project.findings("src", rule="R012")) == 1

    def test_numpy_random_type_import_is_quiet(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            "from numpy.random import Generator, SeedSequence\n",
        )
        assert project.findings("src", rule="R012") == []

    def test_time_derived_seed_fires(self, project):
        project.write(
            "src/repro/fleet/sampler.py",
            """
            import time
            from repro.common.rng import make_rng

            def fresh():
                return make_rng(int(time.time()), "fleet")
            """,
        )
        found = project.findings("src", rule="R012")
        assert len(found) == 1
        assert "time-derived" in found[0].message

    def test_rng_module_itself_is_exempt(self, project):
        project.write("src/repro/common/rng.py", "import numpy.random\n")
        assert project.findings("src", rule="R012") == []

    def test_tests_are_exempt(self, project):
        project.write("tests/test_sampler.py", "import random\n")
        assert project.findings("tests", rule="R012") == []


class TestR002DecoderSafety:
    def test_unguarded_decoder_demoted_to_flow_rule(self, project):
        # Unguarded reads are R009's jurisdiction: it judges each site.
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def decode_header(data):
                return data[0] | (data[1] << 8)
            """,
        )
        assert project.findings("src", rule="R002") == []
        found = project.findings("src", rule="R009")
        assert len(found) == 2  # one per unguarded read
        assert all("decode_header" in f.message for f in found)

    def test_unmodelable_decoder_is_an_r009_finding(self, project):
        # A match statement marks the CFG unsupported; an unmodelled
        # decoder is an unchecked one, so R009 reports the construct.
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def decode_header(data):
                match data[0]:
                    case 0:
                        return data[1]
                    case _:
                        return data[2] | (data[3] << 8)
            """,
        )
        assert project.findings("src", rule="R002") == []
        (found,) = project.findings("src", rule="R009")
        assert found.line == 2
        assert "decode_header" in found.message
        assert "'match' statement at line 3" in found.message

    def test_decoder_raising_corrupt_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.errors import CorruptStreamError

            def decode_header(data):
                if len(data) < 2:
                    raise CorruptStreamError("underflow")
                return data[0] | (data[1] << 8)
            """,
        )
        assert project.findings("src", rule="R002") == []
        assert project.findings("src", rule="R009") == []

    def test_untranslated_index_error_fires(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def decode_tag(data):
                try:
                    return data[0]
                except IndexError:
                    return None
            """,
        )
        found = project.findings("src", rule="R002")
        assert any("IndexError" in f.message for f in found)

    def test_translated_index_error_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.errors import CorruptStreamError

            def decode_tag(data):
                try:
                    return data[0]
                except IndexError:
                    raise CorruptStreamError("truncated at tag byte")
            """,
        )
        assert project.findings("src", rule="R002") == []

    def test_broad_except_is_error_in_codec_tree(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def helper(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
        )
        found = project.findings("src", rule="R002")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_broad_except_is_warning_outside_codec_tree(self, project):
        project.write(
            "src/repro/analysis/report.py",
            """
            def helper(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
        )
        found = project.findings("src", rule="R002")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_broad_except_with_reraise_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def helper(path):
                try:
                    return open(path).read()
                except Exception:
                    raise
            """,
        )
        assert project.findings("src", rule="R002") == []

    def test_encoder_functions_are_quiet(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def encode_header(data):
                return data[0] | (data[1] << 8)
            """,
        )
        assert project.findings("src", rule="R002") == []
        assert project.findings("src", rule="R009") == []


class TestR003CalibrationHygiene:
    def test_frequency_literal_fires(self, project):
        project.write(
            "src/repro/sim/clock.py",
            """
            def period(cycles):
                return cycles / 2.1e9
            """,
        )
        found = project.findings("src", rule="R003")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_paper_anchor_is_error(self, project):
        project.write(
            "src/repro/sim/area.py",
            """
            def area():
                return 17.98
            """,
        )
        found = project.findings("src", rule="R003")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_nanosecond_literal_fires(self, project):
        project.write(
            "src/repro/sim/lat.py",
            """
            def latency():
                return 25e-9
            """,
        )
        assert len(project.findings("src", rule="R003")) == 1

    def test_numerical_epsilon_is_quiet(self, project):
        project.write(
            "src/repro/analysis/stats.py",
            """
            def safe_div(a, b):
                return a / (b + 1e-12)
            """,
        )
        assert project.findings("src", rule="R003") == []

    def test_inline_power_of_two_size_fires(self, project):
        project.write(
            "src/repro/sim/buffers.py",
            """
            def capacity():
                return 16384
            """,
        )
        assert len(project.findings("src", rule="R003")) == 1

    def test_all_caps_module_constant_is_quiet(self, project):
        project.write("src/repro/sim/buffers.py", "BUFFER_BYTES = 16384\n")
        assert project.findings("src", rule="R003") == []

    def test_calibration_module_is_exempt(self, project):
        project.write("src/repro/core/calibration.py", "XEON_HZ = 2.45e9\nAREA = 17.98\n")
        assert project.findings("src", rule="R003") == []


class TestR004ApiHygiene:
    def test_mutable_default_fires_as_error(self, project):
        project.write(
            "src/repro/fleet/api.py",
            """
            def collect(into=[]):
                return into
            """,
        )
        found = project.findings("src", rule="R004")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR

    def test_immutable_default_is_quiet(self, project):
        project.write(
            "src/repro/fleet/api.py",
            """
            def collect(into=(), label=None):
                return list(into)
            """,
        )
        assert project.findings("src", rule="R004") == []

    def test_float_equality_assert_fires(self, project):
        project.write(
            "src/repro/fleet/api.py",
            """
            def check(ratio):
                assert ratio == 2.5
            """,
        )
        found = project.findings("src", rule="R004")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_params_dataclass_without_validation_fires(self, project):
        project.write(
            "src/repro/core/knobs.py",
            """
            from dataclasses import dataclass

            @dataclass
            class WidgetParams:
                lanes: int = 4
            """,
        )
        found = project.findings("src", rule="R004")
        assert len(found) == 1
        assert "WidgetParams" in found[0].message

    def test_params_dataclass_with_post_init_is_quiet(self, project):
        project.write(
            "src/repro/core/knobs.py",
            """
            from dataclasses import dataclass

            @dataclass
            class WidgetParams:
                lanes: int = 4

                def __post_init__(self):
                    if self.lanes < 1:
                        raise ValueError("lanes must be positive")
            """,
        )
        assert project.findings("src", rule="R004") == []


class TestR005RegistryCompleteness:
    def _registry(self, project, *, test_body="def test_rt():\n    c.decompress(b'')\n"):
        project.write(
            "src/repro/algorithms/registry.py",
            """
            from repro.algorithms.mycodec import MyCodec

            _CODEC_FACTORIES = {
                "mycodec": MyCodec,
            }
            """,
        )
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            class MyCodec:
                def compress(self, data):
                    return data

                def decompress(self, data):
                    return data
            """,
        )
        if test_body is not None:
            project.write("tests/algorithms/test_mycodec.py", test_body)

    def test_complete_registration_is_quiet(self, project):
        self._registry(project)
        assert project.findings("src", rule="R005") == []

    def test_missing_test_file_fires(self, project):
        self._registry(project, test_body=None)
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert "test_mycodec.py" in found[0].message
        assert found[0].severity is Severity.ERROR

    def test_test_without_decompress_is_warning(self, project):
        self._registry(project, test_body="def test_construct():\n    pass\n")
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_missing_decoder_method_fires(self, project):
        self._registry(project)
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            class MyCodec:
                def compress(self, data):
                    return data
            """,
        )
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert "decompress" in found[0].message

    def test_no_registry_means_no_findings(self, project):
        project.write("src/repro/fleet/api.py", "X = 1\n")
        assert project.findings("src", rule="R005") == []

    def test_buffer_transform_surface_is_complete(self, project):
        """The streaming refactor's surface counts: ``_compress_buffer``/
        ``_decompress_buffer`` (or context factories) satisfy R005."""
        self._registry(project)
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            class MyCodec:
                def _compress_buffer(self, data):
                    return data

                def _decompress_buffer(self, data):
                    return data
            """,
        )
        assert project.findings("src", rule="R005") == []

    def test_context_only_surface_is_complete(self, project):
        self._registry(project)
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            class MyCodec:
                def compress_context(self):
                    return object()

                def decompress_context(self):
                    return object()
            """,
        )
        assert project.findings("src", rule="R005") == []

    def _graph_layer(self, project, presets, *, with_test=True):
        self._registry(project)
        project.write(
            "src/repro/algorithms/stages.py",
            """
            _STAGE_TYPES = {
                "delta": object,
                "fse": object,
            }
            ENTROPY_BACKENDS = ("fse",)
            """,
        )
        project.write("src/repro/algorithms/graphs.py", presets)
        if with_test:
            project.write(
                "tests/algorithms/test_graphs.py",
                "def test_rt():\n    c.decompress(b'')\n",
            )

    def test_valid_graph_presets_are_quiet(self, project):
        self._graph_layer(
            project,
            """
            GRAPH_PRESETS = {
                "graph-delta-fse": (("delta", 1), ("fse",)),
            }
            """,
        )
        assert project.findings("src", rule="R005") == []

    def test_unknown_stage_in_preset_fires(self, project):
        self._graph_layer(
            project,
            """
            GRAPH_PRESETS = {
                "graph-bogus": (("wavelet", 2), ("fse",)),
            }
            """,
        )
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert "wavelet" in found[0].message

    def test_transform_terminated_preset_fires(self, project):
        self._graph_layer(
            project,
            """
            GRAPH_PRESETS = {
                "graph-headless": (("delta", 1),),
            }
            """,
        )
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert "ENTROPY_BACKENDS" in found[0].message

    def test_annotated_stage_table_is_read(self, project):
        """The library annotates ``_STAGE_TYPES``; the preset checks must
        read it, not skip the whole graph layer."""
        self._graph_layer(
            project,
            """
            GRAPH_PRESETS = {
                "graph-headless": (("delta", 1),),
            }
            """,
        )
        project.write(
            "src/repro/algorithms/stages.py",
            """
            from typing import Dict

            _STAGE_TYPES: Dict[str, type] = {
                "delta": object,
                "fse": object,
            }
            ENTROPY_BACKENDS = ("fse",)
            """,
        )
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert "ENTROPY_BACKENDS" in found[0].message

    def test_unprefixed_preset_name_fires(self, project):
        self._graph_layer(
            project,
            """
            GRAPH_PRESETS = {
                "deltafse": (("delta", 1), ("fse",)),
            }
            """,
        )
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert "graph-" in found[0].message

    def test_missing_graph_test_file_fires(self, project):
        self._graph_layer(
            project,
            """
            GRAPH_PRESETS = {
                "graph-delta-fse": (("delta", 1), ("fse",)),
            }
            """,
            with_test=False,
        )
        found = project.findings("src", rule="R005")
        assert len(found) == 1
        assert "test_graphs.py" in found[0].message


class TestR006ContainerFraming:
    def test_inline_magic_comparison_fires(self, project):
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            MAGIC = b"XY"

            def decode(data):
                if data[:2] != MAGIC:
                    raise ValueError("bad magic")
            """,
        )
        found = project.findings("src", rule="R006")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "MAGIC" in found[0].message

    def test_framespec_keyword_declaration_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            from repro.algorithms.container import FrameSpec

            MAGIC = b"XY"
            MY_FRAME = FrameSpec(display="my frame", magic=MAGIC)
            """,
        )
        assert project.findings("src", rule="R006") == []

    def test_definition_alone_is_quiet(self, project):
        project.write("src/repro/algorithms/mycodec.py", 'MAGIC = b"XY"\n')
        assert project.findings("src", rule="R006") == []

    def test_prefixed_magic_and_stream_identifier_fire(self, project):
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            DICT_MAGIC = b"AB"
            STREAM_IDENTIFIER = b"CDEF"

            def encode():
                return DICT_MAGIC + STREAM_IDENTIFIER
            """,
        )
        assert len(project.findings("src", rule="R006")) == 2

    def test_chunk_type_constant_is_quiet(self, project):
        # CHUNK_STREAM_IDENTIFIER is a chunk *type byte*, not the magic.
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            CHUNK_STREAM_IDENTIFIER = 0xFF

            def first_byte_ok(stream):
                return stream[0] == CHUNK_STREAM_IDENTIFIER
            """,
        )
        assert project.findings("src", rule="R006") == []

    def test_attribute_load_fires(self, project):
        project.write(
            "src/repro/algorithms/mycodec.py",
            """
            from repro.algorithms import zstd

            def sniff(data):
                return data[:4] == zstd.MAGIC
            """,
        )
        found = project.findings("src", rule="R006")
        assert len(found) == 1
        assert "zstd.MAGIC" in found[0].message

    def test_container_module_is_exempt(self, project):
        project.write(
            "src/repro/algorithms/container.py",
            """
            def check(data, magic):
                if data[: len(magic)] != magic:
                    raise ValueError
            MAGIC = b"XY"
            USE = MAGIC + b"!"
            """,
        )
        assert project.findings("src", rule="R006") == []

    def test_tests_are_exempt(self, project):
        project.write(
            "tests/algorithms/test_mycodec.py",
            """
            from repro.algorithms.zstd import MAGIC

            def test_magic():
                assert MAGIC == b"ZSRL"
            """,
        )
        assert project.findings("tests", rule="R006") == []

    def test_stage_id_read_outside_stage_registry_fires(self, project):
        project.write(
            "src/repro/algorithms/mygraphs.py",
            """
            from repro.algorithms.stages import DeltaStage

            def descriptor(stage):
                return (DeltaStage.STAGE_ID, stage.params())
            """,
        )
        found = project.findings("src", rule="R006")
        assert len(found) == 1
        assert "STAGE_ID" in found[0].message

    def test_stage_id_in_stage_registry_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/stages.py",
            """
            class DeltaStage:
                STAGE_ID = 1

            _STAGES_BY_ID = {DeltaStage.STAGE_ID: DeltaStage}
            """,
        )
        assert project.findings("src", rule="R006") == []

    def test_stage_id_definition_alone_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/mystage.py",
            """
            class MyStage:
                STAGE_ID = 7
            """,
        )
        assert project.findings("src", rule="R006") == []


class TestR008TaintedLength:
    def test_planted_unchecked_varint_slice_fires(self, project):
        # The acceptance-criterion snippet: a varint length drives a slice
        # bound with no bounds check in between.
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.varint import decode_varint

            def decode_block(buf, pos):
                length, pos = decode_varint(buf, pos)
                return buf[pos:pos + length]
            """,
        )
        found = project.findings("src", rule="R008")
        assert len(found) == 1
        assert "length" in found[0].message
        assert "slice-bound" in found[0].message

    def test_planted_guarded_varint_slice_is_quiet(self, project):
        # Same snippet with the canonical guard: comparison against the
        # remaining buffer kills the taint on the fall-through edge.
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.errors import CorruptStreamError
            from repro.common.varint import decode_varint

            def decode_block(buf, pos):
                length, pos = decode_varint(buf, pos)
                if length > len(buf) - pos:
                    raise CorruptStreamError("declared length overruns buffer")
                return buf[pos:pos + length]
            """,
        )
        assert project.findings("src", rule="R008") == []

    def test_unchecked_range_limit_fires(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def decode_tokens(data):
                count = int.from_bytes(data[:4], "little")
                return [data[4 + i] for i in range(count)]
            """,
        )
        found = project.findings("src", rule="R008")
        assert any("range-limit" in f.message for f in found)

    def test_capped_range_limit_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.errors import CorruptStreamError

            MAX_TOKENS = 4096

            def decode_tokens(data):
                count = int.from_bytes(data[:4], "little")
                if count > MAX_TOKENS:
                    raise CorruptStreamError("token count exceeds limit")
                return list(range(count))
            """,
        )
        assert project.findings("src", rule="R008") == []

    def test_attacker_sized_repeat_fires(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def decode_rle(data):
                size = int.from_bytes(data[:8], "little")
                return data[8:9] * size
            """,
        )
        found = project.findings("src", rule="R008")
        assert any("repeat" in f.message for f in found)

    def test_min_capped_size_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def decode_rle(data):
                size = min(int.from_bytes(data[:8], "little"), 65536)
                return data[8:9] * size
            """,
        )
        assert project.findings("src", rule="R008") == []

    def test_tests_are_exempt(self, project):
        project.write(
            "tests/algorithms/test_toy.py",
            """
            def helper(buf):
                n = int.from_bytes(buf[:4], "little")
                return buf[4:4 + n]
            """,
        )
        assert project.findings("tests", rule="R008") == []


class TestR009GuardedRead:
    def test_read_after_partial_guard_fires(self, project):
        # R002's heuristic would pass this ("mentions CorruptStreamError");
        # flow analysis sees data[2] is not covered by the len(data) < 2 check.
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.errors import CorruptStreamError

            def decode_header(data):
                if len(data) < 2:
                    raise CorruptStreamError("underflow")
                version = data[0] | (data[1] << 8)
                return version, data[2]
            """,
        )
        found = project.findings("src", rule="R009")
        assert len(found) == 1
        assert found[0].line == 8

    @pytest.mark.parametrize("name", ["read_header", "skip_header"])
    def test_read_and_skip_shapes_are_decode_side(self, project, name):
        # Mentioning CorruptStreamError once does not guard data[1].
        project.write(
            "src/repro/algorithms/toy.py",
            f"""
            from repro.common.errors import CorruptStreamError

            def {name}(data):
                if len(data) < 1:
                    raise CorruptStreamError("empty header")
                kind = data[0]
                flags = data[1]
                return kind, flags
            """,
        )
        (found,) = project.findings("src", rule="R009")
        assert found.line == 8
        assert found.snippet == "flags = data[1]"

    def test_translating_try_is_quiet(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.errors import CorruptStreamError

            def decode_tag(data, pos):
                try:
                    return data[pos]
                except IndexError:
                    raise CorruptStreamError("truncated at tag byte")
            """,
        )
        assert project.findings("src", rule="R009") == []

    def test_encoder_reads_are_out_of_scope(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            def encode_header(version):
                table = bytes([1, 2, 3])
                return table[0] | (table[1] << 8)
            """,
        )
        assert project.findings("src", rule="R009") == []

    def test_non_decoder_tree_is_out_of_scope(self, project):
        project.write(
            "src/repro/analysis/report.py",
            """
            def decode_row(fields):
                return fields[0]
            """,
        )
        assert project.findings("src", rule="R009") == []


class TestRuleRegistry:
    def test_all_rules_registered(self):
        from repro.lint import all_rules

        assert [r.code for r in all_rules()] == [
            "R002", "R003", "R004", "R005", "R006",
            "R008", "R009", "R012", "R013", "R016",
        ]

    def test_get_rule_by_code(self):
        assert get_rule("R012").name == "determinism-hygiene"
