"""Planted-bug tests for the decoder-progress rule (R016).

Each test writes a tiny codec-shaped module with a deliberate bug (or its
fixed twin) and asserts the rule fires exactly there. The planted shapes
mirror the real tree's cursor-driven decode loops. The worker-count parity
test at the end runs the engine's flow pool over planted R008 and R009
bugs and an R016 loop.
"""

from repro.lint import run_lint

# ---------------------------------------------------------------------------
# R016: decoder progress
# ---------------------------------------------------------------------------


class TestR016DecoderProgress:
    def test_continue_before_cursor_advance_flagged(self, project):
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def decode_tags(data):
                pos = 0
                out = []
                while pos < len(data):
                    tag = data[pos]
                    if tag == 0:
                        continue
                    pos += 1
                    out.append(tag)
                return out
            """,
        )
        findings = project.findings("src", rule="R016")
        assert len(findings) == 1
        assert "continue" in findings[0].message

    def test_no_progress_no_exit_flagged(self, project):
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def decode_tags(data):
                pos = 0
                total = 0
                while pos < len(data):
                    total = total + data[0]
                return total
            """,
        )
        findings = project.findings("src", rule="R016")
        assert len(findings) == 1
        assert "never terminate" in findings[0].message

    def test_while_true_without_exit_flagged(self, project):
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def decode_stream(data, sink):
                while True:
                    sink.offer()
            """,
        )
        findings = project.findings("src", rule="R016")
        assert len(findings) == 1
        assert "while True" in findings[0].message

    def test_advance_before_continue_clean(self, project):
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def decode_tags(data):
                pos = 0
                out = []
                while pos < len(data):
                    tag = data[pos]
                    pos += 1
                    if tag == 0:
                        continue
                    out.append(tag)
                return out
            """,
        )
        assert project.findings("src", rule="R016") == []

    def test_while_true_with_break_clean(self, project):
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def decode_stream(reader):
                out = []
                while True:
                    chunk = reader.take()
                    if not chunk:
                        break
                    out.append(chunk)
                return out
            """,
        )
        assert project.findings("src", rule="R016") == []

    def test_continue_before_cursor_advance_in_while_true_flagged(self, project):
        # ``byte = data[pos]`` stores a name the body never reads first, and
        # the ``len(data)`` call advances nothing: neither is progress.
        project.write(
            "src/repro/common/varint.py",
            """
            from repro.common.errors import CorruptStreamError

            def decode_varint(data, pos=0):
                result = 0
                shift = 0
                while True:
                    if pos >= len(data):
                        raise CorruptStreamError("truncated varint")
                    byte = data[pos]
                    if byte == 0x80 and not shift:
                        continue
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        return result, pos
                    shift += 7
            """,
        )
        findings = project.findings("src", rule="R016")
        assert [(f.line, f.col) for f in findings] == [(12, 12)]
        assert "continue" in findings[0].message

    def test_loop_carried_store_before_continue_in_while_true_clean(self, project):
        project.write(
            "src/repro/common/varint.py",
            """
            from repro.common.errors import CorruptStreamError

            def decode_varint(data, pos=0):
                result = 0
                shift = 0
                while True:
                    if pos >= len(data):
                        raise CorruptStreamError("truncated varint")
                    byte = data[pos]
                    pos += 1
                    if byte == 0x80 and not shift:
                        continue
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        return result, pos
                    shift += 7
            """,
        )
        assert project.findings("src", rule="R016") == []

    def test_encoder_loops_exempt(self, project):
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def encode_tags(data):
                pos = 0
                while pos < len(data):
                    pass
                return pos
            """,
        )
        assert project.findings("src", rule="R016") == []


# ---------------------------------------------------------------------------
# Engine interaction: worker-count parity over the new rules
# ---------------------------------------------------------------------------


class TestJobsParity:
    def test_findings_identical_across_worker_counts(self, project):
        project.write(
            "src/repro/algorithms/toy.py",
            """
            from repro.common.varint import decode_varint

            def decode_block(buf, pos):
                length, pos = decode_varint(buf, pos)
                return buf[pos:pos + length]

            def decode_header(data):
                return data[0] | (data[1] << 8)
            """,
        )
        project.write(
            "src/repro/algorithms/spinner.py",
            """
            def decode_stream(data, sink):
                while True:
                    sink.offer()
            """,
        )
        def rows(result):
            return [
                (f.rule, f.path, f.line, f.col, f.message)
                for f in result.findings
            ]

        serial = run_lint([project.root / "src"], root=project.root, jobs=1)
        parallel = run_lint([project.root / "src"], root=project.root, jobs=4)
        assert rows(serial) == rows(parallel)
        assert {f.rule for f in serial.findings} == {"R008", "R009", "R016"}
