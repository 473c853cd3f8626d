"""Unit tests for the pipeline facade and CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import AnalysisOptions, LoopStatus, Panorama
from repro.dataflow.analyzer import SummaryAnalyzer
from repro.driver.cli import main as cli_main
from repro.driver.report import format_table, yes_no

SOURCE = (
    "      SUBROUTINE smooth(a, b, n, m)\n"
    "      REAL a(1000), b(1000)\n"
    "      INTEGER n, m, i, j\n"
    "      REAL t(100)\n"
    "      REAL s\n"
    "      DO i = 1, n\n"
    "        DO j = 1, m\n"
    "          t(j) = a(j)\n"
    "        ENDDO\n"
    "        s = 0.0\n"
    "        DO j = 1, m\n"
    "          s = s + t(j)\n"
    "        ENDDO\n"
    "        b(i) = s\n"
    "      ENDDO\n"
    "      END\n"
)

#: a byte-order mark of UTF-16 and " bad": not UTF-8
NOT_UTF8 = b"\xff\xfe bad"


class TestPanorama:
    def test_compile_produces_reports(self):
        result = Panorama().compile(SOURCE)
        assert len(result.loops) == 3
        outer = result.loops[0]
        assert outer.status is LoopStatus.PARALLEL_AFTER_PRIVATIZATION
        assert outer.used_dataflow

    def test_conventional_prefilter_skips_dataflow(self):
        result = Panorama().compile(
            "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i\n"
            "      DO i = 1, n\n        a(i) = 1.0\n      ENDDO\n      END\n"
        )
        (loop,) = result.loops
        assert loop.status is LoopStatus.PARALLEL
        assert not loop.used_dataflow

    def test_prefilter_disabled_forces_dataflow(self):
        result = Panorama(run_conventional=False).compile(
            "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i\n"
            "      DO i = 1, n\n        a(i) = 1.0\n      ENDDO\n      END\n"
        )
        (loop,) = result.loops
        assert loop.used_dataflow
        assert loop.parallel

    def test_timings_recorded(self):
        result = Panorama().compile(SOURCE)
        assert result.timings.total > 0
        assert result.timings.parse >= 0

    def test_machine_model_fills_speedups(self):
        result = Panorama(sizes={"n": 100, "m": 50}).compile(
            "      PROGRAM p\n      REAL a(1000), b(1000)\n"
            "      INTEGER n, m\n      n = 100\n      m = 50\n"
            "      CALL smooth(a, b, n, m)\n      END\n" + SOURCE
        )
        outer = result.loop("smooth", None)
        assert outer.speedup > 1.0
        assert outer.pct_sequential > 50

    def test_loop_lookup_raises(self):
        result = Panorama().compile(SOURCE)
        with pytest.raises(KeyError):
            result.loop("nosuch", 1)

    def test_options_passed_through(self):
        result = Panorama(AnalysisOptions(interprocedural=False)).compile(SOURCE)
        assert result.analyzer.options.interprocedural is False

    def test_summary_line(self):
        line = Panorama().compile(SOURCE).summary_line()
        assert "loops parallel" in line


class TestCli:
    def test_cli_runs_on_file(self, tmp_path, capsys):
        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        rc = cli_main([str(f)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "smooth" in out
        assert "privatized" in out

    def test_cli_ablation_flag(self, tmp_path, capsys):
        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        rc = cli_main([str(f), "--ablate", "T1", "--no-machine"])
        assert rc == 0

    def test_cli_summaries_flag(self, tmp_path, capsys):
        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        cli_main([str(f), "--summaries"])
        out = capsys.readouterr().out
        assert "MOD_i" in out

    def test_cli_dump_hsg(self, tmp_path, capsys):
        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        cli_main([str(f), "--dump-hsg"])
        out = capsys.readouterr().out
        assert "HSG of smooth" in out

    def test_cli_json_flag(self, tmp_path, capsys):
        import json

        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        rc = cli_main([str(f), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "k.f"
        assert len(payload["loops"]) == 3
        statuses = {row["loop"]: row["status"] for row in payload["loops"]}
        assert statuses["smooth/i"] == "parallel (privatized)"
        assert "timings" in payload and "stats" in payload

    def test_cli_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_cli_prints_analysis_stats(self, tmp_path, capsys):
        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        cli_main([str(f)])
        out = capsys.readouterr().out
        assert "analysis cost:" in out
        assert "HSG nodes visited" in out

    def test_cli_unreadable_source_is_a_usage_error(self, tmp_path, capsys):
        missing, undecodable = tmp_path / "missing.f", tmp_path / "bytes.f"
        undecodable.write_bytes(NOT_UTF8)
        for source in (missing, undecodable):
            assert cli_main([str(source)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"panorama: cannot read source: {source}: ")
            assert err.count("\n") == 1
        # a real process: its stdin is the interpreter's own stream, which
        # a replaced ``sys.stdin`` would not show
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "repro.driver.cli", "-"],
            input=NOT_UTF8, env=env, capture_output=True,
        )
        assert run.returncode == 2
        assert run.stderr.decode() == (
            "panorama: cannot read source: <stdin>: 'utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_read_source_translates_newlines(self, tmp_path):
        from repro.driver.flags import read_source

        crlf = tmp_path / "crlf.f"
        crlf.write_bytes(SOURCE.replace("\n", "\r\n").encode())
        assert read_source(crlf) == SOURCE

    def test_batch_cli_undecodable_source_is_a_usage_error(
        self, tmp_path, capsys
    ):
        from repro.engine.cli import main as batch_main

        good, bad = tmp_path / "k.f", tmp_path / "bytes.f"
        good.write_text(SOURCE)
        bad.write_bytes(NOT_UTF8)
        assert batch_main([str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"panorama-batch: cannot read source: {bad}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "source, expected",
        [
            (
                "      this is not fortran ][\n",
                "panorama: source error: unexpected character ']'",
            ),
            (
                "      SUBROUTINE s(a, n)\n      REAL a(100)\n"
                "      INTEGER n, i\n      DO i = 1, n\n"
                "        a(i) = " + "(" * 2000 + "i" + ")" * 2000 + "\n"
                "      ENDDO\n      END\n",
                "panorama: analysis error: program nesting exceeds analyzer "
                "limits",
            ),
        ],
        ids=["lexer", "deep-nesting"],
    )
    def test_cli_refused_program_is_one_line(
        self, tmp_path, capsys, source, expected
    ):
        f = tmp_path / "bad.f"
        f.write_text(source)
        assert cli_main([str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(expected)
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestReportHelpers:
    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], "T")
        assert "a" in text and "333" in text and "T" in text

    def test_yes_no(self):
        assert yes_no(True) == "Yes" and yes_no(False) == "No"


class TestCopyOut:
    SRC = (
        "      SUBROUTINE s(a, b, n, m)\n"
        "      REAL a(100), b(100)\n"
        "      INTEGER n, m, i, j\n"
        "      REAL t(50)\n"
        "      DO i = 1, n\n"
        "        DO j = 1, m\n"
        "          t(j) = b(j) + i\n"
        "        ENDDO\n"
        "        a(i) = t(1)\n"
        "      ENDDO\n"
        "      x = {}\n"
        "      END\n"
    )

    def test_dead_private_array_needs_no_copy_out(self):
        result = Panorama().compile(self.SRC.format("a(3)"))
        outer = result.loops[0]
        (decision,) = outer.copy_out
        assert decision.name == "t"
        assert not decision.needs_copy_out

    def test_live_private_array_needs_copy_out(self):
        result = Panorama().compile(self.SRC.format("t(3)"))
        outer = result.loops[0]
        (decision,) = outer.copy_out
        assert decision.needs_copy_out

    def test_disjoint_later_use_needs_no_copy_out(self):
        # the loop writes t(1:m); a later read of t(60) is outside any
        # written region when m <= 50... but m is symbolic: expect
        # conservative copy-out unless provable — use a constant kernel
        src = self.SRC.replace("DO j = 1, m", "DO j = 1, 40")
        result = Panorama().compile(src.format("t(60)"))
        outer = result.loops[0]
        (decision,) = outer.copy_out
        assert not decision.needs_copy_out


class TestCopyOutGuard:
    """Only privatized arrays take the last-value test, so only they pay
    for the below pass over the loop's containing subgraph."""

    SCALAR_SRC = (
        "      SUBROUTINE s(a, b, n)\n"
        "      REAL a(100), b(100)\n"
        "      INTEGER n, i\n"
        "      REAL t\n"
        "      DO i = 1, n\n"
        "        t = b(i) * 2.0\n"
        "        a(i) = t + 1.0\n"
        "      ENDDO\n"
        "      END\n"
    )

    def test_scalar_privatization_skips_the_below_pass(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("below_summary ran for a scalar")

        monkeypatch.setattr(SummaryAnalyzer, "below_summary", refuse)
        (loop,) = Panorama().compile(self.SCALAR_SRC).loops
        assert loop.status is LoopStatus.PARALLEL_AFTER_PRIVATIZATION
        assert loop.verdict.privatized == ["t"]
        assert loop.copy_out == []

    def test_array_privatization_keeps_its_copy_out_row(self, monkeypatch):
        calls = []
        below = SummaryAnalyzer.below_summary

        def spy(analyzer, unit_name, loop):
            calls.append(unit_name)
            return below(analyzer, unit_name, loop)

        monkeypatch.setattr(SummaryAnalyzer, "below_summary", spy)
        outer = Panorama().compile(TestCopyOut.SRC.format("t(3)")).loops[0]
        (decision,) = outer.copy_out
        assert decision.name == "t" and decision.needs_copy_out
        assert calls == ["s"]


class TestCliEmit:
    def test_cli_emit_omp(self, tmp_path, capsys):
        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        cli_main([str(f), "--emit", "omp"])
        out = capsys.readouterr().out
        assert "C$OMP PARALLEL DO" in out

    def test_cli_emit_sgi(self, tmp_path, capsys):
        f = tmp_path / "k.f"
        f.write_text(SOURCE)
        cli_main([str(f), "--emit", "sgi"])
        out = capsys.readouterr().out
        assert "C$DOACROSS" in out
