"""Unit tests for dependence classification, reductions, loop verdicts."""

import pytest

from repro import Panorama
from repro.parallelize import (
    LoopStatus,
    find_reductions,
    loop_dependences,
    variable_dependences,
)
from tests.conftest import compile_source, loop_record, loop_verdicts


def sub(body: str, decls: str = "REAL a(100)") -> str:
    decl_lines = "".join(f"      {d}\n" for d in decls.split(";") if d)
    return f"      SUBROUTINE s\n{decl_lines}{body}      END\n"


class TestDependenceReports:
    def test_independent_loop(self):
        src = sub("      DO i = 1, n\n        a(i) = 1.0\n      ENDDO\n")
        rec = loop_record(src, "s", "i")
        hsg, analyzer = compile_source(src)
        report = variable_dependences("a", rec, analyzer.comparer)
        assert not report.any

    def test_recurrence_flow(self):
        src = sub("      DO i = 2, n\n        a(i) = a(i-1)\n      ENDDO\n")
        rec = loop_record(src, "s", "i")
        hsg, analyzer = compile_source(src)
        report = variable_dependences("a", rec, analyzer.comparer)
        assert report.flow

    def test_work_array_output_only(self):
        src = sub(
            "      DO i = 1, n\n"
            "        t(1) = a(i)\n        a(i) = t(1)\n      ENDDO\n",
            "REAL a(100), t(100)",
        )
        rec = loop_record(src, "s", "i")
        hsg, analyzer = compile_source(src)
        report = variable_dependences("t", rec, analyzer.comparer)
        assert not report.flow
        assert report.output

    def test_anti_dependence(self):
        # reads a(i+1) then (other iterations) write it
        src = sub("      DO i = 1, n\n        a(i) = a(i+1)\n      ENDDO\n")
        rec = loop_record(src, "s", "i")
        hsg, analyzer = compile_source(src)
        report = variable_dependences("a", rec, analyzer.comparer)
        assert report.anti and not report.flow

    def test_loop_dependences_skip(self):
        src = sub("      DO i = 2, n\n        a(i) = a(i-1)\n      ENDDO\n")
        rec = loop_record(src, "s", "i")
        hsg, analyzer = compile_source(src)
        reports = loop_dependences(rec, analyzer.comparer, skip=frozenset({"a"}))
        assert "a" not in reports
        assert rec.var not in reports


class TestReductions:
    def _reductions(self, body, decls="REAL a(100);REAL s"):
        src = sub(body, decls)
        hsg, _ = compile_source(src)
        (unit, loop), *_ = hsg.all_loops()
        return {r.name: r for r in find_reductions(loop.body)}

    def test_sum(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s + a(i)\n      ENDDO\n"
        )
        assert reds["s"].operator == "+"

    def test_chained_sum(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s + a(i) + a(i+1)\n      ENDDO\n"
        )
        assert "s" in reds

    def test_subtraction_accumulator(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s - a(i)\n      ENDDO\n"
        )
        assert "s" in reds

    def test_negated_accumulator_rejected(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = a(i) - s\n      ENDDO\n"
        )
        assert "s" not in reds

    def test_product(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s * a(i)\n      ENDDO\n"
        )
        assert reds["s"].operator == "*"

    def test_min_max(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = max(s, a(i))\n      ENDDO\n"
        )
        assert reds["s"].operator == "max"

    def test_leak_into_other_expression_rejected(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s + a(i)\n        a(i) = s\n"
            "      ENDDO\n"
        )
        assert "s" not in reds

    def test_leak_into_condition_rejected(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s + a(i)\n"
            "        IF (s .GT. 0.0) a(i) = 0.0\n      ENDDO\n"
        )
        assert "s" not in reds

    def test_array_reduction_same_subscript(self):
        reds = self._reductions(
            "      DO i = 1, n\n        a(1) = a(1) + i\n      ENDDO\n"
        )
        assert "a" in reds and reds["a"].is_array

    def test_mixed_operators_rejected(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s + a(i)\n        s = s * 2.0\n"
            "      ENDDO\n"
        )
        assert "s" not in reds

    def test_double_read_rejected(self):
        reds = self._reductions(
            "      DO i = 1, n\n        s = s + s\n      ENDDO\n"
        )
        assert "s" not in reds

    @pytest.mark.parametrize("io", ["PRINT *, s", "READ (5, *) s"])
    def test_io_item_rejected(self, io):
        # a parallel reduction would print other partial sums, and a
        # READ replaces the accumulator
        reds = self._reductions(
            f"      DO i = 1, n\n        s = s + a(i)\n        {io}\n"
            "      ENDDO\n"
        )
        assert "s" not in reds

    @pytest.mark.parametrize("io", ["PRINT *, t", "READ (5, *) t"])
    def test_io_item_makes_loop_serial(self, io):
        src = (
            "      PROGRAM main\n      REAL a(100), t\n      INTEGER i, n\n"
            "      n = 100\n      t = 0.0\n"
            f"      DO 10 i = 1, n\n        t = t + a(i)\n        {io}\n"
            "   10 CONTINUE\n      END\n"
        )
        (report,) = Panorama(run_machine_model=False).compile(src).loops
        assert report.status is LoopStatus.SERIAL
        assert report.verdict.reductions == []
        assert report.verdict.serial_reasons == ["flow dependence carried on t"]


class TestClassifier:
    def test_plain_parallel(self):
        verdicts = loop_verdicts(
            sub("      DO i = 1, n\n        a(i) = 1.0\n      ENDDO\n")
        )
        assert verdicts[("s", "i")].status is LoopStatus.PARALLEL

    def test_privatized(self):
        src = sub(
            "      DO i = 1, n\n        t(1) = a(i)\n        a(i) = t(1)\n"
            "      ENDDO\n",
            "REAL a(100), t(100)",
        )
        v = loop_verdicts(src)[("s", "i")]
        assert v.status is LoopStatus.PARALLEL_AFTER_PRIVATIZATION
        assert "t" in v.privatized

    def test_reduction_status(self):
        src = sub(
            "      DO i = 1, n\n        s = s + a(i)\n      ENDDO\n",
            "REAL a(100);REAL s",
        )
        v = loop_verdicts(src)[("s", "i")]
        assert v.status is LoopStatus.PARALLEL_WITH_REDUCTION
        assert v.reductions == ["s"]

    def test_serial_recurrence(self):
        src = sub("      DO i = 2, n\n        a(i) = a(i-1)\n      ENDDO\n")
        v = loop_verdicts(src)[("s", "i")]
        assert v.status is LoopStatus.SERIAL
        assert "a" in v.blocking_variables()

    def test_premature_exit_serial(self):
        src = sub(
            "      DO i = 1, n\n        IF (p) GOTO 99\n        a(i) = 1.0\n"
            "      ENDDO\n 99   CONTINUE\n",
            "REAL a(100);LOGICAL p",
        )
        v = loop_verdicts(src)[("s", "i")]
        assert v.status is LoopStatus.SERIAL
        assert any("premature" in r for r in v.serial_reasons)

    def test_status_modulo(self):
        src = sub("      DO i = 2, n\n        a(i) = a(i-1)\n      ENDDO\n")
        v = loop_verdicts(src)[("s", "i")]
        assert v.status_modulo(frozenset({"a"})) is (
            LoopStatus.PARALLEL_AFTER_PRIVATIZATION
        )
        assert v.status_modulo(frozenset({"zz"})) is LoopStatus.SERIAL
