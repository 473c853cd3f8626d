"""Empirical soundness validation: symbolic claims vs concrete traces.

Each test runs a kernel in the concrete interpreter and checks, per
iteration of the target loop, that the actual writes/exposed reads fall
inside the symbolic ``MOD_i``/``UE_i`` sets and that every variable the
analysis declares privatizable really carries no cross-iteration flow
(see :mod:`repro.validate`).
"""

import pytest

from repro.kernels.figure1 import FIGURE_1B
from repro.validate import validate_loop


class TestWorkArrayKernels:
    SRC = (
        "      SUBROUTINE sweep(a, b, n, m)\n"
        "      REAL a(100), b(100)\n"
        "      INTEGER n, m, i, j\n"
        "      REAL t(50)\n"
        "      REAL s\n"
        "      DO i = 1, n\n"
        "        DO j = 1, m\n"
        "          t(j) = b(j) + 1.0 * i\n"
        "        ENDDO\n"
        "        s = 0.0\n"
        "        DO j = 1, m\n"
        "          s = s + t(j)\n"
        "        ENDDO\n"
        "        a(i) = s\n"
        "      ENDDO\n"
        "      END\n"
    )

    def test_outer_loop_validated(self):
        report = validate_loop(
            self.SRC,
            "sweep",
            "i",
            args={"a": [0.0] * 20, "b": [1.0] * 20, "n": 6, "m": 5},
        )
        assert report.ok, report.violations
        assert {"a", "t", "s"} <= report.checked
        assert "t" in report.privatization_checked
        assert len(report.iterations) == 6

    def test_inner_loop_validated(self):
        report = validate_loop(
            self.SRC,
            "sweep",
            "j",
            args={"a": [0.0] * 20, "b": [1.0] * 20, "n": 2, "m": 4},
        )
        assert report.ok, report.violations


class TestFigure1B:
    def test_trace_matches_analysis(self):
        for p in (True, False):
            report = validate_loop(
                FIGURE_1B,
                "filerx",
                "i",
                args={
                    "a": [0.0] * 60,
                    "jlow": 2,
                    "jup": 9,
                    "jmax": 40,
                    "p": p,
                    "n": 4,
                },
            )
            assert report.ok, (p, report.violations)
            assert "a" in report.checked
            assert "a" in report.privatization_checked

    def test_jmax_inside_window(self):
        report = validate_loop(
            FIGURE_1B,
            "filerx",
            "i",
            args={
                "a": [0.0] * 60,
                "jlow": 2,
                "jup": 9,
                "jmax": 5,
                "p": True,
                "n": 3,
            },
        )
        assert report.ok, report.violations


class TestRecurrences:
    def test_recurrence_trace_has_flow_and_analysis_agrees(self):
        src = (
            "      SUBROUTINE recur(a, n)\n"
            "      REAL a(100)\n"
            "      INTEGER n, i\n"
            "      DO i = 2, n\n"
            "        a(i) = a(i-1) + 1.0\n"
            "      ENDDO\n"
            "      END\n"
        )
        report = validate_loop(
            src, "recur", "i", args={"a": [1.0] * 20, "n": 8}
        )
        # the analysis must NOT have declared a privatizable, so no
        # violation is possible — and the sets must still contain reality
        assert report.ok, report.violations
        assert "a" in report.checked
        assert "a" not in report.privatization_checked

    def test_strided_disjoint(self):
        src = (
            "      SUBROUTINE stride(a, n)\n"
            "      REAL a(200)\n"
            "      INTEGER n, i\n"
            "      DO i = 1, n\n"
            "        a(2*i) = 1.0\n"
            "        a(2*i+1) = a(2*i) + 1.0\n"
            "      ENDDO\n"
            "      END\n"
        )
        report = validate_loop(src, "stride", "i", args={"a": [0.0] * 50, "n": 10})
        assert report.ok, report.violations
        assert "a" in report.checked


class TestConditionalKernels:
    def test_guarded_write_validated(self):
        src = (
            "      SUBROUTINE cond(a, b, n, k)\n"
            "      REAL a(100), b(100)\n"
            "      INTEGER n, k, i\n"
            "      DO i = 1, n\n"
            "        IF (i .GT. k) THEN\n"
            "          a(i) = b(i)\n"
            "        ELSE\n"
            "          a(i) = 0.0\n"
            "        ENDIF\n"
            "      ENDDO\n"
            "      END\n"
        )
        report = validate_loop(
            src, "cond", "i",
            args={"a": [0.0] * 20, "b": [5.0] * 20, "n": 9, "k": 4},
        )
        assert report.ok, report.violations
        assert "a" in report.checked

    def test_scalar_flag_kernel(self):
        src = (
            "      SUBROUTINE flags(a, n, sw)\n"
            "      REAL a(100)\n"
            "      LOGICAL sw\n"
            "      INTEGER n, i\n"
            "      REAL t\n"
            "      DO i = 1, n\n"
            "        t = 1.0 * i\n"
            "        IF (sw) t = t * 2.0\n"
            "        a(i) = t\n"
            "      ENDDO\n"
            "      END\n"
        )
        for sw in (True, False):
            report = validate_loop(
                src, "flags", "i", args={"a": [0.0] * 20, "n": 5, "sw": sw}
            )
            assert report.ok, report.violations
            assert "t" in report.privatization_checked

    def test_inner_instance_boundary_is_not_carried_flow(self):
        # the inner j loop writes a(i+1) and reads a(i): the value read at
        # outer iteration i was produced by instance i-1 — flow *into* the
        # j loop (copy-in territory), not flow carried *by* it.  A trace
        # collector that kept last-writer state across dynamic instances
        # used to misreport this as a privatization violation.
        src = (
            "      SUBROUTINE rnd(a, b, n, m)\n"
            "      REAL a(100), b(100)\n"
            "      INTEGER n, m, i, j\n"
            "      REAL y\n"
            "      DO i = 1, n\n"
            "        DO j = 1, m\n"
            "          a(i+1) = b(i) + 1.0\n"
            "          y = a(i) * 0.5\n"
            "        ENDDO\n"
            "      ENDDO\n"
            "      END\n"
        )
        report = validate_loop(
            src,
            "rnd",
            "j",
            args={"a": [0.5] * 40, "b": [1.5] * 40, "n": 2, "m": 4},
            occurrence=0,
        )
        assert report.ok, report.violations
        assert len(report.iterations) == 8  # both instances traced

    def test_same_instance_flow_is_still_detected(self):
        # control: a genuine j-carried recurrence inside one inner-loop
        # instance — the instance-boundary reset must not erase
        # same-instance producers, so a is (correctly) never declared
        # privatizable and the trace agrees
        src = (
            "      SUBROUTINE rec(a, n, m)\n"
            "      REAL a(100)\n"
            "      INTEGER n, m, i, j\n"
            "      DO i = 1, n\n"
            "        DO j = 2, m\n"
            "          a(j) = a(j-1) + 1.0\n"
            "        ENDDO\n"
            "      ENDDO\n"
            "      END\n"
        )
        report = validate_loop(
            src,
            "rec",
            "j",
            args={"a": [0.5] * 40, "n": 2, "m": 5},
            occurrence=0,
        )
        assert report.ok, report.violations
        assert "a" not in report.privatization_checked


class TestOpaquesFromTheBody:
    """An opaque minted inside an outer loop's body stands for a value
    that may differ per iteration (docs/soundness.md)."""

    # K and M are triangular numbers of I computed by inner loops: after
    # each inner loop the scalar's value is an opaque (k@N, m@N), which
    # the outer expansion takes for loop-invariant, so MOD_<i holds
    # a(k@N) and the read a(m@N) looks disjoint from it when k@N != m@N
    SRC = (
        "      PROGRAM main\n"
        "      REAL a(1000), b(100)\n"
        "      INTEGER i, j, k, m\n"
        "      DO 5 i = 1, 1000\n"
        "        a(i) = i\n"
        "    5 CONTINUE\n"
        "      DO 20 i = 2, 10\n"
        "        k = 0\n"
        "        DO 10 j = 1, i\n"
        "          k = k + j\n"
        "   10   CONTINUE\n"
        "        a(k) = -1.0\n"
        "        m = 0\n"
        "        DO 15 j = 1, i - 1\n"
        "          m = m + j\n"
        "   15   CONTINUE\n"
        "        b(i) = a(m)\n"
        "   20 CONTINUE\n"
        "      END\n"
    )

    @pytest.mark.xfail(
        strict=True,
        reason="fix_varying_lists treats an opaque minted in the body as "
        "loop-invariant, so a is privatized although iteration i reads "
        "a(m) = a((i-1)i/2), which iteration i-1 wrote",
    )
    def test_inner_loop_results_are_iteration_varying(self):
        report = validate_loop(self.SRC, "main", "i", args={}, occurrence=1)
        assert report.ok, report.violations
