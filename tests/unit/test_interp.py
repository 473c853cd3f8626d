"""Unit tests for the concrete Fortran interpreter."""

import pytest

from repro.fortran import analyze, parse_program
from repro.interp import (
    AccessEvent,
    Interpreter,
    InterpreterError,
    run_program,
)


def run(source: str):
    return run_program(source)


class TestBasics:
    def test_arithmetic_and_assignment(self):
        frame = run(
            "      PROGRAM p\n      INTEGER i\n      REAL x\n"
            "      i = 2 + 3 * 4\n      x = 10.0 / 4.0\n      END\n"
        )
        assert frame.cell("i").get() == 14
        assert frame.cell("x").get() == 2.5

    def test_integer_division_truncates(self):
        frame = run(
            "      PROGRAM p\n      INTEGER i, j\n"
            "      i = 7 / 2\n      j = (0 - 7) / 2\n      END\n"
        )
        assert frame.cell("i").get() == 3
        assert frame.cell("j").get() == -3

    def test_array_store_load(self):
        frame = run(
            "      PROGRAM p\n      REAL a(10)\n      INTEGER i\n"
            "      DO i = 1, 5\n        a(i) = 1.0 * i\n      ENDDO\n"
            "      x = a(3)\n      END\n"
        )
        assert frame.cell("x").get() == 3.0

    def test_do_loop_with_step(self):
        frame = run(
            "      PROGRAM p\n      INTEGER i, s\n      s = 0\n"
            "      DO i = 1, 9, 2\n        s = s + i\n      ENDDO\n      END\n"
        )
        assert frame.cell("s").get() == 25

    def test_do_loop_zero_trips(self):
        frame = run(
            "      PROGRAM p\n      INTEGER i, s\n      s = 7\n"
            "      DO i = 5, 1\n        s = 0\n      ENDDO\n      END\n"
        )
        assert frame.cell("s").get() == 7

    def test_negative_step(self):
        frame = run(
            "      PROGRAM p\n      INTEGER i, s\n      s = 0\n"
            "      DO i = 5, 1, -2\n        s = s + i\n      ENDDO\n      END\n"
        )
        assert frame.cell("s").get() == 9

    def test_if_block_branches(self):
        src = (
            "      PROGRAM p\n      INTEGER k, r\n      k = {}\n"
            "      IF (k .GT. 0) THEN\n        r = 1\n"
            "      ELSEIF (k .EQ. 0) THEN\n        r = 2\n"
            "      ELSE\n        r = 3\n      ENDIF\n      END\n"
        )
        assert run(src.format(5)).cell("r").get() == 1
        assert run(src.format(0)).cell("r").get() == 2
        assert run(src.format(-2)).cell("r").get() == 3

    def test_logical_if_and_goto(self):
        frame = run(
            "      PROGRAM p\n      INTEGER k\n      k = 1\n"
            "      IF (k .EQ. 1) GOTO 10\n      k = 99\n"
            " 10   k = k + 1\n      END\n"
        )
        assert frame.cell("k").get() == 2

    def test_intrinsics(self):
        frame = run(
            "      PROGRAM p\n      INTEGER a\n      REAL b\n"
            "      a = max(3, 7)\n      b = abs(0.0 - 2.5)\n      END\n"
        )
        assert frame.cell("a").get() == 7
        assert frame.cell("b").get() == 2.5

    def test_logical_ops(self):
        frame = run(
            "      PROGRAM p\n      LOGICAL a, b\n      INTEGER r\n"
            "      a = .TRUE.\n      b = .FALSE.\n      r = 0\n"
            "      IF (a .AND. .NOT. b) r = 1\n      END\n"
        )
        assert frame.cell("r").get() == 1


class TestFortranArithmetic:
    """Intrinsics, operators and assignment follow Fortran, not Python."""

    def test_mod_takes_the_sign_of_a_negative_dividend(self):
        frame = run("      PROGRAM p\n      i = mod(-7, 2)\n      END\n")
        assert frame.cell("i").get() == -1

    def test_mod_ignores_the_sign_of_a_negative_divisor(self):
        frame = run("      PROGRAM p\n      i = mod(7, -2)\n      END\n")
        assert frame.cell("i").get() == 1

    def test_nint_rounds_halves_away_from_zero(self):
        frame = run(
            "      PROGRAM p\n      i = nint(2.5)\n      j = nint(-2.5)\n"
            "      k = nint(2.4)\n      END\n"
        )
        assert [frame.cell(n).get() for n in "ijk"] == [3, -3, 2]

    def test_integer_power_with_negative_exponent_truncates(self):
        frame = run(
            "      PROGRAM p\n      REAL x\n      x = 2 ** (-1)\n      END\n"
        )
        assert frame.cell("x").get() == 0.0

    def test_assignment_converts_to_the_declared_type(self):
        frame = run(
            "      PROGRAM p\n      INTEGER x\n      REAL k\n"
            "      x = 2.7\n      i = -2.7\n      k = 3\n      END\n"
        )
        assert frame.cell("x").get() == 2
        assert frame.cell("i").get() == -2
        assert isinstance(frame.cell("k").get(), float)

    def test_cell_zero_follows_the_declared_type(self):
        frame = run("      PROGRAM p\n      INTEGER x\n      REAL k\n      END\n")
        assert isinstance(frame.cell("k").get(), float)
        assert isinstance(frame.cell("x").get(), int)

    def test_array_store_converts_to_the_element_type(self):
        frame = run(
            "      PROGRAM p\n      INTEGER ia(2)\n      REAL ka(2)\n"
            "      ia(1) = 2.7\n      ka(1) = 3\n      x = ia(1) / 2\n"
            "      END\n"
        )
        assert frame.cell("x").get() == 1.0
        assert frame.array("ia").get((1,)) == 2
        assert isinstance(frame.array("ka").get((1,)), float)

    def test_unset_array_element_reads_its_type_zero(self):
        frame = run(
            "      PROGRAM p\n      INTEGER ia(2)\n      DIMENSION a(2)\n"
            "      END\n"
        )
        assert isinstance(frame.array("ia").get((2,)), int)
        assert isinstance(frame.array("a").get((2,)), float)


class TestCalls:
    def test_call_by_reference_array(self):
        frame = run(
            "      PROGRAM p\n      REAL a(10)\n      CALL fill(a, 4)\n"
            "      x = a(4)\n      END\n"
            "      SUBROUTINE fill(w, n)\n      REAL w(10)\n"
            "      INTEGER n, j\n      DO j = 1, n\n        w(j) = 2.0 * j\n"
            "      ENDDO\n      END\n"
        )
        assert frame.cell("x").get() == 8.0

    def test_call_by_reference_scalar(self):
        frame = run(
            "      PROGRAM p\n      INTEGER v\n      v = 1\n"
            "      CALL bump(v)\n      END\n"
            "      SUBROUTINE bump(k)\n      INTEGER k\n      k = k + 41\n"
            "      END\n"
        )
        assert frame.cell("v").get() == 42

    def test_expression_actual_does_not_write_back(self):
        frame = run(
            "      PROGRAM p\n      INTEGER v\n      v = 5\n"
            "      CALL bump(v + 0)\n      END\n"
            "      SUBROUTINE bump(k)\n      INTEGER k\n      k = 99\n"
            "      END\n"
        )
        assert frame.cell("v").get() == 5

    def test_early_return(self):
        frame = run(
            "      PROGRAM p\n      REAL a(10)\n      REAL x\n"
            "      x = 900.0\n      CALL fill(a, x)\n      y = a(1)\n      END\n"
            "      SUBROUTINE fill(w, x)\n      REAL w(10), x\n"
            "      IF (x .GT. 500.0) RETURN\n      w(1) = 1.0\n      END\n"
        )
        assert frame.cell("y").get() == 0.0

    def test_common_shared(self):
        frame = run(
            "      PROGRAM p\n      COMMON /blk/ w(5)\n      CALL setw\n"
            "      x = w(2)\n      END\n"
            "      SUBROUTINE setw\n      COMMON /blk/ w(5)\n"
            "      w(2) = 7.0\n      END\n"
        )
        assert frame.cell("x").get() == 7.0


class TestObservation:
    def test_events_reported(self):
        events = []
        run_program(
            "      PROGRAM p\n      REAL a(10)\n"
            "      a(3) = 1.0\n      x = a(3)\n      END\n",
            observer=events.append,
        )
        kinds = [(e.kind, e.name, e.index) for e in events if e.is_array]
        assert ("write", "a", (3,)) in kinds
        assert ("read", "a", (3,)) in kinds

    def test_storage_identity_across_calls(self):
        events = []
        frame = run_program(
            "      PROGRAM p\n      REAL a(10)\n      CALL f(a)\n      END\n"
            "      SUBROUTINE f(w)\n      REAL w(10)\n      w(1) = 1.0\n"
            "      END\n",
            observer=events.append,
        )
        writes = [e for e in events if e.kind == "write" and e.is_array]
        assert writes[0].storage is frame.array("a")

    def test_loop_hook(self):
        seen = []
        interp = Interpreter(
            analyze(
                parse_program(
                    "      PROGRAM p\n      INTEGER i, s\n      s = 0\n"
                    "      DO i = 1, 3\n        s = s + i\n      ENDDO\n"
                    "      END\n"
                )
            ),
            loop_hook=lambda r, l, i, phase: seen.append((l.var, i, phase)),
        )
        interp.run_main()
        assert ("i", 1, "iter") in seen
        assert ("i", 3, "iter") in seen
        assert ("i", 4, "exit") in seen


class TestRunRoutine:
    def test_args_passed(self):
        src = (
            "      SUBROUTINE scale(a, n, f)\n      REAL a(10), f\n"
            "      INTEGER n, j\n"
            "      DO j = 1, n\n        a(j) = a(j) * f\n      ENDDO\n"
            "      END\n"
        )
        interp = Interpreter(analyze(parse_program(src)))
        frame = interp.run_routine("scale", a=[1.0, 2.0, 3.0], n=3, f=2.0)
        assert frame.array("a").get((2,)) == 4.0


class TestUnsupported:
    def test_read_rejected(self):
        with pytest.raises(InterpreterError):
            run("      PROGRAM p\n      READ (5, *) x\n      END\n")

    def test_premature_exit_rejected(self):
        with pytest.raises(InterpreterError):
            run(
                "      PROGRAM p\n      INTEGER i\n      DO i = 1, 5\n"
                "        IF (i .GT. 2) GOTO 9\n      ENDDO\n"
                " 9    CONTINUE\n      END\n"
            )

    def test_goto_cycle_rejected(self):
        with pytest.raises(InterpreterError):
            run(
                "      PROGRAM p\n      INTEGER k\n      k = 0\n"
                " 10   k = k + 1\n      IF (k .LT. 3) GOTO 10\n      END\n"
            )

    def test_external_call_rejected(self):
        with pytest.raises(InterpreterError):
            run("      PROGRAM p\n      CALL nothere(1)\n      END\n")

    def test_step_budget(self):
        src = (
            "      PROGRAM p\n      INTEGER i, s\n      s = 0\n"
            "      DO i = 1, 10000\n        s = s + 1\n      ENDDO\n      END\n"
        )
        interp = Interpreter(analyze(parse_program(src)), max_steps=100)
        with pytest.raises(InterpreterError):
            interp.run_main()
