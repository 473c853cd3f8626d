"""Calls and condensed GOTO cycles are barriers to the conventional screen.

The conventional tests see neither a callee's scalar, array-element and
COMMON effects nor how often a backward-GOTO cycle runs, so a loop whose
body holds either goes to the interprocedural dataflow (paper section 6).
Each program here was once reported parallel without it (or, for the
cycles inside a DO body, refused as a cyclic flow subgraph).  The passes
that read a cycle's members (the cycle's own summary, induction and
reduction recognition) must see every statement in it.
"""

import pytest

from repro import Panorama
from repro.audit import audit_compilation
from repro.parallelize import LoopStatus

BUMP = "      SUBROUTINE bump(k)\n      REAL k\n      k = k + 1\n      END\n"

PROGRAMS = {
    # the callee writes the scalar actual, which the body then reads
    "call-scalar-then-read": (
        "      SUBROUTINE s(a, n)\n      REAL a(100), t\n      INTEGER n, i\n"
        "      DO 10 i = 1, n\n        CALL bump(t)\n        a(i) = t\n"
        "   10 CONTINUE\n      END\n" + BUMP
    ),
    "call-scalar-only": (
        "      SUBROUTINE s(a, n)\n      REAL a(100), t\n      INTEGER n, i\n"
        "      DO 10 i = 1, n\n        CALL bump(t)\n"
        "   10 CONTINUE\n      END\n" + BUMP
    ),
    "call-common-scalar": (
        "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i\n"
        "      COMMON /c/ t\n"
        "      DO 10 i = 1, n\n        CALL bump\n        a(i) = t\n"
        "   10 CONTINUE\n      END\n"
        "      SUBROUTINE bump\n      COMMON /c/ t\n      t = t + 1.0\n"
        "      END\n"
    ),
    "call-common-array": (
        "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i\n"
        "      COMMON /c/ x(100)\n"
        "      DO 10 i = 1, n\n        CALL bump\n        a(i) = x(1)\n"
        "   10 CONTINUE\n      END\n"
        "      SUBROUTINE bump\n      COMMON /c/ x(100)\n"
        "      x(1) = x(1) + 1.0\n      END\n"
    ),
    # a scalar formal bound to an array element writes through it
    "call-element-actual": (
        "      SUBROUTINE s(a, x, n)\n      REAL a(100), x(100)\n"
        "      INTEGER n, i\n"
        "      DO 10 i = 1, n\n        CALL acc(x(1))\n        a(i) = x(1)\n"
        "   10 CONTINUE\n      END\n"
        "      SUBROUTINE acc(y)\n      REAL y\n      y = y + 1.0\n      END\n"
    ),
    # the same scalar keeps counting across iterations
    "goto-cycle-carried": (
        "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i, k\n"
        "      k = 0\n"
        "      DO 10 i = 1, n\n   20   k = k + 1\n"
        "        IF (MOD(k, 3) .NE. 0) GOTO 20\n        a(i) = k\n"
        "   10 CONTINUE\n      END\n"
    ),
    # a call inside the cycle bumps a COMMON scalar the body then reads
    "goto-cycle-call": (
        "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i, k\n"
        "      COMMON /c/ t\n"
        "      DO 10 i = 1, n\n        k = 0\n   20   k = k + 1\n"
        "        CALL bump\n        IF (k .LT. 3) GOTO 20\n        a(i) = t\n"
        "   10 CONTINUE\n      END\n"
        "      SUBROUTINE bump\n      COMMON /c/ t\n      t = t + 1.0\n"
        "      END\n"
    ),
    # the same cycle in the callee's own body reaches the loop through
    # the callee's summary
    "goto-cycle-call-in-callee": (
        "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i\n"
        "      COMMON /c/ t\n"
        "      DO 10 i = 1, n\n        CALL wrap\n        a(i) = t\n"
        "   10 CONTINUE\n      END\n"
        "      SUBROUTINE wrap\n      COMMON /c/ t\n      INTEGER k\n"
        "      k = 0\n   20 k = k + 1\n      CALL bump\n"
        "      IF (k .LT. 3) GOTO 20\n      END\n"
        "      SUBROUTINE bump\n      COMMON /c/ t\n      t = t + 1.0\n"
        "      END\n"
    ),
    # one unconditional k = k + 1, and more inside the cycle: no
    # induction closed form
    "goto-cycle-induction": (
        "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i, k\n"
        "      k = 0\n"
        "      DO 10 i = 1, n\n        k = k + 1\n   20   k = k + 1\n"
        "        IF (MOD(k, 3) .NE. 0) GOTO 20\n        a(k) = 1.0\n"
        "   10 CONTINUE\n      END\n"
    ),
    # t = t + a(i) looks like a reduction, but the cycle resets t
    "goto-cycle-reduction-reset": (
        "      SUBROUTINE s(a, n)\n      REAL a(100), t\n      INTEGER n, i, k\n"
        "      DO 10 i = 1, n\n        t = t + a(i)\n        k = 0\n"
        "   20   k = k + 1\n        CALL zap(t)\n        IF (k .LT. 3) GOTO 20\n"
        "   10 CONTINUE\n      END\n"
        "      SUBROUTINE zap(x)\n      REAL x\n      x = 0.0\n      END\n"
    ),
    # an update inside the cycle runs an unknown number of times, and
    # still reduces
    "goto-cycle-reduction": (
        "      SUBROUTINE s(a, n)\n      REAL a(100), t\n      INTEGER n, i, k\n"
        "      DO 10 i = 1, n\n        k = 0\n   20   k = k + 1\n"
        "        t = t + 1.0\n        IF (k .LT. 3) GOTO 20\n"
        "   10 CONTINUE\n      END\n"
    ),
    # a WHILE loop written with GOTO, its counter reset each iteration
    "goto-cycle-private": (
        "      SUBROUTINE s(a, n)\n      REAL a(100)\n      INTEGER n, i, j\n"
        "      DO 10 i = 1, n\n        j = 0\n   20   j = j + 1\n"
        "        IF (j .LT. 3) GOTO 20\n        a(i) = 1.0\n"
        "   10 CONTINUE\n      END\n"
    ),
}

SERIAL = LoopStatus.SERIAL
PRIVATIZED = LoopStatus.PARALLEL_AFTER_PRIVATIZATION

#: program → (status, serial reasons, privatized names, reductions)
EXPECTED = {
    "call-scalar-then-read": (SERIAL, ["flow dependence carried on t"], [], []),
    "call-scalar-only": (SERIAL, ["flow dependence carried on t"], [], []),
    "call-common-scalar": (SERIAL, ["flow dependence carried on t"], [], []),
    "call-common-array": (SERIAL, ["flow dependence carried on x"], [], []),
    "call-element-actual": (SERIAL, ["flow dependence carried on x"], [], []),
    "goto-cycle-carried": (SERIAL, ["flow dependence carried on k"], [], []),
    "goto-cycle-call": (SERIAL, ["flow dependence carried on t"], ["k"], []),
    "goto-cycle-call-in-callee": (
        SERIAL, ["flow dependence carried on t"], [], []
    ),
    "goto-cycle-induction": (SERIAL, ["flow dependence carried on k"], ["a"], []),
    "goto-cycle-reduction-reset": (
        SERIAL, ["flow dependence carried on t"], ["k"], []
    ),
    "goto-cycle-reduction": (PRIVATIZED, [], ["k"], ["t"]),
    "goto-cycle-private": (PRIVATIZED, [], ["j"], []),
}

#: the programs whose loop body holds a condensed cycle
CYCLES = sorted(name for name in PROGRAMS if name.startswith("goto-cycle-")
                and name != "goto-cycle-call-in-callee")


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_barrier_sends_loop_to_dataflow(name):
    result = Panorama(run_machine_model=False).compile(PROGRAMS[name])
    report = result.loops[0]
    assert report.routine == "s"
    assert report.screen.verdict.value == "possible-dependence"
    assert report.used_dataflow
    verdict = report.verdict
    assert (
        report.status,
        verdict.serial_reasons,
        verdict.privatized,
        verdict.reductions,
    ) == EXPECTED[name]


@pytest.mark.parametrize("name", CYCLES)
def test_cycle_in_loop_body_is_linted(name):
    result = Panorama(run_machine_model=False).compile(PROGRAMS[name])
    audit = audit_compilation(result, f"{name}.f", source=PROGRAMS[name])
    assert [d.code for d in audit.lint] == ["PAN202"]
    assert audit.clean()
