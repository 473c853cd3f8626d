"""Unit tests for the cost model and machine speedup model."""

import pytest

from repro.fortran import analyze, parse_program
from repro.machine import CostModel, MachineModel


def cost_of(source: str, sizes=None):
    return CostModel(analyze(parse_program(source)), sizes).program_cost()


SIMPLE = (
    "      PROGRAM p\n"
    "      REAL a(100)\n"
    "      INTEGER i\n"
    "      DO 10 i = 1, 100\n"
    "        a(i) = 1.0\n"
    " 10   CONTINUE\n"
    "      END\n"
)


class TestCostModel:
    def test_loop_cost_scales_with_trips(self):
        small = cost_of(SIMPLE.replace("1, 100", "1, 10"))
        big = cost_of(SIMPLE)
        assert big.total > small.total * 5

    def test_loop_record(self):
        cost = cost_of(SIMPLE)
        lc = cost.loop("p", 10)
        assert lc.trips == 100
        assert lc.vectorizable_inner

    def test_symbolic_trip_resolved_from_sizes(self):
        src = SIMPLE.replace("1, 100", "1, n").replace(
            "      INTEGER i\n", "      INTEGER i, n\n"
        )
        cost = cost_of(src, sizes={"n": 40})
        assert cost.loop("p", 10).trips == 40

    def test_symbolic_trip_default_when_unresolvable(self):
        src = SIMPLE.replace("1, 100", "1, n").replace(
            "      INTEGER i\n", "      INTEGER i, n\n"
        )
        cost = cost_of(src)
        assert cost.loop("p", 10).trips == 50  # DEFAULT_TRIP

    def test_percent_of_sequential(self):
        cost = cost_of(SIMPLE)
        lc = cost.loop("p", 10)
        pct = cost.percent_of_sequential(lc)
        assert 90 <= pct <= 100

    def test_call_multiplicity_counted(self):
        src = (
            "      PROGRAM p\n      REAL a(100)\n"
            "      CALL w(a)\n      CALL w(a)\n      END\n"
            "      SUBROUTINE w(a)\n      REAL a(100)\n      INTEGER i\n"
            "      DO 10 i = 1, 50\n        a(i) = 1.0\n 10   CONTINUE\n"
            "      END\n"
        )
        cost = cost_of(src)
        lc = cost.loop("w", 10)
        assert lc.invocations == 2
        assert lc.total_cost == pytest.approx(
            2 * lc.trips * (lc.body_cost + 0.5) + 2
        )

    def test_call_inside_loop_multiplies(self):
        src = (
            "      PROGRAM p\n      REAL a(100)\n      INTEGER k\n"
            "      DO k = 1, 4\n        CALL w(a)\n      ENDDO\n      END\n"
            "      SUBROUTINE w(a)\n      REAL a(100)\n      INTEGER i\n"
            "      DO 10 i = 1, 50\n        a(i) = 1.0\n 10   CONTINUE\n"
            "      END\n"
        )
        cost = cost_of(src)
        assert cost.loop("w", 10).invocations == 4

    def test_vectorizable_detection(self):
        src = (
            "      PROGRAM p\n      REAL a(100)\n      INTEGER i\n"
            "      DO 10 i = 1, 10\n        IF (a(i) .GT. 0.0) a(i) = 0.0\n"
            " 10   CONTINUE\n      END\n"
        )
        assert not cost_of(src).loop("p", 10).vectorizable_inner

    def test_outer_loop_vectorizable_through_inner(self):
        src = (
            "      PROGRAM p\n      REAL a(100)\n      INTEGER i, j\n"
            "      DO 10 i = 1, 10\n"
            "        DO j = 1, 10\n          a(j) = 1.0\n        ENDDO\n"
            " 10   CONTINUE\n      END\n"
        )
        assert cost_of(src).loop("p", 10).vectorizable_inner


class TestMachineModel:
    def _loop(self, trips=100.0, body=50.0, vector=False):
        from repro.machine.costmodel import LoopCost

        return LoopCost(
            routine="p",
            source_label=1,
            var="i",
            lineno=1,
            trips=trips,
            body_cost=body,
            total_cost=trips * body,
            invocations=1.0,
            vectorizable_inner=vector,
        )

    def test_speedup_bounded_by_processors_when_scalar(self):
        model = MachineModel(processors=8, vector_factor=1.0)
        s = model.loop_speedup(self._loop())
        assert 1.0 < s <= 8.0

    def test_vector_loops_exceed_processor_count(self):
        model = MachineModel(processors=8)
        s = model.loop_speedup(self._loop(vector=True))
        assert s > 8.0

    def test_small_trip_counts_limit_speedup(self):
        model = MachineModel(processors=8)
        s = model.loop_speedup(self._loop(trips=3.0, body=500.0))
        assert s < 3.2

    def test_tiny_loops_hurt_by_startup(self):
        model = MachineModel()
        s = model.loop_speedup(self._loop(trips=4.0, body=1.0))
        assert s < 2.0

    def test_speedup_never_below_one(self):
        model = MachineModel()
        assert model.loop_speedup(self._loop(trips=1.0, body=0.5)) >= 1.0
