"""Integration tests: COMMON-block storage through analysis, interpreter,
and trace validation."""

from repro import Panorama
from repro.parallelize import LoopStatus
from repro.validate import validate_loop

SRC = (
    "      SUBROUTINE drive(a, n, m)\n"
    "      REAL a(100)\n"
    "      INTEGER n, m, i\n"
    "      COMMON /wrk/ w(50)\n"
    "      REAL acc\n"
    "      DO i = 1, n\n"
    "        CALL fillw(m, i)\n"
    "        acc = 0.0\n"
    "        CALL sumw(acc, m)\n"
    "        a(i) = acc\n"
    "      ENDDO\n"
    "      END\n"
    "\n"
    "      SUBROUTINE fillw(c, base)\n"
    "      COMMON /wrk/ w(50)\n"
    "      INTEGER c, base, j\n"
    "      DO j = 1, c\n"
    "        w(j) = 1.0 * base + j\n"
    "      ENDDO\n"
    "      END\n"
    "\n"
    "      SUBROUTINE sumw(acc, c)\n"
    "      COMMON /wrk/ w(50)\n"
    "      REAL acc\n"
    "      INTEGER c, j\n"
    "      DO j = 1, c\n"
    "        acc = acc + w(j)\n"
    "      ENDDO\n"
    "      END\n"
)


class TestCommonWorkArray:
    def test_common_array_privatizes(self):
        result = Panorama(run_machine_model=False).compile(SRC)
        outer = [r for r in result.loops if r.routine == "drive"][0]
        assert outer.status is LoopStatus.PARALLEL_AFTER_PRIVATIZATION
        assert "w" in outer.verdict.privatized

    def test_interpreter_shares_common_storage(self):
        from repro.fortran import analyze, parse_program
        from repro.interp import Interpreter

        interp = Interpreter(analyze(parse_program(SRC)))
        frame = interp.run_routine(
            "drive", a=[0.0] * 20, n=3, m=4
        )
        # iteration 3 leaves w(j) = 3 + j; a(3) = sum over j of (3+j)
        assert frame.array("a").get((3,)) == sum(3 + j for j in range(1, 5))

    def test_trace_validation(self):
        report = validate_loop(
            SRC, "drive", "i", args={"a": [0.0] * 20, "n": 4, "m": 3}
        )
        assert report.ok, report.violations
        assert "w" in report.privatization_checked

    def test_t3_off_blocks_common_privatization(self):
        from repro import AnalysisOptions

        result = Panorama(
            AnalysisOptions(interprocedural=False), run_machine_model=False
        ).compile(SRC)
        outer = [r for r in result.loops if r.routine == "drive"][0]
        priv = outer.verdict.privatization
        assert not any(
            v.name == "w" and v.privatizable for v in priv.verdicts
        )
