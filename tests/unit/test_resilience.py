"""Unit tests for analysis budgets and graceful degradation.

The resilience contract (docs/robustness.md): budget exhaustion never
crashes or hangs a compile — the affected loops degrade to the paper's
conservative whole-array summary and an explicit "unknown (budget)"
verdict, while everything else stays exact.
"""

import pytest

from repro.dataflow import AnalysisOptions
from repro.driver.panorama import Panorama
from repro.errors import (
    BudgetExceeded,
    ParseError,
    SemanticError,
    classify_exception,
)
from repro.parallelize import LoopStatus
from repro.resilience import (
    AnalysisBudget,
    ItemTimeout,
    WorkerCrash,
    active_budget,
    budget_scope,
    charge,
)

LOOP_SRC = (
    "      SUBROUTINE s(a, b, n)\n"
    "      REAL a(100), b(50)\n"
    "      INTEGER n, i\n"
    "      DO 10 i = 1, n\n"
    "        a(i) = b(i) + 1.0\n"
    "   10 CONTINUE\n"
    "      END\n"
)


class TestAnalysisBudget:
    def test_step_budget_raises_with_reason(self):
        budget = AnalysisBudget(max_steps=3)
        budget.charge(3)
        with pytest.raises(BudgetExceeded) as exc:
            budget.charge(1)
        assert exc.value.reason == "steps"

    def test_exhausted_budget_stays_exhausted(self):
        budget = AnalysisBudget(max_steps=0)
        for _ in range(3):
            with pytest.raises(BudgetExceeded):
                budget.charge(1)

    def test_deadline_budget_raises_deadline(self):
        budget = AnalysisBudget(budget_ms=0.0)
        with pytest.raises(BudgetExceeded) as exc:
            # the deadline is only checked every N steps (amortization)
            for _ in range(10_000):
                budget.charge(1)
        assert exc.value.reason == "deadline"

    def test_unlimited_budget_never_raises(self):
        budget = AnalysisBudget()
        budget.charge(100_000)

    def test_charge_is_noop_without_active_budget(self):
        assert active_budget() is None
        charge(1_000_000)  # nothing installed: must not raise

    def test_budget_scope_installs_and_restores(self):
        budget = AnalysisBudget(max_steps=10)
        with budget_scope(budget):
            assert active_budget() is budget
            charge(5)
        assert active_budget() is None
        assert budget.steps == 5

    def test_budget_scope_nests(self):
        outer, inner = AnalysisBudget(), AnalysisBudget()
        with budget_scope(outer):
            with budget_scope(inner):
                assert active_budget() is inner
            assert active_budget() is outer

    def test_budget_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with budget_scope(AnalysisBudget()):
                raise RuntimeError("boom")
        assert active_budget() is None

    def test_none_scope_is_transparent(self):
        with budget_scope(None):
            assert active_budget() is None


class TestBudgetFallback:
    def test_exhausted_budget_degrades_to_unknown(self):
        result = Panorama(
            AnalysisOptions(budget_steps=0), run_machine_model=False
        ).compile(LOOP_SRC)
        (report,) = result.loops
        assert report.status is LoopStatus.UNKNOWN
        assert report.status.value == "unknown (budget)"
        assert report.degraded == "steps"
        assert not report.parallel
        assert result.degraded_loops() == [report]

    def test_conservative_record_covers_declared_bounds(self):
        from tests.conftest import compile_source

        hsg, analyzer = compile_source(LOOP_SRC)
        ((unit, loop),) = list(hsg.all_loops())
        with budget_scope(AnalysisBudget(max_steps=0)):
            record = analyzer.loop_record(unit, loop)
        assert record.degraded == "steps"
        # every referenced array appears whole in MOD and UE, inexact
        for gars in (record.mod, record.ue, record.mod_i, record.ue_i):
            names = {g.array for g in gars}
            assert {"a", "b"} <= names
            assert all(not g.exact for g in gars)
        # declared-bounds shape: a(100) spans 1..100, b(50) spans 1..50
        (a_gar,) = record.mod.for_array("a")
        assert "1:100" in str(a_gar.region)
        (b_gar,) = record.mod.for_array("b")
        assert "1:50" in str(b_gar.region)

    def test_conservative_record_reads_condensed_cycles(self):
        """An array written only inside a backward-GOTO cycle of the body
        is in the fallback record too: under-collection is unsound."""
        from tests.conftest import compile_source

        src = (
            "      SUBROUTINE s(a, w, n)\n"
            "      REAL a(100), w(10)\n"
            "      INTEGER n, i, k\n"
            "      DO 10 i = 1, n\n"
            "        k = 0\n"
            "   20   k = k + 1\n"
            "        w(k) = 1.0\n"
            "        IF (k .LT. 3) GOTO 20\n"
            "        a(i) = 1.0\n"
            "   10 CONTINUE\n"
            "      END\n"
        )
        hsg, analyzer = compile_source(src)
        ((unit, loop),) = list(hsg.all_loops())
        with budget_scope(AnalysisBudget(max_steps=0)):
            record = analyzer.loop_record(unit, loop)
        assert record.degraded == "steps"
        assert {"a", "w", "k"} <= {g.array for g in record.mod}

    def test_degradation_is_counted(self):
        result = Panorama(
            AnalysisOptions(budget_steps=0), run_machine_model=False
        ).compile(LOOP_SRC)
        assert result.analyzer.stats.budget_degradations >= 1

    def test_classifier_marks_degraded_record_unknown(self):
        from repro.parallelize import classify_loop
        from tests.conftest import compile_source

        hsg, analyzer = compile_source(LOOP_SRC)
        ((unit, loop),) = list(hsg.all_loops())
        with budget_scope(AnalysisBudget(max_steps=0)):
            verdict = classify_loop(analyzer, unit, loop)
        assert verdict.status is LoopStatus.UNKNOWN
        assert not verdict.parallel
        assert any("budget" in r for r in verdict.serial_reasons)
        assert verdict.record is not None
        assert verdict.record.degraded == "steps"

    def test_no_budget_is_bit_identical_to_default(self):
        from repro.driver.report import loop_report_row

        plain = Panorama(run_machine_model=False).compile(LOOP_SRC)
        unlimited = Panorama(
            AnalysisOptions(), run_machine_model=False
        ).compile(LOOP_SRC)
        assert [loop_report_row(r) for r in plain.loops] == [
            loop_report_row(r) for r in unlimited.loops
        ]
        assert plain.loops[0].status is not LoopStatus.UNKNOWN
        assert plain.analyzer.stats.budget_degradations == 0

    def test_generous_budget_does_not_degrade(self):
        result = Panorama(
            AnalysisOptions(budget_steps=10_000_000), run_machine_model=False
        ).compile(LOOP_SRC)
        assert result.degraded_loops() == []
        assert result.loops[0].status is not LoopStatus.UNKNOWN

    def test_cli_exit_code_3_on_degradation(self, tmp_path, capsys):
        from repro.driver.cli import main

        src = tmp_path / "loop.f"
        src.write_text(LOOP_SRC)
        assert main([str(src), "--budget-steps", "0", "--no-machine"]) == 3
        assert main([str(src), "--no-machine"]) == 0

    def test_step_budget_verdicts_do_not_depend_on_warm_memos(self):
        """The same budgeted batch, run three times in one process, gives
        the same rows: warm symbolic memos must not save steps."""
        from repro.engine.batch import BatchEngine, BatchItem
        from repro.engine.campaign import generate_campaign

        items = [
            BatchItem(c.name, c.source)
            for c in generate_campaign(4, seed=7993)
        ]
        runs = []
        for _ in range(3):
            engine = BatchEngine(
                AnalysisOptions(budget_steps=40),
                jobs=1,
                run_machine_model=False,
            )
            report = engine.run(items)
            engine.cache.close()
            runs.append(
                [
                    (res.name, row["loop"], row["status"])
                    for res in report.results
                    for row in res.payload["loops"]
                ]
            )
        assert runs[0] == runs[1] == runs[2]
        assert ("nest-000001", "work0/i0", "unknown (budget)") in runs[0]


class TestClassifyException:
    def test_taxonomy(self):
        assert classify_exception(BudgetExceeded()) == "budget"
        assert classify_exception(ItemTimeout("t")) == "timeout"
        assert classify_exception(WorkerCrash("w")) == "worker-crash"
        assert classify_exception(ParseError("bad")) == "source"
        assert classify_exception(SemanticError("bad")) == "analysis"
        assert classify_exception(RecursionError()) == "analysis"
        assert classify_exception(MemoryError()) == "oom"
        assert classify_exception(RuntimeError("bug")) == "internal"
        assert classify_exception(ValueError("bug")) == "internal"

    def test_exit_code_table(self):
        """The CLI-wide exit taxonomy (docs/robustness.md), pinned: these
        values are contract with CI scripts and fleet supervisors."""
        from repro import errors

        assert errors.EXIT_OK == 0
        assert errors.EXIT_HARD_FAILURE == 1
        assert errors.EXIT_USAGE == 2
        assert errors.EXIT_DEGRADED == 3
        assert errors.EXIT_AUDIT_FAILED == 4
        assert errors.EXIT_INTERRUPTED == 5
        codes = [
            errors.EXIT_OK,
            errors.EXIT_HARD_FAILURE,
            errors.EXIT_USAGE,
            errors.EXIT_DEGRADED,
            errors.EXIT_AUDIT_FAILED,
            errors.EXIT_INTERRUPTED,
        ]
        assert codes == sorted(set(codes))  # distinct, stable ordering
