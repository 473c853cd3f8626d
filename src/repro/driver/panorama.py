"""The end-to-end Panorama pipeline.

Mirrors the structure the paper describes in section 6: parse → build the
HSG → try the cheap conventional dependence tests on each loop → apply
the expensive symbolic array dataflow analysis only to loops the
conventional tests cannot resolve → privatize/classify → (optionally)
estimate speedups with the machine model.

Per-stage wall-clock timings are recorded for the Figure 4 reproduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..dataflow import AnalysisOptions, SummaryAnalyzer
from ..errors import BudgetExceeded
from ..perf import profiler
from ..resilience import budget as budgets
from ..resilience import faults
from ..deptest.ddg import ScreenReport, ScreenVerdict, screen_loop
from ..fortran import AnalyzedProgram, Apply, NameRef, Program, analyze, parse_program
from ..hsg import HSG, BasicBlockNode, IfConditionNode, LoopNode, build_hsg
from ..machine.costmodel import CostModel, LoopCost, ProgramCost
from ..machine.speedup import MachineModel
from ..parallelize import LoopStatus, LoopVerdict, classify_loop
from ..privatize.liveness import CopyOutDecision, copy_out_needed
from .hooks import PipelineHooks, StageTimings


@dataclass
class LoopReport:
    """Everything the pipeline learned about one loop."""

    routine: str
    var: str
    source_label: Optional[int]
    lineno: int
    screen: ScreenReport
    #: None when the conventional tests already resolved the loop
    verdict: Optional[LoopVerdict]
    status: LoopStatus
    used_dataflow: bool
    cost: Optional[LoopCost] = None
    speedup: float = 1.0
    pct_sequential: float = 0.0
    #: last-value copy-out decisions for the privatized arrays (3.2.1)
    copy_out: list[CopyOutDecision] = field(default_factory=list)
    #: non-None when the verdict is a budget-exhaustion degradation:
    #: "budget" | "deadline" | "steps"
    degraded: Optional[str] = None
    #: machine-checkable evidence records (content facts consumed by the
    #: loop, recurrence decompositions) behind a frontier-assisted
    #: verdict — replayed by the static auditor (docs/frontier.md)
    evidence: list[dict] = field(default_factory=list)
    #: execution-schedule hint for codegen/cost model (None = plain
    #: parallel DO; "two-pass-scan" = chunk partials + prefix combine)
    schedule: Optional[str] = None

    @property
    def parallel(self) -> bool:
        return self.status not in (LoopStatus.SERIAL, LoopStatus.UNKNOWN)

    def loop_id(self) -> str:
        """Display id like ``"interf/1000"``."""
        return f"{self.routine}/{self.source_label or self.var}"


class _LapClock:
    """Back-to-back stage clock: each :meth:`lap` returns the seconds
    since the previous one, so the time between two stages is never
    lost.  A lap nobody charges leaves that time out of every stage."""

    __slots__ = ("mark",)

    def __init__(self) -> None:
        self.mark = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self.mark = now - self.mark, now
        return elapsed


@dataclass
class CompilationResult:
    program: Program
    analyzed: AnalyzedProgram
    hsg: HSG
    analyzer: SummaryAnalyzer
    loops: list[LoopReport] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)
    cost: Optional[ProgramCost] = None

    def loop(self, routine: str, label: int | None) -> LoopReport:
        """Look up one loop's report by routine and label."""
        for report in self.loops:
            if report.routine == routine and report.source_label == label:
                return report
        raise KeyError(f"{routine}/{label}")

    def parallel_loops(self) -> list[LoopReport]:
        """Reports of the loops found parallel."""
        return [r for r in self.loops if r.parallel]

    def degraded_loops(self) -> list[LoopReport]:
        """Reports whose verdict is a budget-exhaustion degradation."""
        return [r for r in self.loops if r.degraded is not None]

    def summary_line(self) -> str:
        """One-line result summary."""
        par = len(self.parallel_loops())
        return (
            f"{par}/{len(self.loops)} loops parallel "
            f"({self.timings.total * 1000:.1f} ms analysis)"
        )


def _index_context_arrays(loop: LoopNode) -> set[str]:
    """Names used where content facts bite: subscripts of other array
    references, IF guards, and inner loop headers."""
    used: set[str] = set()

    def names_of(expr) -> None:
        for node in expr.walk():
            if isinstance(node, (NameRef, Apply)):
                used.add(node.name)

    def exprs_of(graph) -> None:
        for node in graph.nodes:
            if isinstance(node, BasicBlockNode):
                for stmt in node.stmts:
                    for expr in getattr(stmt, "target", None), getattr(
                        stmt, "value", None
                    ):
                        if expr is None:
                            continue
                        for sub in expr.walk():
                            if isinstance(sub, Apply):
                                for arg in sub.args:
                                    names_of(arg)
            elif isinstance(node, IfConditionNode):
                names_of(node.cond)
            elif isinstance(node, LoopNode):
                names_of(node.start)
                names_of(node.stop)
                if node.step is not None:
                    names_of(node.step)
                exprs_of(node.body)

    exprs_of(loop.body)
    return used


def content_inference():
    """The :mod:`repro.contents` package, imported on first use.

    Only the frontier pass and the audit's replay of its evidence infer
    array contents; importing the package with this module would add
    ~13 ms to the start of every process that loads the pipeline,
    whether or not it runs the frontier pass.
    """
    from .. import contents

    return contents


class Panorama:
    """Facade: the prototyping parallelizing analyzer of the paper."""

    def __init__(
        self,
        options: AnalysisOptions | None = None,
        sizes: Mapping[str, int] | None = None,
        machine: MachineModel | None = None,
        run_conventional: bool = True,
        run_machine_model: bool = True,
        hooks: PipelineHooks | None = None,
    ) -> None:
        self.options = options or AnalysisOptions()
        self.sizes = dict(sizes or {})
        self.machine = machine or MachineModel()
        self.run_conventional = run_conventional
        self.run_machine_model = run_machine_model
        self.hooks = hooks

    # -- pipeline -----------------------------------------------------------------

    def compile(self, source: str) -> CompilationResult:
        """Run the full pipeline on Fortran source text."""
        if self.options.budget_steps is not None:
            # the symbolic memos charge steps only on a miss, so a step
            # budget spends the same steps (and degrades the same loops)
            # only from empty memos — not from whatever ran before
            profiler.clear_caches()
        perf_before = profiler.snapshot()
        timings = StageTimings()
        clock = _LapClock()
        program = parse_program(source)
        timings.parse = clock.lap()
        analyzed = analyze(program)
        hsg = build_hsg(analyzed)
        timings.frontend = clock.lap()

        analyzer = SummaryAnalyzer(hsg, self.options)
        if self.options.frontier and self.options.symbolic:
            facts = content_inference().infer_program(analyzed, self.options)
            facts.install(analyzer)
            analyzer.stats.content_facts += facts.count()
        timings.dataflow = clock.lap()
        if self.hooks is not None:
            self.hooks.attach(analyzer, hsg)
            clock.lap()  # hooks (engine cache I/O) stay outside the stages
        result = CompilationResult(program, analyzed, hsg, analyzer, timings=timings)

        budget = self.options.budget()
        if faults.should_fire("budget.exhaust"):
            budget = budgets.AnalysisBudget(max_steps=0)
        with budgets.budget_scope(budget):
            for unit_name, loop in hsg.all_loops():
                report = self._process_loop(
                    analyzer, unit_name, loop, timings, clock
                )
                result.loops.append(report)
                timings.dataflow += clock.lap()
                if self.hooks is not None:
                    self.hooks.loop_done(report)
                    clock.lap()

        if self.run_machine_model:
            self._apply_machine_model(result)
            timings.machine = clock.lap()
        analyzer.stats.symbolic = profiler.delta(perf_before, profiler.snapshot())
        if self.hooks is not None:
            self.hooks.finish(result)
        return result

    def _process_loop(
        self,
        analyzer: SummaryAnalyzer,
        unit_name: str,
        loop: LoopNode,
        timings: StageTimings,
        clock: _LapClock,
    ) -> LoopReport:
        """One loop's report.  Charges the context setup and the screen
        to ``conventional``; the caller charges the rest to ``dataflow``."""
        ctx = analyzer.context_for(unit_name)
        for idx in analyzer.enclosing_indices(unit_name, loop):
            ctx = ctx.with_index(idx)
        try:
            # one step per loop: gives deadline budgets a per-loop
            # checkpoint even when the loop never reaches the symbolic
            # kernels, and makes max_steps=0 degrade everything
            budgets.charge(1)
            if self.run_conventional:
                screen = screen_loop(loop, ctx, analyzer.comparer)
            else:
                screen = ScreenReport(ScreenVerdict.POSSIBLE_DEPENDENCE)
        except BudgetExceeded as exc:
            timings.conventional += clock.lap()
            return self._degraded_report(analyzer, unit_name, loop, exc)
        timings.conventional += clock.lap()

        if (
            screen.verdict is ScreenVerdict.INDEPENDENT
            and not loop.has_premature_exit
        ):
            report = LoopReport(
                routine=unit_name,
                var=loop.var,
                source_label=loop.source_label,
                lineno=loop.lineno,
                screen=screen,
                verdict=None,
                status=LoopStatus.PARALLEL,
                used_dataflow=False,
            )
            self._attach_evidence(analyzer, unit_name, loop, report)
            return report
        try:
            verdict = classify_loop(analyzer, unit_name, loop)
            table = analyzer.hsg.analyzed.table(unit_name)
            arrays = [n for n in verdict.privatized if table.is_array(n)]
            copy_out: list[CopyOutDecision] = []
            if arrays and verdict.record is not None:
                # only privatized arrays take the last-value test, so a
                # loop privatizing scalars alone skips the below pass
                below = analyzer.below_summary(unit_name, loop)
                copy_out = [
                    copy_out_needed(
                        name, verdict.record.mod, below.ue, analyzer.comparer
                    )
                    for name in arrays
                ]
        except BudgetExceeded as exc:
            return self._degraded_report(
                analyzer, unit_name, loop, exc, screen=screen
            )
        report = LoopReport(
            routine=unit_name,
            var=loop.var,
            source_label=loop.source_label,
            lineno=loop.lineno,
            screen=screen,
            verdict=verdict,
            status=verdict.status,
            used_dataflow=True,
            copy_out=copy_out,
            degraded=verdict.record.degraded if verdict.record else None,
        )
        if verdict.status is LoopStatus.PARALLEL_SCAN:
            report.schedule = "two-pass-scan"
        self._attach_evidence(analyzer, unit_name, loop, report)
        return report

    def _attach_evidence(
        self,
        analyzer: SummaryAnalyzer,
        unit_name: str,
        loop: LoopNode,
        report: LoopReport,
    ) -> None:
        """Attach frontier evidence records to a parallel loop's report.

        Evidence is the content facts the loop plausibly consumed (its
        body mentions the fact array in a subscript, a guard, or an
        inner loop header) plus the recurrence decompositions behind a
        scan verdict.  ``frontier_upgrades`` counts parallel verdicts
        resting on at least one such record.
        """
        if not self.options.frontier or not report.parallel:
            return
        if report.verdict is not None:
            report.evidence.extend(
                m.to_payload() for m in report.verdict.scan_matches
            )
        facts = analyzer.content_facts
        if facts is not None:
            used = _index_context_arrays(loop)
            report.evidence.extend(facts.evidence_for(unit_name, used))
        if report.evidence:
            analyzer.stats.frontier_upgrades += 1

    def _degraded_report(
        self,
        analyzer: SummaryAnalyzer,
        unit_name: str,
        loop: LoopNode,
        exc: BudgetExceeded,
        screen: ScreenReport | None = None,
    ) -> LoopReport:
        """Budget ran out outside the SUM_* fallbacks: conservative verdict."""
        analyzer.stats.budget_degradations += 1
        profiler.COUNTERS.budget_fallbacks += 1
        return LoopReport(
            routine=unit_name,
            var=loop.var,
            source_label=loop.source_label,
            lineno=loop.lineno,
            screen=screen or ScreenReport(ScreenVerdict.POSSIBLE_DEPENDENCE),
            verdict=None,
            status=LoopStatus.UNKNOWN,
            used_dataflow=True,
            degraded=exc.reason,
        )

    def _apply_machine_model(self, result: CompilationResult) -> None:
        model = CostModel(result.analyzed, self.sizes)
        cost = model.program_cost()
        result.cost = cost
        by_key: dict[tuple[str, Optional[int], int], LoopCost] = {}
        for lc in cost.loops:
            by_key[(lc.routine, lc.source_label, lc.lineno)] = lc
        for report in result.loops:
            lc = by_key.get((report.routine, report.source_label, report.lineno))
            if lc is None:
                continue
            report.cost = lc
            report.pct_sequential = cost.percent_of_sequential(lc)
            if report.status is LoopStatus.PARALLEL_SCAN:
                report.speedup = self.machine.scan_speedup(lc)
            elif report.parallel:
                report.speedup = self.machine.loop_speedup(lc)
