"""Loop classification: serial / parallel / parallel after transformation.

Combines the dependence tests, the privatizer, and reduction recognition
into a per-loop verdict with per-variable reasoning, in the order the
paper prescribes (flow first, then output, then anti):

* a variable with no carried dependences needs nothing;
* a carried flow dependence is fatal unless the variable is a recognized
  reduction;
* carried output/anti dependences disappear by privatizing the variable
  (if it is a privatizable candidate) — this is exactly the Table 1 story:
  the loop is parallel *after array privatization*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from ..dataflow.analyzer import SummaryAnalyzer
from ..dataflow.context import LoopSummaryRecord
from ..dataflow.sum_loop import recognized_inductions
from ..hsg.nodes import LoopNode
from ..privatize.privatizer import LoopPrivatization, privatize_loop
from ..resilience import faults
from .loop_analysis import DependenceReport, loop_dependences
from .recurrences import find_recurrences
from .reductions import find_reductions

_OPAQUE_RE = re.compile(r"@(\d+)")


def _stable_opaques(text: str) -> str:
    """Renumber opaque-symbol ids (``name@k``) by first appearance.

    A compile numbers its symbols from 1, but the raw ids also count
    the symbols of served cache entries it renamed apart; renumbering
    keeps the printed conflicts identical between cached and cacheless
    runs (equal ids still print equal, distinct ids distinct).
    """
    seen: dict[str, str] = {}

    def sub(match: re.Match) -> str:
        return seen.setdefault(match.group(1), f"@{len(seen) + 1}")

    return _OPAQUE_RE.sub(sub, text)


class LoopStatus(Enum):
    """Final parallelization verdict of a DO loop."""

    PARALLEL = "parallel"
    PARALLEL_AFTER_PRIVATIZATION = "parallel (privatized)"
    PARALLEL_WITH_REDUCTION = "parallel (reduction)"
    #: a recognized scan/recurrence: parallel under the two-pass
    #: (chunk partials → prefix combine → finalize) schedule
    PARALLEL_SCAN = "parallel (scan)"
    SERIAL = "serial"
    #: the analysis budget ran out: the summary is the conservative
    #: whole-array fallback, so nothing can be proven either way — the
    #: loop is treated as serial but the verdict is explicitly "unknown"
    UNKNOWN = "unknown (budget)"


@dataclass
class VariableFinding:
    name: str
    deps: DependenceReport
    action: str  # 'none' | 'privatize' | 'reduction' | 'serializes'
    detail: str = ""


@dataclass
class LoopVerdict:
    routine: str
    var: str
    source_label: int | None
    status: LoopStatus
    findings: list[VariableFinding] = field(default_factory=list)
    privatized: list[str] = field(default_factory=list)
    reductions: list[str] = field(default_factory=list)
    #: recognized induction variables (parallelizable by rewriting the
    #: variable as a closed form of the loop index, paper section 5.2)
    inductions: list[str] = field(default_factory=list)
    #: variables whose carried flow dependence is a recognized
    #: scan/recurrence (frontier pass; docs/frontier.md)
    scans: list[str] = field(default_factory=list)
    #: the RecurrenceMatch records behind ``scans`` (evidence source)
    scan_matches: list = field(default_factory=list)
    serial_reasons: list[str] = field(default_factory=list)
    record: LoopSummaryRecord | None = None
    privatization: LoopPrivatization | None = None

    @property
    def parallel(self) -> bool:
        return self.status not in (LoopStatus.SERIAL, LoopStatus.UNKNOWN)

    def blocking_variables(self) -> list[str]:
        """Variables whose dependences serialize the loop."""
        return [f.name for f in self.findings if f.action == "serializes"]

    def status_modulo(self, assume_private: frozenset[str]) -> LoopStatus:
        """Status if the given variables were privatized by hand.

        Used by the Table 1 harness: the paper's measured loops privatize
        MDG's ``RL`` manually even though the implementation cannot
        (Figure 1(a)); everything else must still check out.
        """
        if self.status is not LoopStatus.SERIAL:
            return self.status
        blocking = set(self.blocking_variables())
        if blocking and blocking <= set(assume_private) and not any(
            "premature exit" in r for r in self.serial_reasons
        ):
            return LoopStatus.PARALLEL_AFTER_PRIVATIZATION
        return LoopStatus.SERIAL

    def conflicts(self) -> dict[str, str]:
        """The privatizer's recorded offending intersections, by variable.

        For every candidate that failed the ``MOD_<i ∩ UE_i = ∅`` test,
        the privatizer records the non-empty intersection — the exact
        GAR(s) flowing between iterations.  Surfaced here (and in the
        ``--json`` report) so a failed privatization is actionable.
        """
        if self.privatization is None:
            return {}
        return {
            v.name: _stable_opaques(str(v.conflict))
            for v in self.privatization.failed()
            if len(v.conflict)
        }

    def describe(self) -> str:
        """Multi-line human-readable verdict."""
        head = f"{self.routine}/{self.source_label or self.var}: {self.status.value}"
        lines = [head]
        conflicts = self.conflicts()
        for f in self.findings:
            if f.action != "none":
                lines.append(f"  {f.name}: {f.action} ({f.detail})")
                if f.name in conflicts:
                    lines.append(
                        f"    offending intersection: {conflicts[f.name]}"
                    )
        for reason in self.serial_reasons:
            lines.append(f"  ! {reason}")
        return "\n".join(lines)


def classify_loop(
    analyzer: SummaryAnalyzer, unit_name: str, loop: LoopNode
) -> LoopVerdict:
    """Classify one DO loop."""
    record = analyzer.loop_record(unit_name, loop)
    cmp = analyzer.comparer
    table = analyzer.hsg.analyzed.table(unit_name)
    verdict = LoopVerdict(
        routine=unit_name,
        var=loop.var,
        source_label=loop.source_label,
        status=LoopStatus.PARALLEL,
        record=record,
    )
    if record.degraded is not None:
        # budget-exhaustion fallback: the sets are the conservative
        # whole-array over-approximation — dependence reasoning over them
        # would only manufacture spurious findings, so stop here
        verdict.status = LoopStatus.UNKNOWN
        verdict.serial_reasons.append(
            f"analysis budget exhausted ({record.degraded}): conservative "
            "whole-array summary, loop not analyzed"
        )
        return verdict
    if loop.has_premature_exit:
        verdict.status = LoopStatus.SERIAL
        verdict.serial_reasons.append(
            "loop has a premature exit (GOTO/RETURN out of the body)"
        )
        return verdict
    reductions = {r.name: r for r in find_reductions(loop.body)}
    recurrences = {}
    if analyzer.options.frontier:
        recurrences = {m.name: m for m in find_recurrences(loop)}
    ctx = analyzer.loop_context(unit_name, loop)
    inductions = recognized_inductions(analyzer, loop, ctx)
    privatization = privatize_loop(record, table, cmp)
    verdict.privatization = privatization
    deps = loop_dependences(record, cmp)
    privatizable = {
        v.name for v in privatization.verdicts if v.privatizable
    }

    for name, report in deps.items():
        if not report.any:
            verdict.findings.append(VariableFinding(name, report, "none"))
            continue
        if report.flow:
            if name in inductions:
                verdict.findings.append(
                    VariableFinding(
                        name,
                        report,
                        "induction",
                        f"closed form {inductions[name]}",
                    )
                )
                verdict.inductions.append(name)
                continue
            if name in reductions:
                red = reductions[name]
                verdict.findings.append(
                    VariableFinding(
                        name, report, "reduction", f"operator {red.operator}"
                    )
                )
                verdict.reductions.append(name)
                continue
            if name in recurrences:
                match = recurrences[name]
                verdict.findings.append(
                    VariableFinding(
                        name,
                        report,
                        "scan",
                        f"{match.shape} over {match.operator} "
                        f"(distance {match.distance})",
                    )
                )
                verdict.scans.append(name)
                verdict.scan_matches.append(match)
                analyzer.stats.recurrence_matches += 1
                continue
            verdict.findings.append(
                VariableFinding(
                    name,
                    report,
                    "serializes",
                    "loop-carried flow dependence "
                    f"(UE_{record.var} ∩ MOD_<{record.var} not empty)",
                )
            )
            verdict.serial_reasons.append(
                f"flow dependence carried on {name}"
            )
            continue
        # output / anti only: privatization removes them
        if name in privatizable:
            verdict.findings.append(
                VariableFinding(
                    name,
                    report,
                    "privatize",
                    f"removes carried {'/'.join(report.kinds())} dependences",
                )
            )
            verdict.privatized.append(name)
            continue
        if name in reductions:
            verdict.findings.append(
                VariableFinding(
                    name, report, "reduction",
                    f"operator {reductions[name].operator}",
                )
            )
            verdict.reductions.append(name)
            continue
        verdict.findings.append(
            VariableFinding(
                name,
                report,
                "serializes",
                f"carried {'/'.join(report.kinds())} dependences and "
                f"not privatizable",
            )
        )
        verdict.serial_reasons.append(
            f"{'/'.join(report.kinds())} dependence carried on {name}"
        )

    if verdict.serial_reasons:
        verdict.status = LoopStatus.SERIAL
    elif verdict.scans:
        # the scan schedule subsumes privatization/reduction transforms
        # also present in the loop — it is the binding constraint
        verdict.status = LoopStatus.PARALLEL_SCAN
    elif verdict.privatized or verdict.inductions:
        verdict.status = LoopStatus.PARALLEL_AFTER_PRIVATIZATION
    elif verdict.reductions:
        verdict.status = LoopStatus.PARALLEL_WITH_REDUCTION
    # fault-injection seam (chaos/audit testing only): pretend the
    # classifier misreported a non-parallel loop as parallel, so the
    # static auditor's detection path can be exercised end to end
    if verdict.status in (LoopStatus.SERIAL, LoopStatus.UNKNOWN):
        key = f"{unit_name}/{loop.source_label or loop.var}"
        if faults.should_fire("classifier.misreport", key=key):
            verdict.status = LoopStatus.PARALLEL
            verdict.serial_reasons = []
    return verdict


def classify_all_loops(analyzer: SummaryAnalyzer) -> list[LoopVerdict]:
    """Classify every DO loop in the program (outermost first per routine)."""
    out = []
    for unit_name, loop in analyzer.hsg.all_loops():
        out.append(classify_loop(analyzer, unit_name, loop))
    return out
