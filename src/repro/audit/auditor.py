"""The static race auditor: an N-version check of parallel verdicts.

For every loop the pipeline reports PARALLEL (in any flavor), the
auditor independently re-derives the cross-iteration conflicts the GAR
path must have disproved: all (write, write) and (write, read) reference
pairs over variables that were *not* removed by privatization, reduction
rewriting, or induction recognition.  Each pair is put to the whole
conventional dependence suite — the GCD test, the Banerjee bounds test,
and a symbolic distance prover built on the Comparer — as independent
voters:

* any voter proving **independence** clears the pair;
* the distance prover proving a **dependence** while the loop is claimed
  parallel is a confirmed disagreement (``PAN101``), *unless* the loop
  body contains control flow the conventional tests cannot see (IF
  branches, condensed GOTO cycles) — then the dependence is memory-level
  only and the finding downgrades to ``PAN103`` (the GAR analysis may
  legitimately have used the guards to kill it);
* contradictory proofs among the voters are an internal bug (``PAN302``);
* a pair nobody can decide is recorded as ``PAN102`` so silent
  conservatism stays visible.

Soundness of the auditor itself: the conventional tests assume
loop-invariant symbolic terms, so any pair whose subscripts mention a
scalar written inside the loop is voted *unknown* outright (the value
may differ between the two iterations being compared); dependence proofs
additionally require a unit loop step, a consistent integer distance
across every subscript dimension, and — for dimensions aligned on inner
loop indices — provably non-empty inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from ..dataflow.analyzer import SummaryAnalyzer
from ..dataflow.convert import ConversionContext, to_symexpr
from ..deptest.banerjee import LoopBounds, banerjee_test
from ..deptest.ddg import _numeric_bounds, _scalar_writes
from ..deptest.gcd import gcd_test
from ..deptest.subscript import ArrayReference, collect_references
from ..diagnostics import Diagnostic, Severity, diagnostic_to_dict, resolve_span
from ..driver.panorama import CompilationResult, LoopReport, content_inference
from ..hsg.cfg import FlowGraph
from ..hsg.nodes import CondensedNode, IfConditionNode, LoopNode
from ..parallelize import LoopStatus, find_recurrences
from ..regions import sanitize
from ..symbolic import Comparer, Predicate, SymExpr
from .lint import lint_program

#: vote values
INDEPENDENT = "independent"
DEPENDENT = "dependent"
POSSIBLE = "possible"
UNKNOWN = "unknown"

#: finding kinds → diagnostic codes
KIND_CODES = {
    "confirmed": "PAN101",
    "undecided": "PAN102",
    "guarded": "PAN103",
    "skipped": "PAN104",
    "evidence-replay": "PAN105",
    "oracle-conflict": "PAN302",
    "evidence-unsupported": "PAN305",
}


@dataclass
class AuditFinding:
    """One audited pair (or loop) that produced a diagnostic."""

    kind: str  # 'confirmed' | 'undecided' | 'guarded' | 'skipped' | 'oracle-conflict'
    loop: str  # display id, e.g. "interf/1000"
    routine: str
    lineno: int
    variable: str
    detail: str
    src: str = ""
    dst: str = ""
    votes: dict[str, str] = field(default_factory=dict)

    def message(self) -> str:
        head = {
            "confirmed": (
                f"loop {self.loop} is reported parallel but carries a "
                f"provable cross-iteration dependence on {self.variable}"
            ),
            "guarded": (
                f"loop {self.loop}: memory-level carried dependence on "
                f"{self.variable} under control guards"
            ),
            "undecided": (
                f"loop {self.loop}: no dependence test decides the pair "
                f"on {self.variable}"
            ),
            "skipped": f"loop {self.loop} skipped by the audit",
            "evidence-replay": (
                f"loop {self.loop}: frontier evidence on {self.variable} "
                f"does not replay from the source"
            ),
            "oracle-conflict": (
                f"loop {self.loop}: dependence tests contradict each other "
                f"on {self.variable}"
            ),
            "evidence-unsupported": (
                f"loop {self.loop}: evidence record on {self.variable} has "
                f"a kind the auditor cannot replay"
            ),
        }[self.kind]
        parts = [head]
        if self.src or self.dst:
            parts.append(f"pair {self.src} vs {self.dst}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)

    def to_diagnostic(self, file: str, source: Optional[str]) -> Diagnostic:
        return Diagnostic(
            code=KIND_CODES[self.kind],
            message=self.message(),
            span=resolve_span(file, self.lineno, source),
            data={
                "loop": self.loop,
                "variable": self.variable,
                "votes": dict(self.votes),
            },
        )


@dataclass
class AuditReport:
    """Everything one audit pass over a compilation produced."""

    name: str
    findings: list[AuditFinding] = field(default_factory=list)
    lint: list[Diagnostic] = field(default_factory=list)
    sanitizer: list[Diagnostic] = field(default_factory=list)
    loops_audited: int = 0
    pairs_checked: int = 0
    #: the Fortran source text, for snippet resolution (optional)
    source: Optional[str] = None

    def confirmed(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.kind == "confirmed"]

    def undecided(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.kind == "undecided"]

    def diagnostics(self, source: Optional[str] = None) -> list[Diagnostic]:
        """All findings plus lint and sanitizer output, as diagnostics."""
        source = source if source is not None else self.source
        out = [f.to_diagnostic(self.name, source) for f in self.findings]
        out.extend(self.lint)
        out.extend(self.sanitizer)
        return out

    def errors(self) -> list[Diagnostic]:
        """Error-severity diagnostics (what --strict-audit fails on)."""
        return [d for d in self.diagnostics() if d.level is Severity.ERROR]

    def clean(self) -> bool:
        """No confirmed disagreements and no internal violations?"""
        return not self.errors()

    def counts(self) -> dict[str, int]:
        """Flat counters for telemetry roll-ups."""
        by_kind = {k: 0 for k in KIND_CODES}
        for f in self.findings:
            by_kind[f.kind] += 1
        return {
            "loops_audited": self.loops_audited,
            "pairs_checked": self.pairs_checked,
            "confirmed": by_kind["confirmed"],
            "guarded": by_kind["guarded"],
            "undecided": by_kind["undecided"],
            "skipped": by_kind["skipped"],
            "evidence_replay": by_kind["evidence-replay"],
            "evidence_unsupported": by_kind["evidence-unsupported"],
            "oracle_conflicts": by_kind["oracle-conflict"],
            "lint": len(self.lint),
            "sanitizer": len(self.sanitizer),
        }

    def to_payload(self, source: Optional[str] = None) -> dict[str, Any]:
        """JSON-ready form (ships across the batch worker boundary)."""
        return {
            "counts": self.counts(),
            "clean": self.clean(),
            "diagnostics": [
                diagnostic_to_dict(d) for d in self.diagnostics(source)
            ],
        }

    def summary_line(self) -> str:
        c = self.counts()
        return (
            f"audit: {c['loops_audited']} loop(s), {c['pairs_checked']} "
            f"pair(s): {c['confirmed']} confirmed, {c['guarded']} guarded, "
            f"{c['undecided']} undecided; {c['lint']} lint finding(s)"
        )


# --------------------------------------------------------------------------- #
# control-flow and nesting helpers
# --------------------------------------------------------------------------- #


def _has_control(graph: FlowGraph) -> bool:
    """Does the subgraph (any depth) contain guards the tests cannot see?"""
    for node in graph.nodes:
        if isinstance(node, (IfConditionNode, CondensedNode)):
            return True
        if isinstance(node, LoopNode) and _has_control(node.body):
            return True
    return False


def _inner_loops(loop: LoopNode) -> dict[str, LoopNode]:
    """Loop nodes nested inside *loop*, keyed by index variable."""
    out: dict[str, LoopNode] = {}

    def scan(graph: FlowGraph) -> None:
        for node in graph.nodes:
            if isinstance(node, LoopNode):
                out.setdefault(node.var, node)
                scan(node.body)

    scan(loop.body)
    return out


# --------------------------------------------------------------------------- #
# the distance prover (the voter that can prove *dependence*)
# --------------------------------------------------------------------------- #


def _distance_proof(
    a: ArrayReference,
    b: ArrayReference,
    loop: LoopNode,
    ctx: ConversionContext,
    cmp: Comparer,
    inner: dict[str, LoopNode],
) -> tuple[Optional[bool], str]:
    """Whole-reference cross-iteration proof for the audited loop.

    Returns ``(True, why)`` when a carried dependence provably exists,
    ``(False, why)`` when the pair is provably independent across
    iterations, ``(None, why)`` otherwise.  A dependence proof needs a
    single consistent integer distance pinning *every* dimension (plus
    non-empty inner loops for dimensions aligned on inner indices); a
    refutation needs only one dimension that can never align.
    """
    if len(a.subscripts) != len(b.subscripts):
        return None, "rank mismatch"
    index = loop.var
    lo = to_symexpr(loop.start, ctx)
    hi = to_symexpr(loop.stop, ctx)
    step = (
        to_symexpr(loop.step, ctx) if loop.step is not None else SymExpr.const(1)
    )
    step_val = step.constant_value() if step is not None else None
    unit_step = step_val == 1
    distance: Optional[int] = None
    needs_inner: set[str] = set()
    inner_set = set(inner)

    for s, d in zip(a.subscripts, b.subscripts):
        if s is None or d is None:
            return None, "unanalyzable subscript"
        if not (s.is_linear_in(index) and d.is_linear_in(index)):
            return None, f"non-linear use of {index}"
        ca = s.coeff_of_var(index)
        cb = d.coeff_of_var(index)
        s_rest = s - SymExpr.var(index).scaled(ca)
        d_rest = d - SymExpr.var(index).scaled(cb)
        if ca != cb:
            return None, f"weak-SIV dimension ({ca}*{index} vs {cb}*{index})"
        if ca == 0:
            # dimension invariant in the audited index
            if s == d:
                needs_inner |= (s.free_vars() & inner_set)
                continue
            delta = (s_rest - d_rest).constant_value()
            if delta is not None and delta != 0:
                return False, "loop-invariant dimension never aligns"
            if cmp.eq(s_rest, d_rest) is True:
                needs_inner |= (s.free_vars() | d.free_vars()) & inner_set
                continue
            if cmp.ne(s_rest, d_rest) is True:
                return False, "loop-invariant dimension provably distinct"
            return None, "loop-invariant dimension not provably aligned"
        # strong SIV: ca*i + s_rest == ca*i' + d_rest  ⇒  i - i' = Δ/ca
        dv = (d_rest - s_rest).constant_value()
        if dv is None:
            if cmp.eq(s_rest, d_rest) is True:
                dv = 0
            else:
                return None, "symbolic distance"
        frac = Fraction(dv, ca)
        if frac.denominator != 1:
            return False, "non-integer distance: dimensions never align"
        dk = frac.numerator
        if distance is None:
            distance = dk
        elif distance != dk:
            return False, "inconsistent distances across dimensions"
        needs_inner |= (s_rest.free_vars() | d_rest.free_vars()) & inner_set

    def inner_nonempty() -> Optional[bool]:
        for var in sorted(needs_inner):
            node = inner[var]
            ilo = to_symexpr(node.start, ctx)
            ihi = to_symexpr(node.stop, ctx)
            if ilo is None or ihi is None:
                return None
            istep = (
                to_symexpr(node.step, ctx)
                if node.step is not None
                else SymExpr.const(1)
            )
            if istep is None or istep.constant_value() != 1:
                return None
            if cmp.le(ilo, ihi) is not True:
                return None
        return True

    if distance is None:
        # every dimension aligns independently of the audited index: the
        # same elements are touched by *any* two iterations — dependent
        # as soon as a second iteration provably exists
        if not unit_step:
            return None, "non-unit loop step"
        if lo is None or hi is None:
            return None, "unknown loop bounds"
        if cmp.le(lo + SymExpr.const(1), hi) is not True:
            return None, "second iteration not provable"
        if inner_nonempty() is not True:
            return None, "inner-loop alignment not provable"
        return True, "loop-invariant access repeated every iteration"
    if distance == 0:
        return False, "all dimensions align in the same iteration only"
    if not unit_step:
        return None, "non-unit loop step"
    if lo is None or hi is None:
        return None, "unknown loop bounds"
    span = hi - lo
    within = cmp.le(SymExpr.const(abs(distance)), span)
    if within is False:
        return False, f"distance {distance} exceeds the iteration span"
    if within is not True:
        return None, f"distance {distance} vs unknown span"
    if inner_nonempty() is not True:
        return None, "inner-loop alignment not provable"
    return True, f"carried dependence at distance {distance}"


# --------------------------------------------------------------------------- #
# vote synthesis
# --------------------------------------------------------------------------- #


def classify_votes(votes: dict[str, str]) -> tuple[str, str]:
    """Combine per-test votes into (pair kind, detail).

    Kind is ``'independent'`` (clean), ``'dependent'``, ``'undecided'``,
    or ``'oracle-conflict'`` when proofs contradict.
    """
    provers_ind = [t for t, v in votes.items() if v == INDEPENDENT]
    provers_dep = [t for t, v in votes.items() if v == DEPENDENT]
    if provers_ind and provers_dep:
        return (
            "oracle-conflict",
            f"{'/'.join(provers_dep)} prove dependence but "
            f"{'/'.join(provers_ind)} prove independence",
        )
    if provers_dep:
        return "dependent", f"proved by {'/'.join(provers_dep)}"
    if provers_ind:
        return "independent", f"proved by {'/'.join(provers_ind)}"
    return "undecided", "no test reached a proof"


def _fmt_vote(value: Optional[bool]) -> str:
    if value is False:
        return INDEPENDENT
    if value is True:
        return POSSIBLE
    return UNKNOWN


# --------------------------------------------------------------------------- #
# per-loop audit
# --------------------------------------------------------------------------- #


def _excluded_variables(report: LoopReport) -> set[str]:
    """Variables the transformation story already removes from the race."""
    verdict = report.verdict
    if verdict is None:
        return set()
    return (
        set(verdict.privatized)
        | set(verdict.reductions)
        | set(verdict.inductions)
        # scan variables: the carried flow dependence is real but the
        # two-pass schedule honors it; its *evidence* is replayed
        # separately (PAN105) instead of being re-proved here
        | set(verdict.scans)
    )


def audit_loop(
    analyzer: SummaryAnalyzer,
    unit_name: str,
    loop: LoopNode,
    report: LoopReport,
) -> tuple[list[AuditFinding], int]:
    """Audit one parallel-reported loop; returns (findings, pairs checked)."""
    ctx = analyzer.context_for(unit_name)
    for idx in analyzer.enclosing_indices(unit_name, loop):
        ctx = ctx.with_index(idx)
    lo = to_symexpr(loop.start, ctx)
    hi = to_symexpr(loop.stop, ctx)
    cmp = analyzer.comparer
    if lo is not None and hi is not None:
        # iteration-range context sharpens inner-bound proofs
        iv = SymExpr.var(loop.var)
        cmp = cmp.refine(Predicate.le(lo, iv) & Predicate.le(iv, hi))

    excluded = _excluded_variables(report)
    refs = collect_references(loop, ctx)
    bounds: dict[str, LoopBounds] = _numeric_bounds(loop, ctx)
    inner = _inner_loops(loop)
    written_scalars = _scalar_writes(loop, ctx) - set(inner) - {loop.var}
    guarded = _has_control(loop.body)
    loop_id = report.loop_id()

    findings: list[AuditFinding] = []
    pairs: list[tuple[ArrayReference, ArrayReference]] = []
    seen: set[tuple] = set()
    candidates = [r for r in refs if r.array not in excluded]
    for i, x in enumerate(candidates):
        for y in candidates[i:]:
            if x.array != y.array or not (x.is_write or y.is_write):
                continue
            key = tuple(sorted((str(x), str(y))))
            if key in seen:
                continue
            seen.add(key)
            pairs.append((x, y))

    def note(kind: str, variable: str, detail: str, src="", dst="", votes=None):
        findings.append(
            AuditFinding(
                kind=kind,
                loop=loop_id,
                routine=unit_name,
                lineno=loop.lineno,
                variable=variable,
                detail=detail,
                src=src,
                dst=dst,
                votes=dict(votes or {}),
            )
        )

    indices = {loop.var} | set(inner)
    for x, y in pairs:
        votes: dict[str, str] = {}
        free: set[str] = set()
        for s in x.subscripts + y.subscripts:
            if s is not None:
                free |= s.free_vars()
        varying = free & written_scalars
        if varying:
            # conventional tests assume loop-invariant symbols; a scalar
            # written in the body may differ between the iterations being
            # compared, so no vote below would be trustworthy
            note(
                "undecided",
                x.array,
                f"subscripts use iteration-varying scalar(s) "
                f"{', '.join(sorted(varying))}",
                str(x),
                str(y),
                {"all": UNKNOWN},
            )
            continue
        nest = tuple(dict.fromkeys(x.nest + y.nest))
        votes["gcd"] = _fmt_vote(gcd_test(x.subscripts, y.subscripts, nest))
        votes["banerjee"] = _fmt_vote(
            banerjee_test(x.subscripts, y.subscripts, nest, bounds)
        )
        proof, why = _distance_proof(x, y, loop, ctx, cmp, inner)
        if proof is True:
            votes["distance"] = DEPENDENT
        elif proof is False:
            votes["distance"] = INDEPENDENT
        else:
            votes["distance"] = UNKNOWN
        kind, detail = classify_votes(votes)
        detail = f"{detail}; distance prover: {why}"
        if kind == "independent":
            continue
        if kind == "dependent":
            kind = "guarded" if guarded else "confirmed"
        note(kind, x.array, detail, str(x), str(y), votes)

    # scalars written in a parallel loop that nothing privatized: every
    # iteration hits the same cell — an output race as soon as a second
    # iteration exists
    for name in sorted(written_scalars - excluded - indices):
        detail = "scalar written every iteration without privatization"
        kind = "undecided"
        if (
            lo is not None
            and hi is not None
            and cmp.le(lo + SymExpr.const(1), hi) is True
        ):
            kind = "guarded" if guarded else "confirmed"
            detail += "; a second iteration provably exists"
        note(kind, name, detail, votes={"scalar-output": DEPENDENT})

    return findings, len(pairs)


# --------------------------------------------------------------------------- #
# frontier evidence replay
# --------------------------------------------------------------------------- #


def _replay_evidence(
    result: CompilationResult,
    loop_report: LoopReport,
    node: LoopNode,
    fact_cache: dict[str, list],
) -> list[AuditFinding]:
    """Independently re-derive every evidence record behind a verdict.

    Content facts are re-inferred from the unit source, recurrence
    decompositions re-recognized from the loop body; a record nothing
    re-derives is ``PAN105`` (evidence-replay), a record of unknown kind
    ``PAN305`` (evidence-unsupported).  A scan verdict carrying no
    recurrence record at all is also ``PAN105`` — the schedule has
    nothing to stand on.
    """
    findings: list[AuditFinding] = []
    loop_id = loop_report.loop_id()

    def note(kind: str, variable: str, detail: str) -> None:
        findings.append(
            AuditFinding(
                kind=kind,
                loop=loop_id,
                routine=loop_report.routine,
                lineno=loop_report.lineno,
                variable=variable,
                detail=detail,
            )
        )

    matches = None  # lazy: only recognized when a record needs it
    for payload in loop_report.evidence:
        kind = payload.get("kind")
        if kind == "content":
            unit = payload.get("unit", loop_report.routine)
            if unit not in fact_cache:
                fact_cache[unit] = content_inference().infer_unit(
                    result.analyzed, unit, result.analyzer.options
                )
            if not any(
                f.matches_payload(payload) for f in fact_cache[unit]
            ):
                note(
                    "evidence-replay",
                    payload.get("array", "?"),
                    f"content fact {payload.get('fact')} on "
                    f"{payload.get('array')} not re-derivable from {unit}",
                )
        elif kind == "recurrence":
            if matches is None:
                matches = find_recurrences(node)
            if not any(m.matches_payload(payload) for m in matches):
                note(
                    "evidence-replay",
                    payload.get("variable", "?"),
                    f"recurrence {payload.get('shape')} on "
                    f"{payload.get('variable')} not re-recognizable",
                )
        else:
            note(
                "evidence-unsupported",
                str(payload.get("variable") or payload.get("array") or "?"),
                f"unknown evidence kind {kind!r}",
            )

    if loop_report.status is LoopStatus.PARALLEL_SCAN and not any(
        p.get("kind") == "recurrence" for p in loop_report.evidence
    ):
        note(
            "evidence-replay",
            loop_report.var,
            "scan verdict carries no recurrence evidence",
        )
    return findings


# --------------------------------------------------------------------------- #
# whole-compilation audit
# --------------------------------------------------------------------------- #


def audit_compilation(
    result: CompilationResult,
    name: str,
    run_lint: bool = True,
    source: Optional[str] = None,
) -> AuditReport:
    """Audit every parallel-reported loop of one compilation result."""
    report = AuditReport(name=name, source=source)
    fact_cache: dict[str, list] = {}
    loops = list(result.hsg.all_loops())
    # the pipeline appends reports in hsg.all_loops() order; pair them up
    # defensively by identity fields rather than trusting the zip blindly
    by_key: dict[tuple[str, str, Optional[int], int], LoopNode] = {}
    for unit_name, loop in loops:
        by_key[(unit_name, loop.var, loop.source_label, loop.lineno)] = loop

    for loop_report in result.loops:
        node = by_key.get(
            (
                loop_report.routine,
                loop_report.var,
                loop_report.source_label,
                loop_report.lineno,
            )
        )
        if loop_report.degraded is not None:
            report.findings.append(
                AuditFinding(
                    kind="skipped",
                    loop=loop_report.loop_id(),
                    routine=loop_report.routine,
                    lineno=loop_report.lineno,
                    variable=loop_report.var,
                    detail=f"verdict degraded ({loop_report.degraded})",
                )
            )
            continue
        if not loop_report.parallel or node is None:
            continue
        report.loops_audited += 1
        findings, pairs = audit_loop(
            result.analyzer, loop_report.routine, node, loop_report
        )
        report.findings.extend(findings)
        report.pairs_checked += pairs
        report.findings.extend(
            _replay_evidence(result, loop_report, node, fact_cache)
        )

    if run_lint:
        report.lint = lint_program(result, name, source)
    if sanitize.enabled():
        report.sanitizer = sanitize.drain()
    return report
