"""Empirical validation of the analysis against concrete executions.

The strongest form of testing this reproduction has: run a kernel in the
concrete interpreter, collect its per-iteration access trace for a chosen
DO loop, and check the symbolic analysis' claims against reality:

1. **MOD_i over-approximates** — every location actually written in
   iteration ``i`` lies in the symbolic ``MOD_i`` evaluated at ``i``;
2. **UE_i over-approximates** — every location read in iteration ``i``
   before being written in that iteration lies in the symbolic ``UE_i``;
3. **privatization soundness** — if the analysis declares a variable
   privatizable, the trace contains no cross-iteration flow: no exposed
   read of a location last written by an *earlier* iteration.

Symbolic sets are evaluated extensionally under the loop-entry values of
the routine's scalars.  A GAR whose guard or region mentions symbols with
no concrete value (opaque ``@`` symbols) cannot be enumerated; it is
treated as "may cover anything", which can only make checks 1–2 pass
vacuously for that variable — recorded as ``skipped`` so tests can
require a minimum of non-vacuous coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .contents import Monotone, infer_program, infer_unit
from .dataflow import SummaryAnalyzer
from .dataflow.context import LoopSummaryRecord
from .fortran import analyze, parse_program
from .hsg import build_hsg
from .interp import AccessEvent, ArrayStorage, Interpreter
from .privatize import privatize_loop
from .regions import GARList


@dataclass
class IterationTrace:
    """Accesses of one iteration of the target loop, per variable name."""

    index_value: int
    writes: dict[str, set[tuple[int, ...]]] = field(default_factory=dict)
    exposed_reads: dict[str, set[tuple[int, ...]]] = field(default_factory=dict)


@dataclass
class ValidationReport:
    routine: str
    var: str
    iterations: list[IterationTrace]
    #: claim violations, each a human-readable string; empty = validated
    violations: list[str] = field(default_factory=list)
    #: per-variable checks skipped because a summary GAR was not
    #: concretely evaluable (opaque symbols)
    skipped: set[str] = field(default_factory=set)
    #: variables with fully validated MOD_i/UE_i containment
    checked: set[str] = field(default_factory=set)
    #: privatizable variables whose traces were verified flow-free
    privatization_checked: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.violations


class _LoopTraceCollector:
    """Observer assigning access events to iterations of one target loop."""

    def __init__(self, target_loop) -> None:
        self.target_loop = target_loop
        self.iterations: list[IterationTrace] = []
        self.current: Optional[IterationTrace] = None
        self._written_this_iter: set[tuple[int, tuple]] = set()
        #: (storage id, index) -> index of the iteration that last wrote it
        self.last_writer: dict[tuple[int, tuple], int] = {}
        #: exposed reads whose location was written by an earlier iteration
        self.cross_iteration_flow: dict[str, set[tuple]] = {}
        self._names: dict[int, str] = {}
        #: strong references to every observed storage object: ``id()``
        #: values must stay unique for the whole run (short-lived callee
        #: locals would otherwise free their ids for later storages)
        self._storages: dict[int, object] = {}

    # -- interpreter hooks ---------------------------------------------------

    def loop_hook(self, routine: str, loop, value: int, phase: str) -> None:
        if loop is not self.target_loop:
            return
        if phase == "iter":
            self.current = IterationTrace(value)
            self.iterations.append(self.current)
            self._written_this_iter = set()
        else:  # exit
            self.current = None
            # instance boundary: for an inner loop re-entered by an outer
            # iteration, writes from a previous dynamic instance reach a
            # later instance's reads from *outside* the loop (privatization
            # covers them by copy-in) — only same-instance producers count
            # as loop-carried flow
            self.last_writer = {}

    def observe(self, event: AccessEvent) -> None:
        if self.current is None:
            return
        sid = id(event.storage)
        self._storages.setdefault(sid, event.storage)
        self._names.setdefault(sid, event.name)
        # scalars are modeled as rank-1 single-cell regions by the analysis
        index = event.index if event.is_array else (1,)
        key = (sid, index)
        if event.kind == "write":
            self.current.writes.setdefault(sid, set()).add(index)
            self._written_this_iter.add(key)
            self.last_writer[key] = len(self.iterations) - 1
            return
        if key not in self._written_this_iter:
            self.current.exposed_reads.setdefault(sid, set()).add(index)
            writer = self.last_writer.get(key)
            if writer is not None and writer < len(self.iterations) - 1:
                self.cross_iteration_flow.setdefault(sid, set()).add(index)

    def finalize(self, name_of: dict[int, str]) -> None:
        """Re-key every trace from storage identity to *caller* names.

        Accesses to storage invisible in the target routine's frame
        (callee locals and temporaries) are dropped — they have no
        caller-visible summary by design.
        """

        def rekey(table: dict) -> dict:
            out: dict[str, set] = {}
            for sid, indices in table.items():
                name = name_of.get(sid)
                if name is not None:
                    out.setdefault(name, set()).update(indices)
            return out

        for trace in self.iterations:
            trace.writes = rekey(trace.writes)
            trace.exposed_reads = rekey(trace.exposed_reads)
        self.cross_iteration_flow = rekey(self.cross_iteration_flow)


def _enumerate_gars(
    gars: GARList, env: Mapping[str, int]
) -> Optional[set[tuple[int, ...]]]:
    """Concrete element set, or ``None`` if any GAR is unevaluable."""
    out: set[tuple[int, ...]] = set()
    for gar in gars:
        if gar.guard.is_unknown() or not gar.region.is_fully_known():
            return None
        try:
            if not gar.guard.evaluate(env):
                continue
            out |= gar.region.enumerate(env)
        except KeyError:
            return None  # a symbol (e.g. an opaque) has no concrete value
    return out


def validate_loop(
    source: str,
    routine: str,
    var: str,
    args: Mapping[str, object],
    env: Mapping[str, int] | None = None,
    occurrence: int = 0,
    options=None,
) -> ValidationReport:
    """Run *routine* concretely and validate the analysis of loop *var*.

    ``args`` are the concrete dummy-argument values; ``env`` supplies the
    integer/logical bindings used to evaluate symbolic summaries (defaults
    to the integer- and bool-valued entries of ``args``); ``occurrence``
    selects among several loops sharing the index variable name;
    ``options`` configures the analysis (frontier content facts are
    inferred and installed when it enables them).
    """
    analyzed = analyze(parse_program(source))
    hsg = build_hsg(analyzed)
    matching = [
        (unit, loop)
        for unit, loop in hsg.all_loops()
        if unit == routine and loop.var == var
    ]
    if occurrence >= len(matching):
        raise ValueError(f"no loop {routine}/{var} (occurrence {occurrence})")
    unit, target = matching[occurrence]

    collector = _LoopTraceCollector(target)
    interp = Interpreter(
        analyzed,
        observer=collector.observe,
        loop_hook=collector.loop_hook,
        hsg=hsg,
    )
    frame = interp.run_routine(routine, **args)
    name_of = {id(storage): name for name, storage in frame.storage.items()}
    collector.finalize(name_of)

    analyzer = SummaryAnalyzer(hsg, options)
    if analyzer.options.frontier and analyzer.options.symbolic:
        infer_program(analyzed, analyzer.options).install(analyzer)
    record: LoopSummaryRecord = analyzer.loop_record(unit, target)
    enclosing = set(analyzer.enclosing_indices(unit, target))

    if env is None:
        env = {
            k: int(v)
            for k, v in args.items()
            if isinstance(v, (int, bool)) and not isinstance(v, float)
        }
    report = ValidationReport(routine, var, collector.iterations)

    names = set()
    for trace in collector.iterations:
        names |= set(trace.writes) | set(trace.exposed_reads)
    names.discard(var)  # the target loop's own header maintains its index
    names -= enclosing  # enclosing indices are implicitly private
    for name in sorted(names):
        _check_containment(report, record, name, env)

    table = analyzed.table(routine)
    privatization = privatize_loop(record, table, analyzer.comparer)
    for verdict in privatization.verdicts:
        if not verdict.privatizable:
            continue
        flowed = collector.cross_iteration_flow.get(verdict.name)
        if flowed:
            report.violations.append(
                f"{verdict.name} declared privatizable but iteration trace "
                f"shows cross-iteration flow at {sorted(flowed)[:5]}"
            )
        else:
            report.privatization_checked.add(verdict.name)
    return report


def _check_containment(
    report: ValidationReport,
    record: LoopSummaryRecord,
    name: str,
    base_env: Mapping[str, int],
) -> None:
    mod_i = record.mod_i.for_array(name)
    ue_i = record.ue_i.for_array(name)
    fully_checked = True
    for trace in report.iterations:
        env = dict(base_env)
        env[record.var] = trace.index_value
        symbolic_mod = _enumerate_gars(mod_i, env)
        actual_writes = trace.writes.get(name, set())
        if symbolic_mod is None:
            fully_checked = False
        elif not actual_writes <= symbolic_mod:
            extra = sorted(actual_writes - symbolic_mod)[:5]
            report.violations.append(
                f"MOD_{record.var}({name}) at {record.var}="
                f"{trace.index_value} misses writes {extra}"
            )
        symbolic_ue = _enumerate_gars(ue_i, env)
        actual_exposed = trace.exposed_reads.get(name, set())
        if symbolic_ue is None:
            fully_checked = False
        elif not actual_exposed <= symbolic_ue:
            extra = sorted(actual_exposed - symbolic_ue)[:5]
            report.violations.append(
                f"UE_{record.var}({name}) at {record.var}="
                f"{trace.index_value} misses exposed reads {extra}"
            )
    if fully_checked and report.iterations:
        report.checked.add(name)
    elif report.iterations:
        report.skipped.add(name)


# --------------------------------------------------------------------------- #
# frontier validation: content facts and scan decompositions
# --------------------------------------------------------------------------- #


def validate_content_facts(
    source: str,
    routine: str,
    args: Mapping[str, object],
    env: Mapping[str, int] | None = None,
    options=None,
) -> list[str]:
    """Check every inferred content fact against a concrete execution.

    Runs *routine* in the interpreter, then verifies each fact of the
    content domain as an invariant of the final storage: affine facts
    must predict every segment cell exactly, bounds facts must contain
    every cell, monotone facts must hold between consecutive cells.
    Returns the violations (empty = all facts validated).
    """
    analyzed = analyze(parse_program(source))
    facts = infer_unit(analyzed, routine, options)
    hsg = build_hsg(analyzed)
    interp = Interpreter(analyzed, hsg=hsg)
    frame = interp.run_routine(routine, **args)
    if env is None:
        env = {
            k: int(v)
            for k, v in args.items()
            if isinstance(v, (int, bool)) and not isinstance(v, float)
        }

    violations: list[str] = []
    for fact in facts:
        storage = frame.storage.get(fact.array)
        if not isinstance(storage, ArrayStorage):
            violations.append(f"{fact.array}: no array storage after run")
            continue
        try:
            lo = fact.seg_lo.evaluate_int(env)
            hi = fact.seg_hi.evaluate_int(env)
        except Exception:
            violations.append(
                f"{fact.array}: segment [{fact.seg_lo}, {fact.seg_hi}] "
                f"not evaluable under {dict(env)}"
            )
            continue
        cells = []
        for k in range(lo, hi + 1):
            value = storage.cells.get((k,))
            if value is None:
                violations.append(
                    f"{fact.array}({k}): cell in claimed segment never "
                    f"written"
                )
                break
            cells.append((k, Fraction(value) if not isinstance(
                value, bool) else Fraction(int(value))))
        else:
            violations.extend(_check_fact_cells(fact, cells, env))
    return violations


def _check_fact_cells(fact, cells, env) -> list[str]:
    out: list[str] = []
    if fact.kind == "affine":
        base = fact.base.evaluate(env)
        for k, value in cells:
            expected = fact.coeff * k + base
            if value != expected:
                out.append(
                    f"{fact.array}({k}) = {value}, affine form predicts "
                    f"{expected}"
                )
    if fact.value_lo is not None and fact.value_hi is not None:
        for k, value in cells:
            if not (fact.value_lo <= value <= fact.value_hi):
                out.append(
                    f"{fact.array}({k}) = {value} outside "
                    f"[{fact.value_lo}, {fact.value_hi}]"
                )
    if fact.kind == "monotone" and fact.delta is not None:
        for (k1, v1), (k2, v2) in zip(cells, cells[1:]):
            if v2 - v1 != fact.delta:
                out.append(
                    f"{fact.array}({k2}) - {fact.array}({k1}) = {v2 - v1}, "
                    f"recurrence step is {fact.delta}"
                )
    checks = {
        Monotone.STRICT_INC: lambda a, b: b > a,
        Monotone.STRICT_DEC: lambda a, b: b < a,
        Monotone.NONDECREASING: lambda a, b: b >= a,
        Monotone.NONINCREASING: lambda a, b: b <= a,
        Monotone.CONSTANT: lambda a, b: b == a,
    }
    check = checks.get(fact.mono)
    if check is not None:
        for (k1, v1), (k2, v2) in zip(cells, cells[1:]):
            if not check(v1, v2):
                out.append(
                    f"{fact.array}({k1}..{k2}) violates {fact.mono.value}"
                )
    return out


_SCAN_OPS = {
    "+": (lambda a, b: a + b, 0),
    "*": (lambda a, b: a * b, 1),
    "min": (min, None),
    "max": (max, None),
}


def blocked_scan(op: str, seed, increments: list, chunks: int = 3) -> list:
    """Reference two-pass execution of ``x_k = x_{k-1} ⊕ inc_k``.

    Phase 1 computes each chunk's local fold of its increment slice;
    phase 2 folds the chunk summaries serially into incoming prefixes;
    phase 3 finalizes each chunk independently.  Returns the running
    values (one per increment), which must equal the sequential scan —
    this is the associativity argument PARALLEL_SCAN verdicts rest on.
    """
    fold, identity = _SCAN_OPS[op]
    n = len(increments)
    chunks = max(1, min(chunks, n)) if n else 1
    bounds = [
        (i * n // chunks, (i + 1) * n // chunks) for i in range(chunks)
    ]
    totals = []
    for start, end in bounds:
        acc = None
        for inc in increments[start:end]:
            acc = inc if acc is None else fold(acc, inc)
        totals.append(acc)
    out: list = [None] * n
    incoming = seed
    for (start, end), total in zip(bounds, totals):
        acc = incoming
        for k in range(start, end):
            acc = fold(acc, increments[k])
            out[k] = acc
        if total is not None:
            incoming = fold(incoming, total)
    return out


def blocked_affine_scan(
    pairs: list[tuple], seed, chunks: int = 3
) -> list:
    """Reference two-pass execution of ``x_k = a_k * x_{k-1} + b_k``.

    Affine maps compose associatively: ``(a2, b2) ∘ (a1, b1) =
    (a2*a1, a2*b1 + b2)`` — each chunk composes its maps locally, chunk
    compositions fold serially into incoming values, chunks finalize
    independently.
    """
    n = len(pairs)
    chunks = max(1, min(chunks, n)) if n else 1
    bounds = [
        (i * n // chunks, (i + 1) * n // chunks) for i in range(chunks)
    ]
    composed = []
    for start, end in bounds:
        ca, cb = 1, 0
        for a, b in pairs[start:end]:
            ca, cb = a * ca, a * cb + b
        composed.append((ca, cb))
    out: list = [None] * n
    incoming = seed
    for (start, end), (ca, cb) in zip(bounds, composed):
        x = incoming
        for k in range(start, end):
            a, b = pairs[k]
            x = a * x + b
            out[k] = x
        incoming = ca * incoming + cb
    return out
