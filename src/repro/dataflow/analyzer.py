"""The symbolic array dataflow analyzer: ties the SUM_* algorithms together.

:class:`SummaryAnalyzer` owns the HSG, the analysis options (the T1/T2/T3
toggles of Table 1), the comparer, and the caches:

* ``routine_summary(name)`` — the interprocedural (MOD, UE) of a whole
  routine in terms of its formals and COMMON names (computed once,
  bottom-up over the acyclic call graph);
* ``loop_summary(loop)`` — the full per-loop record (``MOD_i``, ``UE_i``,
  ``MOD_{<i}``, ``MOD_{>i}``, ``MOD``, ``UE``) used by the privatization
  and parallelization clients;
* ``condition_predicate(node)`` — the guard of an IF-condition node.

Fresh symbols (``hint@N`` opaques, ``i%N`` index renames) are numbered
per analyzer, from 1: recompiling an unchanged program asks the same
symbolic questions, so the process's memo tables answer them.  An entry
served by a provider was numbered by another compile, so its symbols
are renamed apart before use (:func:`rename_apart`).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterator, Optional

from ..errors import CallGraphError
from ..hsg.builder import HSG
from ..hsg.cfg import FlowGraph
from ..hsg.nodes import IfConditionNode, LoopNode
from ..symbolic import Comparer, Predicate, SymExpr
from .context import LoopSummaryRecord
from .convert import ConversionContext, to_predicate
from .options import AnalysisOptions, AnalysisStats
from .summary import Summary
from .sum_loop import summarize_loop
from .sum_segment import sum_segment

#: stable identity of one loop summary across processes: the routine, the
#: loop header (variable, source label, routine-relative line), and the
#: active enclosing indices — everything the record depends on besides
#: the source text
LoopKey = tuple[str, str, Optional[int], int, frozenset[str]]

#: seam for injecting externally cached routine summaries (engine cache)
SummaryProvider = Callable[[str], Optional[Summary]]
#: seam for injecting externally cached per-loop summary records
LoopRecordProvider = Callable[[LoopKey], Optional[LoopSummaryRecord]]


def rename_apart(entry, numbering: Iterator[int]):
    """*entry* (a :class:`Summary` or :class:`LoopSummaryRecord` that
    another compile numbered) with each of its fresh symbols renamed to
    a new one of *numbering*: one mapping per entry, in sorted order,
    each keeping its hint and separator.  Returns *entry* itself when it
    holds no fresh symbol."""
    symbolic = {}  # the SymExpr and GARList fields
    for f in dataclasses.fields(entry):
        value = getattr(entry, f.name)
        if hasattr(value, "free_vars"):
            symbolic[f.name] = value
    symbols = set().union(*(value.free_vars() for value in symbolic.values()))
    mapping = {}
    for name in sorted(n for n in symbols if "@" in n or "%" in n):
        sep = "@" if "@" in name else "%"
        hint = name.rpartition(sep)[0]
        mapping[name] = SymExpr.var(f"{hint}{sep}{next(numbering)}")
    if not mapping:
        return entry
    return dataclasses.replace(
        entry, **{n: value.substitute(mapping) for n, value in symbolic.items()}
    )


class SummaryAnalyzer:
    """Array dataflow summary computation over a built HSG."""

    def __init__(self, hsg: HSG, options: AnalysisOptions | None = None) -> None:
        self.hsg = hsg
        self.options = options or AnalysisOptions()
        self.comparer = Comparer(
            use_fm=self.options.use_fm, symbolic=self.options.symbolic
        )
        self.stats = AnalysisStats()
        #: this compile's fresh-symbol numbering (see the module docstring)
        self._numbering = itertools.count(1)
        self._routine_cache: dict[str, Summary] = {}
        self._loop_cache: dict[tuple[int, frozenset[str]], LoopSummaryRecord] = {}
        self._cond_cache: dict[tuple[int, frozenset[str]], Predicate] = {}
        self._in_progress: set[str] = set()
        #: external caches consulted before computing (None → always compute)
        self.summary_provider: Optional[SummaryProvider] = None
        self.loop_record_provider: Optional[LoopRecordProvider] = None
        #: content-domain facts (repro.contents.ContentFacts) installed by
        #: the frontier pass; per-unit derived index-array forms and guard
        #: bounds are merged into every conversion context.  Facts are a
        #: pure function of each unit's own source + options, so summary
        #: fingerprints stay valid (docs/frontier.md)
        self.content_facts = None
        #: routines/loops served by a provider rather than computed here
        self.provided_summaries: set[str] = set()
        self.provided_loop_records: set[LoopKey] = set()

    # -- contexts ------------------------------------------------------------------

    def context_for(self, unit_name: str) -> ConversionContext:
        """A fresh conversion context for one routine."""
        forms = dict(self.options.index_array_forms)
        bounds = {}
        if self.content_facts is not None:
            # hand-supplied forms take precedence over derived ones
            for name, form in self.content_facts.forms_for(unit_name).items():
                forms.setdefault(name, form)
            bounds = self.content_facts.bounds_for(unit_name)
        return ConversionContext(
            table=self.hsg.analyzed.table(unit_name),
            symbolic=self.options.symbolic,
            if_conditions=self.options.if_conditions,
            index_array_forms=forms,
            content_bounds=bounds,
            numbering=self._numbering,
        )

    # -- cached computations ----------------------------------------------------------

    def routine_summary(self, unit_name: str) -> Summary:
        """(MOD, UE) of a whole routine, in terms of formals and COMMONs."""
        cached = self._routine_cache.get(unit_name)
        if cached is not None:
            return cached
        if self.summary_provider is not None:
            provided = self.summary_provider(unit_name)
            if provided is not None:
                provided = rename_apart(provided, self._numbering)
                self._routine_cache[unit_name] = provided
                self.provided_summaries.add(unit_name)
                return provided
        if unit_name in self._in_progress:  # guarded by callgraph check too
            raise CallGraphError(f"recursive summary request for {unit_name}")
        self._in_progress.add(unit_name)
        try:
            graph = self.hsg.graph(unit_name)
            summary = self.sum_segment(graph, self.context_for(unit_name))
        finally:
            self._in_progress.discard(unit_name)
        self._routine_cache[unit_name] = summary
        self.stats.routines_summarized += 1
        return summary

    def loop_summary(
        self, loop: LoopNode, ctx: ConversionContext
    ) -> LoopSummaryRecord:
        """The cached LoopSummaryRecord of a loop in context."""
        key = (loop.node_id, ctx.active_indices)
        cached = self._loop_cache.get(key)
        if cached is None and self.loop_record_provider is not None:
            stable = self.loop_key(ctx.table.unit.name, loop, ctx.active_indices)
            cached = self.loop_record_provider(stable)
            if cached is not None:
                cached = rename_apart(cached, self._numbering)
                self.provided_loop_records.add(stable)
                self._loop_cache[key] = cached
        if cached is None:
            cached = summarize_loop(self, loop, ctx)
            self._loop_cache[key] = cached
        return cached

    def condition_predicate(
        self, node: IfConditionNode, ctx: ConversionContext
    ) -> Predicate:
        """The (cached) guard of an IF-condition node."""
        key = (node.node_id, ctx.active_indices)
        cached = self._cond_cache.get(key)
        if cached is None:
            cached = to_predicate(node.cond, ctx)
            self._cond_cache[key] = cached
        return cached

    # -- propagation -----------------------------------------------------------------------

    def sum_segment(
        self,
        graph: FlowGraph,
        ctx: ConversionContext,
        record_below=None,
    ) -> Summary:
        """Backward (MOD, UE) propagation over a subgraph."""
        return sum_segment(self, graph, ctx, record_below)

    def below_summary(self, unit_name: str, loop: LoopNode) -> Summary:
        """What the program still reads/writes after *loop* completes,
        within its containing flow subgraph (for copy-out analysis)."""
        enclosing = self.hsg.enclosing[loop]
        graph = enclosing[-1].body if enclosing else self.hsg.graph(unit_name)
        record: dict = {}
        self.sum_segment(graph, self.loop_context(unit_name, loop), record)
        return record.get(loop, Summary.empty())

    # -- loop lookup helpers -----------------------------------------------------------------

    def loop_record(
        self, unit_name: str, loop: LoopNode
    ) -> LoopSummaryRecord:
        """Loop summary with the enclosing-context indices reconstructed."""
        return self.loop_summary(loop, self.loop_context(unit_name, loop))

    def loop_context(self, unit_name: str, loop: LoopNode) -> ConversionContext:
        """The routine's conversion context with the indices of the loops
        enclosing *loop* active: the context *loop* is analyzed in."""
        ctx = self.context_for(unit_name)
        for outer in self.hsg.enclosing[loop]:
            ctx = ctx.with_index(outer.var)
        return ctx

    # -- cache interchange (the engine's summary-provider seam) -----------------------

    def loop_key(
        self, unit_name: str, loop: LoopNode, active: frozenset[str]
    ) -> LoopKey:
        """Process-stable identity of one loop summary (unlike
        ``node_id``, which depends on construction order).

        The line position is *routine-relative*: a routine embedded at
        any file offset keys its loops identically, so records computed
        for a standalone library item serve callers that concatenate
        the same routine after a driver.
        """
        unit = self.hsg.analyzed.program.unit(unit_name)
        return (
            unit_name,
            loop.var,
            loop.source_label,
            loop.lineno - unit.lineno,
            active,
        )

    def export_routine_summaries(self) -> dict[str, Summary]:
        """Snapshot of every routine summary computed (or provided) so far."""
        return dict(self._routine_cache)

    def export_loop_records(self) -> dict[LoopKey, LoopSummaryRecord]:
        """Stable-keyed snapshot of every loop summary computed so far."""
        by_id = {
            loop.node_id: (unit_name, loop)
            for unit_name, loop in self.hsg.all_loops()
        }
        out: dict[LoopKey, LoopSummaryRecord] = {}
        for (node_id, active), record in self._loop_cache.items():
            located = by_id.get(node_id)
            if located is None:
                continue
            unit_name, loop = located
            out[self.loop_key(unit_name, loop, active)] = record
        return out
