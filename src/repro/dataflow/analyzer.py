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
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hsg.builder import HSG
from ..hsg.cfg import FlowGraph
from ..hsg.nodes import IfConditionNode, LoopNode
from ..symbolic import Predicate
from .context import AnalysisOptions, AnalysisStats, LoopSummaryRecord
from .convert import ConversionContext, to_predicate
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


class SummaryAnalyzer:
    """Array dataflow summary computation over a built HSG."""

    def __init__(self, hsg: HSG, options: AnalysisOptions | None = None) -> None:
        self.hsg = hsg
        self.options = options or AnalysisOptions()
        self.comparer = self.options.comparer()
        self.stats = AnalysisStats()
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
                self._routine_cache[unit_name] = provided
                self.provided_summaries.add(unit_name)
                return provided
        if unit_name in self._in_progress:  # guarded by callgraph check too
            from ..errors import CallGraphError

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
        graph = self._containing_graph(unit_name, loop)
        ctx = self.context_for(unit_name)
        for idx in self.enclosing_indices(unit_name, loop):
            ctx = ctx.with_index(idx)
        record: dict = {}
        self.sum_segment(graph, ctx, record_below=record)
        return record.get(loop, Summary.empty())

    def _containing_graph(self, unit_name: str, loop: LoopNode) -> FlowGraph:
        def rec(graph: FlowGraph) -> Optional[FlowGraph]:
            for node in graph.nodes:
                if node is loop:
                    return graph
                if isinstance(node, LoopNode):
                    found = rec(node.body)
                    if found is not None:
                        return found
            return None

        found = rec(self.hsg.graph(unit_name))
        if found is None:
            raise KeyError(f"loop {loop.describe()} not in {unit_name}")
        return found

    # -- loop lookup helpers -----------------------------------------------------------------

    def loop_record(
        self, unit_name: str, loop: LoopNode
    ) -> LoopSummaryRecord:
        """Loop summary with the enclosing-context indices reconstructed."""
        ctx = self.context_for(unit_name)
        for enclosing in self.enclosing_indices(unit_name, loop):
            ctx = ctx.with_index(enclosing)
        return self.loop_summary(loop, ctx)

    def enclosing_indices(self, unit_name: str, loop: LoopNode) -> list[str]:
        """Index variables of loops enclosing *loop* in its routine,
        outermost first — the indices a conversion context must activate
        before summarizing the loop."""
        out: list[str] = []

        def rec(graph: FlowGraph, stack: list[str]) -> Optional[list[str]]:
            for node in graph.nodes:
                if node is loop:
                    return stack
                if isinstance(node, LoopNode):
                    found = rec(node.body, stack + [node.var])
                    if found is not None:
                        return found
            return None

        found = rec(self.hsg.graph(unit_name), [])
        return found if found is not None else out

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
        by_id: dict[int, tuple[str, LoopNode]] = {}
        for unit in self.hsg.analyzed.program.units:

            def rec(graph: FlowGraph, unit_name: str) -> None:
                for node in graph.nodes:
                    if isinstance(node, LoopNode):
                        by_id[node.node_id] = (unit_name, node)
                        rec(node.body, unit_name)

            rec(self.hsg.graph(unit.name), unit.name)
        out: dict[LoopKey, LoopSummaryRecord] = {}
        for (node_id, active), record in self._loop_cache.items():
            located = by_id.get(node_id)
            if located is None:
                continue
            unit_name, loop = located
            out[self.loop_key(unit_name, loop, active)] = record
        return out
