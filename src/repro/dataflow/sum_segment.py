"""``SUM_segment``: backward propagation over a flow subgraph (section 4.1).

Nodes are visited in reverse topological order (the subgraph is a DAG).
For each node::

    mod_in(n) = F_n( U_{p in succ(n)} mod_in(p) )
    ue_in(n)  = F_n( U_{p in succ(n)} ue_in(p) )

where ``F_n`` is the node transfer (basic block, loop, call, condensed),
and — the heart of the paper — contributions reaching an IF-condition node
through its True/False edges are first qualified by the condition (or its
negation) as a guard.
"""

from __future__ import annotations

from ..errors import AnalysisError
from ..fortran.ast_nodes import Apply, Assign, IoStmt, NameRef
from ..fortran.semantics import function_refs
from ..hsg.cfg import FlowGraph, walk_cycle
from ..hsg.nodes import (
    BasicBlockNode,
    CallNode,
    CondensedNode,
    EntryNode,
    ExitNode,
    HSGNode,
    IfConditionNode,
    LoopNode,
)
from ..regions import GAR, GARList
from ..regions.gar_ops import union_lists
from ..regions.gar_simplify import simplify_gar_list
from ..symbolic import Predicate
from .convert import ConversionContext
from .summary import Summary, collect_uses, scalar_gar
from .sum_bb import transfer_basic_block
from .sum_call import opaque_call, transfer_call, transfer_functions
from .sum_loop import transfer_loop


def sum_segment(
    analyzer,
    graph: FlowGraph,
    ctx: ConversionContext,
    record_below: dict[HSGNode, Summary] | None = None,
) -> Summary:
    """Propagate (MOD, UE) backward from exit to entry; returns the
    summary at the entry point.

    When *record_below* is given, it is filled with each node's merged
    successor summary — "what the rest of the segment still reads/writes
    below this node" — which the copy-out analysis consumes.
    """
    cmp = analyzer.comparer
    summaries: dict[HSGNode, Summary] = {}
    for node in graph.reverse_topological():
        analyzer.stats.nodes_visited += 1
        mod_below = GARList.empty()
        ue_below = GARList.empty()
        branch_pred: Predicate | None = None
        if isinstance(node, IfConditionNode):
            branch_pred = analyzer.condition_predicate(node, ctx)
        for succ, label in graph.succs(node):
            contribution = summaries[succ]
            if branch_pred is not None and label is not None:
                guard = branch_pred if label else branch_pred.negate()
                contribution = Summary(
                    contribution.mod.and_guard(guard),
                    contribution.ue.and_guard(guard),
                )
            mod_below = mod_below.union(contribution.mod)
            ue_below = ue_below.union(contribution.ue)
        mod_below = simplify_gar_list(mod_below, cmp)
        ue_below = simplify_gar_list(ue_below, cmp)
        below = Summary(mod_below, ue_below)
        if record_below is not None:
            record_below[node] = below
        summaries[node] = _transfer(analyzer, node, below, ctx)
    if graph.entry not in summaries:
        raise AnalysisError("flow subgraph without reachable entry")
    return summaries[graph.entry]


def _transfer(
    analyzer, node: HSGNode, below: Summary, ctx: ConversionContext
) -> Summary:
    if isinstance(node, (EntryNode, ExitNode)):
        return below
    if isinstance(node, BasicBlockNode):
        return transfer_basic_block(analyzer, node, below, ctx)
    if isinstance(node, IfConditionNode):
        # the condition itself reads its operands before branching
        uses = collect_uses(node.cond, ctx)
        return transfer_functions(
            analyzer,
            [node.cond],
            Summary(below.mod, union_lists(below.ue, uses, analyzer.comparer)),
            ctx,
        )
    if isinstance(node, LoopNode):
        return transfer_loop(analyzer, node, below, ctx)
    if isinstance(node, CallNode):
        return transfer_call(analyzer, node, below, ctx)
    if isinstance(node, CondensedNode):
        return _transfer_condensed(analyzer, node, below, ctx)
    raise AnalysisError(f"no transfer for node kind {node.kind}")


def _transfer_condensed(
    analyzer, node: CondensedNode, below: Summary, ctx: ConversionContext
) -> Summary:
    """Conservative summary for a condensed backward-GOTO cycle: every
    array referenced inside is wholly read and written (Ω), every scalar
    assigned inside has an unknown value and cell state.  A call or a
    user FUNCTION reference inside counts as an opaque call: its
    arguments and every COMMON name."""
    arrays: set[str] = set()
    scalars_written: set[str] = set()
    scalars_read: set[str] = set()

    def opaque(site) -> None:
        # what any callee may do: its arguments and the COMMON names
        effect = opaque_call(site, ctx)
        for gars, scalars in ((effect.mod, scalars_written),
                              (effect.ue, scalars_read)):
            for gar in gars:
                names = arrays if ctx.table.is_array(gar.array) else scalars
                names.add(gar.array)

    def scan_expr(expr) -> None:
        for sub in expr.walk():
            if isinstance(sub, Apply) and sub.is_array:
                arrays.add(sub.name)
            elif isinstance(sub, Apply) and sub.name in ctx.table.functions:
                opaque(sub)
            elif isinstance(sub, NameRef):
                if ctx.table.is_array(sub.name):
                    arrays.add(sub.name)
                elif sub.name != "*":
                    scalars_read.add(sub.name)

    for member, _ in walk_cycle(node):
        if isinstance(member, BasicBlockNode):
            for stmt in member.stmts:
                if isinstance(stmt, Assign):
                    scan_expr(stmt.value)
                    if isinstance(stmt.target, Apply):
                        arrays.add(stmt.target.name)
                        for arg in stmt.target.args:
                            scan_expr(arg)
                    else:
                        scalars_written.add(stmt.target.name)
                elif isinstance(stmt, IoStmt):
                    for item in stmt.items:
                        scan_expr(item)
                        if stmt.kind == "read":
                            if isinstance(item, Apply):
                                arrays.add(item.name)
                            elif isinstance(item, NameRef):
                                if ctx.table.is_array(item.name):
                                    arrays.add(item.name)
                                else:
                                    scalars_written.add(item.name)
        elif isinstance(member, IfConditionNode):
            scan_expr(member.cond)
        elif isinstance(member, LoopNode):
            scalars_written.add(member.var)
            scan_expr(member.start)
            scan_expr(member.stop)
            if member.step is not None:
                scan_expr(member.step)
        elif isinstance(member, CallNode):
            opaque(member)
            for ref in function_refs(member.call.args):
                opaque(ref)

    cmp = analyzer.comparer
    mod = GARList.empty()
    ue = GARList.empty()
    for array in sorted(arrays):
        rank = ctx.table.arrays[array].rank if array in ctx.table.arrays else 1
        omega = GAR.omega(array, rank)
        mod = mod.add(omega)
        ue = ue.add(omega)
    for name in sorted(scalars_written):
        mod = mod.add(scalar_gar(name).inexact())
    for name in sorted(scalars_read | scalars_written):
        ue = ue.add(scalar_gar(name))
    bindings = {n: ctx.fresh_opaque(n) for n in sorted(scalars_written)}
    below = below.substitute(bindings)
    mod_in = union_lists(mod, below.mod, cmp)
    ue_in = union_lists(ue, below.ue, cmp)  # inexact mod: no kills
    return Summary(mod_in, ue_in)
