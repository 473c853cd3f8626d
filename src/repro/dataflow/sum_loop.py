"""``SUM_loop``: loop-node summaries via expansion (paper section 4.1).

Iteration-varying scalars.  A scalar assigned inside the body whose
symbol leaks into the body summary denotes its *iteration-start* value,
which differs from iteration to iteration — treating it as a single
symbol across the expansion would be unsound.  Following the paper's
section 5.2 ("for induction variables, we first convert them to
expressions of index variables"):

* a recognized basic induction variable (single unconditional
  ``v = v ± c`` with loop-invariant ``c``) is replaced by its closed form
  ``v + c * (i - lo) / step`` before expansion — exact;
* any other leaked iteration-varying scalar makes the affected dimensions
  Ω and drops the affected guard clauses (a sound over-approximation,
  marked inexact).


Computes, for a DO node, the per-iteration sets ``MOD_i``/``UE_i`` (by
summarizing the body subgraph), the prior/later iteration sets
``MOD_{<i}``/``MOD_{>i}`` (by renaming the index and expanding over the
prior/later iteration subranges), and the whole-loop ``MOD``/``UE``::

    ue_i_out = UE_i - MOD_{<i}          # uses fed by earlier iterations
    UE       = expand(ue_i_out, i)      # are not exposed outside the loop
    MOD      = expand(MOD_i, i)

Conservative cases (paper section 5.4): premature exits mark the loop's
MOD inexact (it may not run to completion, so it must not kill); negative
or unknown steps expand with opaque bounds and inexact ordering sets.
"""

from __future__ import annotations

import dataclasses

from ..errors import BudgetExceeded
from ..fortran.ast_nodes import Apply, Assign, BinOp, Expr, NameRef, Stmt
from ..fortran.semantics import INTRINSICS
from ..hsg.cfg import walk
from ..hsg.nodes import BasicBlockNode, CallNode, IfConditionNode, LoopNode
from ..perf.profiler import COUNTERS
from ..resilience.budget import charge as _budget_charge
from ..regions import GAR, GARList
from ..regions.gar_ops import subtract_lists, union_lists
from ..regions.ranges import Range
from ..regions.region import OMEGA_DIM, RegularRegion
from ..symbolic import Predicate, SymExpr
from .context import LoopSummaryRecord
from .convert import ConversionContext, to_symexpr
from .expansion import expand_gar_list
from .summary import Summary, collect_uses, scalar_gar


# --------------------------------------------------------------------------- #
# budget-exhaustion fallback (the paper's conservative whole-array summary)
# --------------------------------------------------------------------------- #


def _referenced_names(loop: LoopNode) -> set[str]:
    """Every name referenced anywhere in the loop (structural walk).

    Used only by the conservative fallback, which may not run symbolic
    machinery: a plain walk over the body's HSG nodes (condensed cycles'
    members included) and their AST statements, collecting
    ``NameRef``/``Apply`` names, call arguments, and nested loop
    indices/bounds.  Over-collection is fine (the fallback
    over-approximates anyway); under-collection is not.
    """
    names: set[str] = set()

    def collect(obj) -> None:
        if isinstance(obj, (NameRef, Apply)):
            names.add(obj.name)
        if isinstance(obj, (Expr, Stmt)):
            for f in dataclasses.fields(obj):
                collect(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            for child in obj:
                collect(child)

    for node, _ in walk(loop.body, members=True):
        if isinstance(node, BasicBlockNode):
            collect(node.stmts)
        elif isinstance(node, IfConditionNode):
            collect(node.cond)
        elif isinstance(node, CallNode):
            collect(node.call.args)
        elif isinstance(node, LoopNode):
            names.add(node.var)
            collect([node.start, node.stop, node.step])
    return names


def declared_bounds_gar(table, name: str, ctx: ConversionContext):
    """The whole-array GAR of *name* over its declared bounds.

    Guard ``true``, region spanning each declared dimension; dimensions
    whose bounds do not convert (assumed-size ``(*)``, nonlinear bounds)
    become Ω.  Always marked inexact: it is an over-approximation and
    must never kill.
    """
    info = table.arrays[name]
    dims = []
    for lo_expr, hi_expr in info.bounds:
        lo = (
            to_symexpr(lo_expr, ctx)
            if lo_expr is not None
            else SymExpr.const(1)
        )
        hi = to_symexpr(hi_expr, ctx) if hi_expr is not None else None
        if lo is None or hi is None:
            dims.append(OMEGA_DIM)
        else:
            dims.append(Range(lo, hi, 1))
    return GAR(Predicate.true(), RegularRegion(name, dims), exact=False)


def conservative_loop_record(
    analyzer, loop: LoopNode, ctx: ConversionContext, reason: str = "budget"
) -> LoopSummaryRecord:
    """The budget-exhaustion fallback record for *loop*.

    Every array referenced in (or below) the loop contributes its whole
    declared-bounds region to MOD and UE; every scalar contributes its
    cell.  All sets are inexact over-approximations (they never kill), so
    downstream clients stay sound: the privatizer finds nothing
    privatizable, the dependence tests find everything conflicting, and
    the classifier reports the loop ``unknown (budget)``.
    """
    table = ctx.table
    known_units = set(analyzer.hsg.analyzed.unit_names())
    gars = []
    referenced = _referenced_names(loop) | {loop.var}
    for names in table.commons.values():
        referenced.update(names)  # callees may touch any COMMON storage
    for name in sorted(referenced):
        if table.is_array(name):
            gars.append(declared_bounds_gar(table, name, ctx))
        elif (
            name in INTRINSICS
            or name in table.externals
            or name in table.parameters
            or name in known_units
        ):
            continue  # functions and compile-time constants: no storage
        else:
            gars.append(scalar_gar(name).inexact())
    everything = GARList(gars)
    lo = to_symexpr(loop.start, ctx)
    hi = to_symexpr(loop.stop, ctx)
    step = (
        to_symexpr(loop.step, ctx)
        if loop.step is not None
        else SymExpr.const(1)
    )
    analyzer.stats.budget_degradations += 1
    COUNTERS.budget_fallbacks += 1
    return LoopSummaryRecord(
        routine=table.unit.name,
        var=loop.var,
        lo=lo if lo is not None else ctx.fresh_opaque("lo"),
        hi=hi if hi is not None else ctx.fresh_opaque("hi"),
        step=step if step is not None else ctx.fresh_opaque("step"),
        mod_i=everything,
        ue_i=everything,
        mod_lt=everything,
        mod_gt=everything,
        mod=everything,
        ue=everything,
        has_premature_exit=loop.has_premature_exit,
        negative_step=False,
        degraded=reason,
    )


def fix_iteration_varying(
    analyzer, loop, mod_i, ue_i, ctx: ConversionContext, lo, step,
    allow_induction: bool = True,
):
    """Resolve scalars whose iteration-start value leaks into summaries.

    Returns the corrected ``(mod_i, ue_i)``; see the module docstring.
    """
    fixed = fix_varying_lists(
        analyzer, loop, mod_i, [mod_i, ue_i], ctx, lo, step, allow_induction
    )
    return fixed[0], fixed[1]


def fix_varying_lists(
    analyzer, loop, assigned_source, targets, ctx: ConversionContext,
    lo, step, allow_induction: bool = True,
):
    """Apply the iteration-varying treatment to several GAR lists at once
    (the set of assigned scalars comes from *assigned_source*'s regions)."""
    table = ctx.table
    assigned = {
        g.array for g in assigned_source if not table.is_array(g.array)
    } - {loop.var}
    leaked_all = set()
    for target in targets:
        leaked_all |= target.free_vars() & assigned
    if not leaked_all:
        return list(targets)
    substitutions: dict[str, SymExpr] = {}
    unresolved: list[str] = []
    for name in sorted(leaked_all):
        closed = (
            _induction_closed_form(loop, name, ctx, lo, step)
            if allow_induction
            else None
        )
        if closed is not None:
            substitutions[name] = closed
        else:
            unresolved.append(name)
    out = []
    for target in targets:
        if substitutions:
            target = target.substitute(substitutions)
        for name in unresolved:
            target = _omega_out_symbol(target, name)
        out.append(target)
    return out


def recognized_inductions(
    analyzer, loop, ctx: ConversionContext
) -> dict[str, SymExpr]:
    """All basic induction variables of *loop* with their closed forms
    (iteration-start values), for the classifier and code generator."""
    record = analyzer.loop_summary(loop, ctx)
    table = ctx.table
    assigned = {
        g.array for g in record.mod_i if not table.is_array(g.array)
    } - {loop.var}
    out: dict[str, SymExpr] = {}
    for name in sorted(assigned):
        closed = _induction_closed_form(
            loop, name, ctx.with_index(loop.var), record.lo, record.step
        )
        if closed is not None and not record.negative_step:
            out[name] = closed
    return out


def _induction_closed_form(
    loop, name: str, ctx: ConversionContext, lo, step
):
    """Closed form of *name*'s iteration-start value, or ``None``.

    Requires a single ``name = name ± c`` assignment, on every path of the
    body, with ``c`` convertible and loop-invariant (no loop index, no
    scalar assigned in the body).
    """
    updates: list[tuple] = []  # (top_level_node_or_None, stmt)
    assigned_names: set[str] = set()
    top_level = set(loop.body.nodes)
    # a cycle's members are read too: an update inside a condensed
    # backward-GOTO cycle runs an unknown number of times
    for node, _ in walk(loop.body, members=True):
        if isinstance(node, BasicBlockNode):
            for stmt in node.stmts:
                if isinstance(stmt, Assign) and isinstance(stmt.target, NameRef):
                    assigned_names.add(stmt.target.name)
                    if stmt.target.name == name:
                        updates.append((node if node in top_level else None, stmt))
        elif isinstance(node, LoopNode):
            assigned_names.add(node.var)
    if len(updates) != 1:
        return None
    node, stmt = updates[0]
    if node is None or not _on_all_paths(loop.body, node):
        return None
    value = stmt.value
    if not (
        isinstance(value, BinOp)
        and value.op in ("+", "-")
        and isinstance(value.left, NameRef)
        and value.left.name == name
    ):
        return None
    delta = to_symexpr(value.right, ctx)
    if delta is None:
        return None
    if value.op == "-":
        delta = -delta
    invariant_breakers = (
        delta.free_vars() & (assigned_names | {loop.var})
    )
    if invariant_breakers:
        return None
    # iteration-start value: entry value + delta per completed iteration
    iterations_before = (SymExpr.var(loop.var) - lo).div_const(
        step.constant_value() or 1
    ) if step.constant_value() else None
    if iterations_before is None:
        return None
    return SymExpr.var(name) + delta * iterations_before


def _on_all_paths(graph, node) -> bool:
    """Does every entry→exit path pass through *node*?"""
    seen = {graph.entry}
    stack = [graph.entry]
    if node is graph.entry:
        return True
    while stack:
        current = stack.pop()
        if current is graph.exit:
            return False  # reached exit while avoiding node
        for succ, _ in graph.succs(current):
            if succ is node or succ in seen:
                continue
            seen.add(succ)
            stack.append(succ)
    return True


def _omega_out_symbol(gars: GARList, name: str) -> GARList:
    """Sound over-approximation removing all knowledge tied to *name*."""
    out = []
    for gar in gars:
        if not gar.contains_var(name):
            out.append(gar)
            continue
        dims = [
            OMEGA_DIM
            if isinstance(d, Range) and d.contains_var(name)
            else d
            for d in gar.region.dims
        ]
        guard = gar.guard
        if guard.is_cnf() and guard.contains(name):
            kept = [c for c in guard.clauses if name not in c.free_vars()]
            guard = Predicate.of_clauses(kept) if kept else Predicate.true()
        out.append(
            GAR(guard, RegularRegion(gar.array, dims), exact=False)
        )
    return GARList(out)


def summarize_loop(
    analyzer, loop: LoopNode, ctx: ConversionContext
) -> LoopSummaryRecord:
    """Compute the full :class:`LoopSummaryRecord` for *loop*.

    When the analysis budget runs out mid-computation, degrades to the
    conservative whole-array record instead of propagating the failure —
    the paper's contract: never crash, fall back to the safe summary.
    """
    try:
        return _summarize_loop_exact(analyzer, loop, ctx)
    except BudgetExceeded as exc:
        return conservative_loop_record(analyzer, loop, ctx, exc.reason)


def _summarize_loop_exact(
    analyzer, loop: LoopNode, ctx: ConversionContext
) -> LoopSummaryRecord:
    COUNTERS.sum_loop_calls += 1
    _budget_charge(1)
    cmp = analyzer.comparer
    inner_ctx = ctx.with_index(loop.var)
    body = analyzer.sum_segment(loop.body, inner_ctx)
    lo = to_symexpr(loop.start, ctx)
    hi = to_symexpr(loop.stop, ctx)
    step = (
        to_symexpr(loop.step, ctx) if loop.step is not None else SymExpr.const(1)
    )
    negative = False
    bounds_known = True
    if lo is None:
        lo = ctx.fresh_opaque("lo")
        bounds_known = False
    if hi is None:
        hi = ctx.fresh_opaque("hi")
        bounds_known = False
    if step is None:
        step = ctx.fresh_opaque("step")
        negative = True  # unknown sign: same conservative treatment
    else:
        sv = step.constant_value()
        if sv is not None and sv < 0:
            # normalize a downward loop to its element set; iteration
            # *order* is lost, so the <i / >i sets become inexact
            lo, hi = hi, lo
            step = -step
            negative = True
        elif sv is not None and sv == 0:
            step = SymExpr.const(1)
            negative = True

    i = loop.var
    mod_i, ue_i = fix_iteration_varying(
        analyzer, loop, body.mod, body.ue, inner_ctx, lo, step,
        allow_induction=not negative,
    )

    # rename the index before expanding over prior/later iterations so the
    # free occurrence of i (the "current" iteration) is not captured
    fresh = ctx.fresh_index(i)
    other_iter = {i: SymExpr.var(fresh)}
    mod_prev = mod_i.substitute(other_iter)
    mod_next = mod_prev

    i_var = SymExpr.var(i)
    if negative or loop.has_premature_exit:
        # order-dependent sets are over-approximations: expand over the
        # whole range and mark inexact (they must not kill)
        mod_lt = expand_gar_list(mod_prev, fresh, lo, hi, step, cmp).inexact()
        mod_gt = mod_lt
    else:
        mod_lt = expand_gar_list(mod_prev, fresh, lo, i_var - step, step, cmp)
        mod_gt = expand_gar_list(mod_next, fresh, i_var + step, hi, step, cmp)

    if not ctx.symbolic and not bounds_known:
        # T1 ablation: a non-symbolic analyzer cannot represent regions
        # bounded by unknown values — the opaque-bound summaries are kept
        # only as over-approximations (they must never kill)
        mod_i = mod_i.inexact()
        mod_lt = mod_lt.inexact()
        mod_gt = mod_gt.inexact()

    ue_i_out = subtract_lists(ue_i, mod_lt, cmp)
    ue = expand_gar_list(ue_i_out, i, lo, hi, step, cmp)
    mod = expand_gar_list(mod_i, i, lo, hi, step, cmp)
    # the loop writes its own index variable (final value unknown to
    # purely structural readers, but the storage is modified)
    mod = union_lists(mod, GARList.of(scalar_gar(i)), cmp)
    if loop.has_premature_exit:
        mod = mod.inexact()

    record = LoopSummaryRecord(
        routine=ctx.table.unit.name,
        var=i,
        lo=lo,
        hi=hi,
        step=step,
        mod_i=mod_i,
        ue_i=ue_i,
        mod_lt=mod_lt,
        mod_gt=mod_gt,
        mod=mod,
        ue=ue,
        has_premature_exit=loop.has_premature_exit,
        negative_step=negative,
    )
    analyzer.stats.loops_summarized += 1
    return record


def transfer_loop(
    analyzer, loop: LoopNode, below: Summary, ctx: ConversionContext
) -> Summary:
    """Combine a loop's summary with the sets flowing up from below it."""
    cmp = analyzer.comparer
    record = analyzer.loop_summary(loop, ctx)
    # scalars assigned inside the loop (including the index) have unknown
    # values below; rename their value occurrences to fresh opaques
    assigned = {
        g.array
        for g in record.mod
        if not ctx.table.is_array(g.array)
    } | {loop.var}
    bindings = {name: ctx.fresh_opaque(name) for name in sorted(assigned)}
    below = below.substitute(bindings)
    mod_in = union_lists(record.mod, below.mod, cmp)
    ue_in = union_lists(record.ue, subtract_lists(below.ue, record.mod, cmp), cmp)
    # loop bound expressions are evaluated on entry: they read scalars
    for expr in (loop.start, loop.stop, loop.step):
        if expr is not None:
            ue_in = union_lists(ue_in, collect_uses(expr, ctx), cmp)
    return Summary(mod_in, ue_in)
