"""``SUM_call``: call-node summaries and formal→actual mapping (section 4.1).

The callee's routine summary is computed once (bottom-up over the acyclic
call graph, cached) in terms of its formal parameters and COMMON names,
then mapped at each call site:

* an array formal bound to a whole-array actual renames the region;
* an array formal bound to anything else (array element, expression)
  degrades to Ω of the actual's array (inexact);
* a scalar formal contributes (a) a *value* binding — the actual's
  symbolic value replaces the formal in guards and subscripts — and
  (b) a *storage* mapping for call-by-reference effects: MOD/UE cells of
  the formal map onto the actual variable when it is a plain scalar, and
  a write to a formal bound to an array element writes Ω of that array
  (inexact);
* callee-local storage is dropped (no SAVE semantics), and callee-local
  value symbols are renamed to fresh opaques;
* COMMON names pass through unchanged (consistent member naming assumed).

With interprocedural analysis disabled (the T3 ablation), or for calls to
routines outside the program, the call is opaque: every array reachable by
the callee is Ω for both MOD and UE.
"""

from __future__ import annotations

from typing import Optional

from ..errors import BudgetExceeded
from ..fortran.ast_nodes import Apply, Expr, NameRef
from ..hsg.nodes import CallNode
from ..perf.profiler import COUNTERS
from ..regions import GAR, GARList
from ..resilience.budget import charge as _budget_charge
from ..regions.gar_ops import subtract_lists, union_lists
from ..symbolic import SymExpr
from .convert import ConversionContext, to_symexpr
from .summary import Summary, collect_uses, scalar_gar


def transfer_call(
    analyzer, node: CallNode, below: Summary, ctx: ConversionContext
) -> Summary:
    """Combine a call's summary with the sets below it."""
    cmp = analyzer.comparer
    call_summary = summarize_call(analyzer, node, ctx)
    # scalars possibly written by the call have unknown values below it
    assigned = {
        g.array for g in call_summary.mod if not ctx.table.is_array(g.array)
    }
    bindings = {name: ctx.fresh_opaque(name) for name in sorted(assigned)}
    below = below.substitute(bindings)
    mod_in = union_lists(call_summary.mod, below.mod, cmp)
    ue_in = union_lists(
        call_summary.ue, subtract_lists(below.ue, call_summary.mod, cmp), cmp
    )
    return Summary(mod_in, ue_in)


def summarize_call(
    analyzer, node: CallNode, ctx: ConversionContext
) -> Summary:
    """The call's own (MOD, UE) contribution, in caller terms.

    When the analysis budget runs out while summarizing (or mapping) the
    callee, degrades to the opaque-call treatment — arrays passed or in
    COMMON become Ω — exactly the conservative summary the T3 ablation
    uses, instead of propagating the failure.
    """
    try:
        return _summarize_call_exact(analyzer, node, ctx)
    except BudgetExceeded:
        analyzer.stats.budget_degradations += 1
        COUNTERS.budget_fallbacks += 1
        return opaque_call(node, ctx)


def _summarize_call_exact(
    analyzer, node: CallNode, ctx: ConversionContext
) -> Summary:
    COUNTERS.sum_call_calls += 1
    _budget_charge(1)
    callee = node.callee
    known = callee in analyzer.hsg.analyzed.unit_names()
    if not analyzer.options.interprocedural or not known:
        return opaque_call(node, ctx)
    summary = analyzer.routine_summary(callee)
    return _map_to_actuals(analyzer, summary, node, ctx)


def opaque_call(node: CallNode, ctx: ConversionContext) -> Summary:
    """Worst-case effect: arrays passed (or in COMMON) are wholly unknown;
    scalar actuals are read and possibly written."""
    mod = GARList.empty()
    ue = GARList.empty()
    for arg in node.call.args:
        if isinstance(arg, NameRef) and ctx.table.is_array(arg.name):
            rank = ctx.table.arrays[arg.name].rank
            omega = GAR.omega(arg.name, rank)
            mod = mod.add(omega)
            ue = ue.add(omega)
            continue
        if isinstance(arg, Apply) and arg.is_array:
            rank = ctx.table.arrays[arg.name].rank
            omega = GAR.omega(arg.name, rank)
            mod = mod.add(omega)
            ue = ue.add(omega)
            for sub in arg.args:
                ue = ue.union(collect_uses(sub, ctx))
            continue
        ue = ue.union(collect_uses(arg, ctx))
        if isinstance(arg, NameRef) and not ctx.table.is_array(arg.name):
            mod = mod.add(scalar_gar(arg.name).inexact())
    for block, names in ctx.table.commons.items():
        for name in names:
            if ctx.table.is_array(name):
                rank = ctx.table.arrays[name].rank
                omega = GAR.omega(name, rank)
                mod = mod.add(omega)
                ue = ue.add(omega)
            else:
                mod = mod.add(scalar_gar(name).inexact())
                ue = ue.add(scalar_gar(name))
    return Summary(mod, ue)


def _map_to_actuals(
    analyzer, summary: Summary, node: CallNode, ctx: ConversionContext
) -> Summary:
    callee_unit = analyzer.hsg.analyzed.unit(node.callee)
    callee_table = analyzer.hsg.analyzed.table(node.callee)
    formals = callee_unit.params
    actuals = node.call.args
    cmp = analyzer.comparer

    # classify callee names
    common_names: set[str] = set()
    for names in callee_table.commons.values():
        common_names.update(names)

    value_bindings: dict[str, SymExpr] = {}
    region_map: dict[str, Optional[str]] = {}  # None = drop / Ω handled below
    omega_arrays: list[tuple[str, int]] = []
    written_arrays: list[tuple[str, int]] = []  # Ω in MOD only
    extra_ue = GARList.empty()

    for pos, formal in enumerate(formals):
        actual: Optional[Expr] = actuals[pos] if pos < len(actuals) else None
        if actual is None:
            continue
        if callee_table.is_array(formal):
            if isinstance(actual, NameRef) and ctx.table.is_array(actual.name):
                if (
                    ctx.table.arrays[actual.name].rank
                    == callee_table.arrays[formal].rank
                ):
                    region_map[formal] = actual.name
                else:
                    region_map[formal] = None
                    omega_arrays.append(
                        (actual.name, ctx.table.arrays[actual.name].rank)
                    )
            elif isinstance(actual, Apply) and actual.is_array:
                # array-element actual: offset sections unsupported — Ω
                region_map[formal] = None
                omega_arrays.append(
                    (actual.name, ctx.table.arrays[actual.name].rank)
                )
                for sub in actual.args:
                    extra_ue = extra_ue.union(collect_uses(sub, ctx))
            else:
                region_map[formal] = None
            continue
        # scalar formal
        value = to_symexpr(actual, ctx)
        if callee_table.is_logical(formal):
            if isinstance(actual, NameRef) and ctx.table.is_logical(actual.name):
                value_bindings[formal] = SymExpr.var(actual.name)
            else:
                value_bindings[formal] = ctx.fresh_opaque(formal)
        elif value is not None:
            value_bindings[formal] = value
        else:
            value_bindings[formal] = ctx.fresh_opaque(formal)
        if isinstance(actual, NameRef) and not ctx.table.is_array(actual.name):
            region_map[formal] = actual.name
        else:
            region_map[formal] = None
            if (
                isinstance(actual, Apply)
                and actual.is_array
                and summary.mod.for_array(formal).gars
            ):
                # writing the formal writes the element actual
                written_arrays.append(
                    (actual.name, ctx.table.arrays[actual.name].rank)
                )
            # reading the formal's initial value reads the actual's parts
            extra_ue_candidate = collect_uses(actual, ctx)
            if summary.ue.for_array(formal).gars:
                extra_ue = extra_ue.union(extra_ue_candidate)

    # free value symbols that are callee locals become fresh opaques
    local_syms = {
        name
        for name in (summary.mod.free_vars() | summary.ue.free_vars())
        if name not in value_bindings
        and name not in common_names
        and "@" not in name
        and "%" not in name
    }
    for name in sorted(local_syms):
        value_bindings[name] = ctx.fresh_opaque(name)

    def map_list(gars: GARList, is_mod: bool) -> GARList:
        out = GARList.empty()
        for gar in gars:
            name = gar.array
            mapped = gar.substitute(value_bindings)
            if name in region_map:
                target = region_map[name]
                if target is None:
                    continue  # Ω replacement handled separately / dropped
                out = out.add(mapped.with_array(target))
            elif name in common_names:
                out = out.add(mapped)
            else:
                continue  # callee-local storage: no caller-visible effect
        return out

    mod = map_list(summary.mod, True)
    ue = map_list(summary.ue, False)
    for array, rank in omega_arrays:
        omega = GAR.omega(array, rank)
        mod = mod.add(omega)
        ue = ue.add(omega)
    mod = union_lists(mod, GARList([GAR.omega(*w) for w in written_arrays]), cmp)
    ue = union_lists(ue, extra_ue, cmp)
    # evaluating the actual argument expressions reads their scalars
    for actual in actuals:
        if isinstance(actual, NameRef):
            continue  # pass-by-reference, no evaluation
        ue = union_lists(ue, collect_uses(actual, ctx), cmp)
    return Summary(mod, ue)
