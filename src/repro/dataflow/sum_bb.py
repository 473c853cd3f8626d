"""``SUM_bb``: the basic-block transfer function (paper section 4.1).

The paper splits this into a block-local (MOD, UE) computation followed by
the propagation step's on-the-fly substitution of scalars defined within
the node.  We fuse the two: statements are walked in reverse over the sets
flowing up from below, which applies intra-block kills, exposes uses, and
performs scalar value substitution in one uniform pass.

Scalars are modeled as rank-1 regions (see :mod:`repro.dataflow.summary`),
so a scalar assignment both *kills/generates the scalar's storage cell*
and *substitutes the scalar's value* into every symbolic expression of the
sets so far.
"""

from __future__ import annotations

from ..fortran.ast_nodes import (
    Apply,
    Assign,
    Continue,
    Declaration,
    DimensionStmt,
    IoStmt,
    MiscDecl,
    NameRef,
    ParameterStmt,
    CommonStmt,
    Stmt,
)
from ..hsg.nodes import BasicBlockNode
from ..regions import GAR, GARList
from ..regions.gar_ops import subtract_lists, union_lists
from ..symbolic import SymExpr
from .convert import ConversionContext, to_symexpr
from .summary import Summary, collect_uses, reference_gar, scalar_gar


def transfer_basic_block(
    analyzer, node: BasicBlockNode, below: Summary, ctx: ConversionContext
) -> Summary:
    """Apply SUM_bb: statements in reverse over the below-sets."""
    mod, ue = below.mod, below.ue
    cmp = analyzer.comparer
    for stmt in reversed(node.stmts):
        mod, ue = transfer_statement(analyzer, stmt, mod, ue, ctx)
        analyzer.stats.note_list(mod)
        analyzer.stats.note_list(ue)
    return Summary(mod, ue)


def transfer_statement(
    analyzer, stmt: Stmt, mod: GARList, ue: GARList, ctx: ConversionContext
) -> tuple[GARList, GARList]:
    """One statement's (MOD, UE) transfer, backward."""
    cmp = analyzer.comparer
    if isinstance(stmt, Assign):
        target = stmt.target
        if isinstance(target, Apply) and target.is_array:
            gar = reference_gar(target, ctx)
            write = GARList.of(gar)
            ue = subtract_lists(ue, write, cmp)
            mod = union_lists(mod, write, cmp)
            uses = collect_uses(stmt.value, ctx)
            for sub in target.args:
                uses = uses.union(collect_uses(sub, ctx))
            ue = union_lists(ue, uses, cmp)
            return mod, ue
        # scalar assignment: v = rhs
        name = target.name if isinstance(target, NameRef) else target.name
        value = _scalar_value(stmt, name, ctx)
        bindings = {name: value}
        mod = mod.substitute(bindings)
        ue = ue.substitute(bindings)
        write = GARList.of(scalar_gar(name))
        ue = subtract_lists(ue, write, cmp)
        mod = union_lists(mod, write, cmp)
        ue = union_lists(ue, collect_uses(stmt.value, ctx), cmp)
        return mod, ue
    if isinstance(stmt, IoStmt):
        if stmt.kind == "read":
            # READ writes its items with values the analysis cannot see
            for item in stmt.items:
                if isinstance(item, Apply) and item.is_array:
                    gar = reference_gar(item, ctx).inexact()
                    mod = union_lists(mod, GARList.of(gar), cmp)
                    for sub in item.args:
                        ue = union_lists(ue, collect_uses(sub, ctx), cmp)
                elif isinstance(item, NameRef):
                    name = item.name
                    if ctx.table.is_array(name):
                        rank = ctx.table.arrays[name].rank
                        mod = union_lists(
                            mod, GARList.of(GAR.omega(name, rank)), cmp
                        )
                    else:
                        bindings = {name: ctx.fresh_opaque(name)}
                        mod = mod.substitute(bindings)
                        ue = ue.substitute(bindings)
                        write = GARList.of(scalar_gar(name))
                        ue = subtract_lists(ue, write, cmp)
                        mod = union_lists(mod, write, cmp)
            return mod, ue
        # WRITE / PRINT: pure uses
        for item in stmt.items:
            ue = union_lists(ue, collect_uses(item, ctx), cmp)
            if isinstance(item, NameRef) and ctx.table.is_array(item.name):
                rank = ctx.table.arrays[item.name].rank
                ue = union_lists(ue, GARList.of(GAR.omega(item.name, rank)), cmp)
        return mod, ue
    if isinstance(
        stmt, (Continue, MiscDecl, Declaration, DimensionStmt, ParameterStmt,
               CommonStmt)
    ):
        return mod, ue
    raise TypeError(f"basic block contains unexpected {type(stmt).__name__}")


def _scalar_value(stmt: Assign, name: str, ctx: ConversionContext) -> SymExpr:
    """The symbolic value assigned to scalar *name*, or a fresh opaque."""
    if ctx.table.is_logical(name):
        # logical values: representable only as a plain variable copy
        if isinstance(stmt.value, NameRef) and ctx.table.is_logical(
            stmt.value.name
        ):
            return SymExpr.var(stmt.value.name)
        return ctx.fresh_opaque(name)
    value = to_symexpr(stmt.value, ctx)
    if value is None:
        return ctx.fresh_opaque(name)
    return value
