"""Subscript pair extraction for conventional dependence testing.

Conventional (memory-disambiguation) tests work on pairs of references to
the same array inside a loop nest.  This module collects the references
and normalizes subscripts to affine forms over the loop indices for the
numeric tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..dataflow.convert import ConversionContext, to_symexpr
from ..fortran.ast_nodes import Apply, Assign, Expr, IoStmt, NameRef
from ..hsg.cfg import walk
from ..hsg.nodes import (
    BasicBlockNode,
    CallNode,
    IfConditionNode,
    LoopNode,
)
from ..perf.profiler import MISS, BoundedCache
from ..symbolic import SymExpr

#: (expr, indices) → AffineForm | None.  GCD and Banerjee both normalize
#: the same subscripts of the same pairs; expressions are interned so the
#: key is cheap.
_AFFINE_CACHE = BoundedCache("deptest.affine_form", maxsize=16384)


@dataclass(frozen=True)
class ArrayReference:
    array: str
    subscripts: tuple[Optional[SymExpr], ...]  # None = unanalyzable
    is_write: bool
    #: loop indices enclosing the reference (innermost last)
    nest: tuple[str, ...]

    def __str__(self) -> str:
        subs = ", ".join(str(s) if s is not None else "?" for s in self.subscripts)
        rw = "W" if self.is_write else "R"
        return f"{rw}:{self.array}({subs})"


@dataclass(frozen=True)
class AffineForm:
    """``sum coeff_k * index_k + const`` with symbolic-free coefficients.

    ``symbolic_rest`` holds the index-free symbolic remainder (e.g.
    ``jmax`` in ``A(jmax)``); the numeric tests treat it as an unknown
    additive constant.
    """

    coeffs: tuple[tuple[str, Fraction], ...]
    const: Fraction
    symbolic_rest: SymExpr

    def coeff(self, index: str) -> Fraction:
        """Coefficient of one loop index."""
        for name, value in self.coeffs:
            if name == index:
                return value
        return Fraction(0)

    def is_constant(self) -> bool:
        """No index terms and no symbolic rest?"""
        return not self.coeffs and self.symbolic_rest.is_zero()


def affine_form(expr: SymExpr, indices: tuple[str, ...]) -> Optional[AffineForm]:
    """Split an expression into index terms + constant + symbolic rest.

    Returns ``None`` when an index occurs non-linearly (e.g. ``i*i`` or
    ``i*n``) — the numeric tests then give up on the pair.
    """
    key = (expr, indices)
    cached = _AFFINE_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _AFFINE_CACHE.put(key, _affine_form_uncached(expr, indices))


def _affine_form_uncached(
    expr: SymExpr, indices: tuple[str, ...]
) -> Optional[AffineForm]:
    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    rest = SymExpr()
    index_set = set(indices)
    for mono, coeff in expr.terms:
        vars_in = mono.variables()
        touched = vars_in & index_set
        if not touched:
            if mono.is_unit():
                const += coeff
            else:
                rest = rest + SymExpr({mono: coeff})
            continue
        if not mono.is_linear_var():
            return None  # index multiplied by something
        (name,) = vars_in
        coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
    return AffineForm(tuple(sorted(coeffs.items())), const, rest)


def collect_references(
    loop: LoopNode, ctx: ConversionContext
) -> list[ArrayReference]:
    """All array references textually inside *loop*: at any nesting depth,
    members of GOTO cycles included."""
    out: list[ArrayReference] = []

    def expr_refs(expr: Expr, nest: tuple[str, ...], inner: ConversionContext) -> None:
        for node in expr.walk():
            if isinstance(node, Apply) and node.is_array:
                subs = tuple(to_symexpr(a, inner) for a in node.args)
                out.append(ArrayReference(node.name, subs, False, nest))

    # the nest and conversion context of each loop level, built once
    levels = {loop: ((loop.var,), ctx.with_index(loop.var))}
    for node, enclosing in walk(loop.body, members=True):
        nest, inner = levels[enclosing[-1] if enclosing else loop]
        if isinstance(node, BasicBlockNode):
            for stmt in node.stmts:
                if isinstance(stmt, Assign):
                    expr_refs(stmt.value, nest, inner)
                    target = stmt.target
                    if isinstance(target, Apply) and target.is_array:
                        for arg in target.args:
                            expr_refs(arg, nest, inner)
                        subs = tuple(to_symexpr(a, inner) for a in target.args)
                        out.append(ArrayReference(target.name, subs, True, nest))
                elif isinstance(stmt, IoStmt):
                    for item in stmt.items:
                        expr_refs(item, nest, inner)
        elif isinstance(node, IfConditionNode):
            expr_refs(node.cond, nest, inner)
        elif isinstance(node, LoopNode):
            levels[node] = (nest + (node.var,), inner.with_index(node.var))
            expr_refs(node.start, nest, inner)
            expr_refs(node.stop, nest, inner)
            if node.step is not None:
                expr_refs(node.step, nest, inner)
        elif isinstance(node, CallNode):
            for arg in node.call.args:
                expr_refs(arg, nest, inner)
                if isinstance(arg, NameRef) and inner.table.is_array(arg.name):
                    rank = inner.table.arrays[arg.name].rank
                    unknown = tuple([None] * rank)
                    out.append(ArrayReference(arg.name, unknown, True, nest))
                    out.append(ArrayReference(arg.name, unknown, False, nest))
    return out
