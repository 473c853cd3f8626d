"""Conversion from Fortran expressions to symbolic expressions/predicates.

This is where the paper's "symbolic analysis" (technique T1 of Table 1)
and "IF condition analysis" (T2) enter:

* :func:`to_symexpr` maps an integer-valued Fortran expression to a
  :class:`~repro.symbolic.expr.SymExpr`; anything outside the symbolic
  subset (array references, function calls, truncating division,
  real arithmetic) yields ``None`` — the caller then substitutes a fresh
  *opaque symbol*, which keeps identical unknown values consistent but
  assumes nothing else about them.
* :func:`to_predicate` maps an IF condition to a guard
  :class:`~repro.symbolic.predicate.Predicate`; conditions containing
  array references yield Δ (the paper's implementation restriction,
  section 5.2 — this is exactly why MDG's ``RL`` is not privatized).

With symbolic analysis disabled (the T1 ablation) every non-literal
expression is opaque, reproducing the behaviour of a non-symbolic
analyzer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from ..fortran.ast_nodes import (
    Apply,
    BinOp,
    Expr,
    IntLit,
    LogicalLit,
    NameRef,
    RealLit,
    StringLit,
    UnOp,
)
from ..fortran.semantics import SymbolTable
from ..symbolic import Predicate, Relation, SymExpr

_REL_OPS = {".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge."}


def subscript_placeholder(position: int) -> SymExpr:
    """Placeholder for the *position*-th subscript of an index-array form.

    The paper (section 6) replaces subscript arrays like ARC2D's
    ``JPLUS``/``JMINUS`` with their closed-form expressions ("forward
    substitution by hand"); an :data:`index_array_forms` entry such as
    ``{"jplus": subscript_placeholder(1) + 1}`` performs the same
    substitution mechanically: ``A(JPLUS(J))`` converts as ``A(J+1)``.
    """
    return SymExpr.var(f"arg%{position}")


@dataclass
class ConversionContext:
    """Everything expression conversion needs to know."""

    table: SymbolTable
    #: T1: symbolic analysis of non-index variables enabled
    symbolic: bool = True
    #: T2: IF conditions turned into guards (otherwise Δ)
    if_conditions: bool = True
    #: loop index variables currently in scope (always symbolic, even
    #: with T1 off — conventional analyses handle induction variables)
    active_indices: frozenset[str] = frozenset()
    #: extra scalar value bindings applied on conversion (forward
    #: substitution of PARAMETER constants)
    bindings: dict[str, SymExpr] = field(default_factory=dict)
    #: closed forms for subscript arrays (paper section 6), keyed by
    #: array name; expressions over :func:`subscript_placeholder`
    index_array_forms: dict[str, SymExpr] = field(default_factory=dict)
    #: element-value bounds for arrays proven by the content domain
    #: (docs/frontier.md): array name → inclusive (lo, hi) over every
    #: read the routine performs — lets :func:`to_predicate` discharge
    #: guards like ``F(J) .GE. 1`` without a closed form
    content_bounds: dict[str, tuple[Fraction, Fraction]] = field(
        default_factory=dict
    )
    #: numbers the fresh symbols (``hint@N`` opaques, ``i%N`` index
    #: renames); every context derived from this one shares it, so one
    #: compile numbers its symbols from 1 whatever ran before it
    numbering: Iterator[int] = field(
        default_factory=lambda: itertools.count(1), repr=False, compare=False
    )

    def with_index(self, name: str) -> "ConversionContext":
        """The context with one more active loop index."""
        bindings = self.bindings
        if name in bindings:
            # the loop index shadows any forward value binding
            bindings = {k: v for k, v in bindings.items() if k != name}
        return ConversionContext(
            self.table,
            self.symbolic,
            self.if_conditions,
            self.active_indices | {name},
            bindings,
            self.index_array_forms,
            self.content_bounds,
            self.numbering,
        )

    def fresh_opaque(self, hint: str = "v") -> SymExpr:
        """A fresh symbol standing for an unknown (but fixed) value."""
        return SymExpr.var(f"{hint}@{next(self.numbering)}")

    def fresh_index(self, index: str) -> str:
        """A fresh name for loop index *index* ranging over the other
        iterations (section 4.1's rename before expansion)."""
        return f"{index}%{next(self.numbering)}"


def _real_literal(text: str) -> Optional[Fraction]:
    t = text.replace("d", "e")
    try:
        if "e" in t:
            mant, _, exp = t.partition("e")
            return Fraction(mant or "0") * Fraction(10) ** int(exp)
        return Fraction(t)
    except (ValueError, ZeroDivisionError):
        return None


def to_symexpr(expr: Expr, ctx: ConversionContext) -> Optional[SymExpr]:
    """Symbolic form of an integer-valued expression, or ``None``."""
    if isinstance(expr, IntLit):
        return SymExpr.const(expr.value)
    if isinstance(expr, NameRef):
        name = expr.name
        if name in ctx.bindings:
            return ctx.bindings[name]
        if name in ctx.table.parameters:
            return to_symexpr(ctx.table.parameters[name], ctx)
        if ctx.table.is_array(name):
            return None
        if name in ctx.active_indices:
            return SymExpr.var(name)
        if not ctx.symbolic:
            return None  # T1 off: only constants and loop indices
        return SymExpr.var(name)
    if isinstance(expr, UnOp):
        if expr.op == "-":
            inner = to_symexpr(expr.operand, ctx)
            return None if inner is None else -inner
        if expr.op == "+":
            return to_symexpr(expr.operand, ctx)
        return None
    if isinstance(expr, Apply) and expr.is_array:
        form = ctx.index_array_forms.get(expr.name)
        if form is not None:
            subs = [to_symexpr(a, ctx) for a in expr.args]
            if all(s is not None for s in subs):
                return form.substitute(
                    {f"arg%{k}": s for k, s in enumerate(subs, start=1)}
                )
        return None
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-", "*", "/", "**"):
            left = to_symexpr(expr.left, ctx)
            right = to_symexpr(expr.right, ctx)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                # Fortran integer division truncates; only exact constant
                # divisions are representable
                divisor = right.constant_value()
                if divisor is None or divisor == 0:
                    return None
                quotient = left.div_const(divisor)
                if all(c.denominator == 1 for _, c in quotient.terms):
                    return quotient
                return None
            # '**' with small constant exponent
            power = right.constant_value()
            if power is None or power.denominator != 1:
                return None
            p = power.numerator
            if 0 <= p <= 4:
                out = SymExpr.const(1)
                for _ in range(p):
                    out = out * left
                return out
            return None
        return None
    return None  # Apply / RealLit / StringLit / LogicalLit


def is_integer_expr(expr: Expr, ctx: ConversionContext) -> bool:
    """Conservatively: every leaf is integer-typed."""
    if isinstance(expr, IntLit):
        return True
    if isinstance(expr, (RealLit, StringLit, LogicalLit)):
        return False
    if isinstance(expr, NameRef):
        if ctx.table.is_array(expr.name):
            return False
        return ctx.table.type_of(expr.name) == "integer"
    if isinstance(expr, UnOp):
        return expr.op in ("-", "+") and is_integer_expr(expr.operand, ctx)
    if isinstance(expr, BinOp):
        return (
            expr.op in ("+", "-", "*", "/", "**")
            and is_integer_expr(expr.left, ctx)
            and is_integer_expr(expr.right, ctx)
        )
    if isinstance(expr, Apply):
        return False
    return False


def _numeric_side(expr: Expr, ctx: ConversionContext) -> Optional[SymExpr]:
    """Symbolic form of one side of a comparison (integer or real).

    Real scalars become symbolic variables; simple real literals become
    exact rationals.  Returns ``None`` for unsupported forms.
    """
    sym = to_symexpr(expr, ctx)
    if sym is not None:
        return sym
    if isinstance(expr, RealLit):
        value = _real_literal(expr.text)
        return None if value is None else SymExpr.const(value)
    if isinstance(expr, NameRef):
        if ctx.table.is_array(expr.name):
            return None
        if not ctx.symbolic and expr.name not in ctx.active_indices:
            return None
        if ctx.table.type_of(expr.name) in ("real", "doubleprecision"):
            return SymExpr.var(expr.name)
        return None
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = _numeric_side(expr.operand, ctx)
        return None if inner is None else -inner
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left = _numeric_side(expr.left, ctx)
        right = _numeric_side(expr.right, ctx)
        if left is None or right is None:
            return None
        return left + right if expr.op == "+" else left - right
    if isinstance(expr, BinOp) and expr.op == "*":
        left = _numeric_side(expr.left, ctx)
        right = _numeric_side(expr.right, ctx)
        if left is None or right is None:
            return None
        if left.is_constant() or right.is_constant():
            return left * right
        return None
    return None


def _bounds_discharge(expr: BinOp, ctx: ConversionContext) -> Optional[bool]:
    """Decide ``A(e) REL c`` from a content-domain element-bound fact.

    The content domain (docs/frontier.md) only installs ``(lo, hi)``
    bounds for arrays whose every read in the routine is proven to hit
    the segment the fact covers, so the relation can be decided whenever
    the bound interval lies entirely on one side of the constant.
    Returns ``None`` when the guard is not of this shape or the bounds
    are inconclusive.
    """

    def array_bounds(e: Expr) -> Optional[tuple[Fraction, Fraction]]:
        if isinstance(e, Apply) and e.is_array:
            return ctx.content_bounds.get(e.name)
        return None

    def const_of(e: Expr) -> Optional[Fraction]:
        sym = _numeric_side(e, ctx)
        return None if sym is None else sym.constant_value()

    bounds, const, op = array_bounds(expr.left), const_of(expr.right), expr.op
    if bounds is None:
        bounds, const = array_bounds(expr.right), const_of(expr.left)
        # mirror the relation so the array is always on the left
        op = {".lt.": ".gt.", ".gt.": ".lt.", ".le.": ".ge.",
              ".ge.": ".le.", ".eq.": ".eq.", ".ne.": ".ne."}[op]
    if bounds is None or const is None:
        return None
    lo, hi = bounds
    if op == ".lt.":
        return True if hi < const else (False if lo >= const else None)
    if op == ".le.":
        return True if hi <= const else (False if lo > const else None)
    if op == ".gt.":
        return True if lo > const else (False if hi <= const else None)
    if op == ".ge.":
        return True if lo >= const else (False if hi < const else None)
    if op == ".eq.":
        return True if lo == hi == const else (
            False if const < lo or const > hi else None
        )
    if op == ".ne.":
        return False if lo == hi == const else (
            True if const < lo or const > hi else None
        )
    return None


def to_predicate(expr: Expr, ctx: ConversionContext) -> Predicate:
    """Guard predicate of an IF condition; Δ when unsupported (or T2 off)."""
    if not ctx.if_conditions:
        return Predicate.unknown()
    if isinstance(expr, LogicalLit):
        return Predicate.true() if expr.value else Predicate.false()
    if isinstance(expr, NameRef):
        if ctx.table.is_logical(expr.name):
            return Predicate.boolvar(expr.name)
        return Predicate.unknown()
    if isinstance(expr, UnOp) and expr.op == ".not.":
        return to_predicate(expr.operand, ctx).negate()
    if isinstance(expr, BinOp):
        if expr.op == ".and.":
            return to_predicate(expr.left, ctx) & to_predicate(expr.right, ctx)
        if expr.op == ".or.":
            return to_predicate(expr.left, ctx) | to_predicate(expr.right, ctx)
        if expr.op == ".eqv.":
            p, q = to_predicate(expr.left, ctx), to_predicate(expr.right, ctx)
            return (p & q) | (p.negate() & q.negate())
        if expr.op == ".neqv.":
            p, q = to_predicate(expr.left, ctx), to_predicate(expr.right, ctx)
            return (p & q.negate()) | (p.negate() & q)
        if expr.op in _REL_OPS:
            integer = is_integer_expr(expr.left, ctx) and is_integer_expr(
                expr.right, ctx
            )
            left = _numeric_side(expr.left, ctx)
            right = _numeric_side(expr.right, ctx)
            if left is None or right is None:
                bounded = _bounds_discharge(expr, ctx)
                if bounded is not None:
                    return Predicate.true() if bounded else Predicate.false()
                return Predicate.unknown()
            rel = {
                ".eq.": Relation.eq,
                ".ne.": Relation.ne,
                ".lt.": Relation.lt,
                ".le.": Relation.le,
                ".gt.": Relation.gt,
                ".ge.": Relation.ge,
            }[expr.op](left, right, integer)
            return Predicate.of_atom(rel)
    return Predicate.unknown()
