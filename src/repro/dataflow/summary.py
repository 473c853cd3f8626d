"""Summary records and reference extraction.

A :class:`Summary` is the pair of GAR lists (``MOD``, ``UE``) the paper
propagates.  Scalars participate uniformly: a scalar ``s`` is modeled as a
rank-1 array ``s(1)`` so that scalar privatization falls out of the same
machinery (guards included); the region layer never needs to know.

:func:`collect_uses` / :func:`reference_gar` turn individual Fortran
references into GARs; subscripts outside the symbolic subset produce Ω
references (inexact — they may read/write anywhere in the array).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..fortran.ast_nodes import Apply, Expr, NameRef
from ..regions import GAR, GARList, RegularRegion
from ..symbolic import Predicate, SymExpr
from .convert import ConversionContext, to_symexpr


@dataclass(frozen=True)
class Summary:
    """``MOD`` and ``UE`` of a program segment."""

    mod: GARList = field(default_factory=GARList)
    ue: GARList = field(default_factory=GARList)

    @classmethod
    def empty(cls) -> "Summary":
        return cls(GARList.empty(), GARList.empty())

    def is_empty(self) -> bool:
        """Both sets empty?"""
        return self.mod.is_empty() and self.ue.is_empty()

    def substitute(self, bindings: dict[str, SymExpr]) -> "Summary":
        """Value substitution into both sets."""
        if not bindings:
            return self
        return Summary(self.mod.substitute(bindings), self.ue.substitute(bindings))

    def __str__(self) -> str:
        return f"MOD={self.mod}  UE={self.ue}"


def scalar_region(name: str) -> RegularRegion:
    """The rank-1 region modeling scalar *name* (single cell)."""
    return RegularRegion.point(name, [SymExpr.const(1)])


def scalar_gar(name: str, guard: Predicate | None = None) -> GAR:
    """The GAR of one scalar cell, optionally guarded."""
    return GAR(guard if guard is not None else Predicate.true(), scalar_region(name))


def reference_gar(ref: Apply, ctx: ConversionContext) -> GAR:
    """The GAR of one array reference ``A(e1, ..., em)``.

    Unconvertible subscripts yield Ω dimensions (inexact).
    """
    subs: list[Optional[SymExpr]] = [to_symexpr(arg, ctx) for arg in ref.args]
    if all(s is not None for s in subs):
        return GAR.of_reference(ref.name, subs)  # type: ignore[arg-type]
    from ..regions.region import OMEGA_DIM
    from ..regions.ranges import Range

    dims = [
        Range.point(s) if s is not None else OMEGA_DIM  # type: ignore[arg-type]
        for s in subs
    ]
    return GAR(
        Predicate.true(), RegularRegion(ref.name, dims or [OMEGA_DIM]), exact=False
    )


def collect_uses(expr: Expr, ctx: ConversionContext) -> GARList:
    """All reads performed when evaluating *expr*: array elements and
    scalar variables (as rank-1 regions).  Loop indices are not reads of
    user storage and are excluded."""
    gars: list[GAR] = []

    def rec(node: Expr) -> None:
        if isinstance(node, NameRef):
            name = node.name
            if (
                name not in ctx.active_indices
                and name not in ctx.table.parameters
                and not ctx.table.is_array(name)
                and name != "*"
            ):
                gars.append(scalar_gar(name))
            return
        if isinstance(node, Apply):
            for arg in node.args:
                rec(arg)
            if node.is_array:
                gars.append(reference_gar(node, ctx))
            return
        for child in node.children():
            rec(child)

    rec(expr)
    return GARList(gars)
