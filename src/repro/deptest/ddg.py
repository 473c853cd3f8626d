"""Conventional loop dependence screening (the paper's pre-filter).

Section 6: "The more expensive array dataflow analysis is applied only to
loops whose parallelizability cannot be determined by the conventional
data dependence tests."  This module is that first stage: pairwise GCD /
Banerjee / symbolic-range tests over the references of a loop.

The conventional tests perform memory disambiguation only — they know
nothing about value flow, IF conditions, or interprocedural effects, so
their possible verdicts per loop are:

* ``INDEPENDENT`` — no reference pair of any array can alias across
  iterations and no scalar is written: the loop is parallel outright;
* ``POSSIBLE_DEPENDENCE`` — some pair may alias (or was unanalyzable):
  hand the loop to the array dataflow analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from ..dataflow.convert import ConversionContext, to_symexpr
from ..fortran.ast_nodes import Assign, NameRef
from ..hsg.cfg import walk
from ..hsg.nodes import BasicBlockNode, CallNode, CondensedNode, LoopNode
from ..symbolic import Comparer, SymExpr
from .banerjee import LoopBounds, banerjee_test
from .gcd import gcd_test
from .range_test import siv_independent
from .subscript import ArrayReference, collect_references


class ScreenVerdict(enum.Enum):
    """Outcome of the conventional-tests screening of one loop."""

    INDEPENDENT = "independent"
    POSSIBLE_DEPENDENCE = "possible-dependence"


@dataclass
class PairResult:
    src: ArrayReference
    dst: ArrayReference
    independent: Optional[bool]
    test: str


@dataclass
class ScreenReport:
    verdict: ScreenVerdict
    pairs: list[PairResult] = field(default_factory=list)
    scalars_written: list[str] = field(default_factory=list)

    def blocking_pairs(self) -> list[PairResult]:
        """Pairs the tests could not prove independent."""
        return [p for p in self.pairs if p.independent is not True]


def _numeric_bounds(
    loop: LoopNode, ctx: ConversionContext
) -> dict[str, LoopBounds]:
    """Constant bounds for the loop and its perfectly-known inner loops."""
    out: dict[str, LoopBounds] = {}

    def visit(node: LoopNode, inner: ConversionContext) -> None:
        lo = to_symexpr(node.start, inner)
        hi = to_symexpr(node.stop, inner)
        step = to_symexpr(node.step, inner) if node.step is not None else SymExpr.const(1)
        if lo is not None and hi is not None and step is not None:
            lov, hiv, sv = (
                lo.constant_value(),
                hi.constant_value(),
                step.constant_value(),
            )
            if (
                lov is not None
                and hiv is not None
                and sv is not None
                and lov.denominator == hiv.denominator == sv.denominator == 1
                and sv != 0
            ):
                out[node.var] = LoopBounds(
                    node.var, lov.numerator, hiv.numerator, sv.numerator
                )

    visit(loop, ctx)
    # a loop's bounds convert with the indices of the loops around it
    contexts = {loop: ctx.with_index(loop.var)}
    for node, enclosing in walk(loop.body):
        if isinstance(node, LoopNode):
            inner = contexts[enclosing[-1] if enclosing else loop]
            visit(node, inner)
            contexts[node] = inner.with_index(node.var)
    return out


def _pair_independent(
    a: ArrayReference,
    b: ArrayReference,
    loop: LoopNode,
    bounds: dict[str, LoopBounds],
    ctx: ConversionContext,
    cmp: Comparer,
) -> PairResult:
    subs_a = list(a.subscripts)
    subs_b = list(b.subscripts)
    if len(subs_a) != len(subs_b):
        return PairResult(a, b, None, "rank-mismatch")
    indices = tuple(dict.fromkeys(a.nest + b.nest))
    if gcd_test(subs_a, subs_b, indices) is False:
        return PairResult(a, b, True, "gcd")
    if banerjee_test(subs_a, subs_b, indices, bounds) is False:
        return PairResult(a, b, True, "banerjee")
    # symbolic SIV on the loop being screened
    if len(subs_a) == len(subs_b):
        lo = to_symexpr(loop.start, ctx) or SymExpr.var("?lo")
        hi = to_symexpr(loop.stop, ctx) or SymExpr.var("?hi")
        all_independent = True
        any_decided = False
        for s, d in zip(subs_a, subs_b):
            if s is None or d is None:
                all_independent = False
                continue
            r = siv_independent(s, d, loop.var, lo, hi, cmp)
            if r is True:
                return PairResult(a, b, True, "symbolic-siv")
            if r is None:
                all_independent = False
            else:
                any_decided = True
        if any_decided and not all_independent:
            return PairResult(a, b, False, "symbolic-siv")
    return PairResult(a, b, None, "inconclusive")


def screen_loop(
    loop: LoopNode, ctx: ConversionContext, cmp: Comparer
) -> ScreenReport:
    """Run the conventional tests over every conflicting reference pair.

    A call or a condensed backward-GOTO cycle in the body is a barrier:
    the tests see neither a callee's effects nor how often a cycle runs,
    so such a loop goes to the interprocedural dataflow (section 6).
    """
    if any(
        isinstance(node, (CallNode, CondensedNode)) for node, _ in walk(loop.body)
    ):
        return ScreenReport(ScreenVerdict.POSSIBLE_DEPENDENCE)
    refs = collect_references(loop, ctx)
    bounds = _numeric_bounds(loop, ctx)
    report = ScreenReport(ScreenVerdict.INDEPENDENT)
    # scalar writes always carry (output) dependences for these tests
    scalars = _scalar_writes(loop, ctx)
    report.scalars_written = sorted(scalars)
    pairs: list[tuple[ArrayReference, ArrayReference]] = []
    for x, y in combinations(refs, 2):
        if x.array != y.array:
            continue
        if not (x.is_write or y.is_write):
            continue
        pairs.append((x, y))
    for x in refs:
        if x.is_write:
            pairs.append((x, x))  # self output-dependence across iterations
    for x, y in pairs:
        report.pairs.append(_pair_independent(x, y, loop, bounds, ctx, cmp))
    if report.scalars_written or any(
        p.independent is not True for p in report.pairs
    ):
        report.verdict = ScreenVerdict.POSSIBLE_DEPENDENCE
    return report


def _scalar_writes(loop: LoopNode, ctx: ConversionContext) -> set[str]:
    out: set[str] = set()
    for node, _ in walk(loop.body):
        if isinstance(node, BasicBlockNode):
            out.update(
                stmt.target.name
                for stmt in node.stmts
                if isinstance(stmt, Assign) and isinstance(stmt.target, NameRef)
            )
        elif isinstance(node, LoopNode):
            out.add(node.var)
    return out
