"""GAR and GAR-list set operations (paper section 3.1, "GAR operations").

The nested-GAR notation ``[[P, Tlist]]`` of the paper — distribute ``P``
into every member of ``Tlist`` — is realized by
:meth:`~repro.regions.gar.GARList.and_guard`.

Soundness contract
------------------
* ``union`` and ``intersect`` accept inexact (over-approximating) operands
  and produce correspondingly inexact results.
* ``subtract`` **kills only with exact subtrahends**: an inexact GAR on the
  right-hand side must not remove elements, so it is skipped and the result
  is marked inexact (it then over-approximates the true difference, which
  is the safe direction for upward-exposed-use sets).
"""

from __future__ import annotations

from ..perf.profiler import MISS, BoundedCache
from ..symbolic import Comparer
from . import sanitize
from .gar import GAR, GARList
from .gar_simplify import simplify_gar_list
from .region_ops import region_difference, region_intersect

#: (op tag, T1, T2, context fingerprint, symbolic flag) → GARList.  The
#: pairwise GAR operations are pure functions of the operands and the
#: proof context; propagation and the resident daemon repeat them
#: constantly, so one shared memo covers intersect and subtract.
_PAIR_CACHE = BoundedCache("gar.pair_ops", maxsize=32768)


def _pair_key(tag: str, t1: GAR, t2: GAR, cmp: Comparer) -> tuple:
    return (tag, t1, t2, cmp._ctx_key, cmp.symbolic)


def gar_intersect(t1: GAR, t2: GAR, cmp: Comparer) -> GARList:
    """``T1 ∩ T2 = [[P1 ∧ P2, R1 ∩ R2]]``."""
    key = _pair_key("i", t1, t2, cmp)
    cached = _PAIR_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _PAIR_CACHE.put(key, _gar_intersect_uncached(t1, t2, cmp))


def _gar_intersect_uncached(t1: GAR, t2: GAR, cmp: Comparer) -> GARList:
    guard = t1.guard & t2.guard
    if guard.is_false():
        return GARList.empty()
    inner = region_intersect(t1.region, t2.region, cmp.refine(guard))
    result = inner.and_guard(guard)
    if not (t1.exact and t2.exact):
        result = result.inexact()
    return result


def gar_subtract(t1: GAR, t2: GAR, cmp: Comparer) -> GARList:
    """``T1 - T2 = [[P1 ∧ P2, R1 - R2]] ∪ [P1 ∧ ¬P2, R1]``.

    When the subtrahend is inexact, has an unknown guard, or the region
    difference is unrepresentable, the result is ``T1`` marked inexact
    (a safe over-approximation of the true difference).
    """
    key = _pair_key("s", t1, t2, cmp)
    cached = _PAIR_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _PAIR_CACHE.put(key, _gar_subtract_uncached(t1, t2, cmp))


def _gar_subtract_uncached(t1: GAR, t2: GAR, cmp: Comparer) -> GARList:
    if not t2.exact or t2.guard.is_unknown():
        return GARList.of(t1.inexact())
    if t1.region.array != t2.region.array or t1.region.rank != t2.region.rank:
        return GARList.of(t1)
    both = t1.guard & t2.guard
    not_p2 = t2.guard.negate()
    escape = GAR(t1.guard & not_p2, t1.region, t1.exact and not not_p2.is_unknown())
    if not_p2.is_unknown():
        # cannot represent the complement: keep T1 but inexact
        escape = t1.inexact()
        return GARList.of(escape)
    if both.is_false():
        return GARList.of(GAR(t1.guard, t1.region, t1.exact))
    diff = region_difference(t1.region, t2.region, cmp.refine(both))
    if diff is None:
        # unrepresentable difference: over-approximate by T1 restricted to
        # the two guard branches (still a superset of the true difference)
        return GARList.of(GAR(both, t1.region, False), escape)
    pieces = diff.and_guard(both)
    if not t1.exact:
        pieces = pieces.inexact()
    return pieces.union(GARList.of(escape))


# -- list-level operations ------------------------------------------------------


def union_lists(a: GARList, b: GARList, cmp: Comparer) -> GARList:
    """Union of two summaries: their concatenation, simplified (the
    simplifier merges same-region and same-guard pairs)."""
    result = simplify_gar_list(a.union(b), cmp)
    if sanitize.enabled():
        sanitize.check("union", a, b, result)
    return result


def intersect_lists(a: GARList, b: GARList, cmp: Comparer) -> GARList:
    """Pairwise intersection of two summaries (distributes over union)."""
    out = GARList.empty()
    for x in a:
        for y in b:
            if x.array != y.array:
                continue
            out = out.union(gar_intersect(x, y, cmp))
    result = simplify_gar_list(out, cmp)
    if sanitize.enabled():
        sanitize.check("intersect", a, b, result)
    return result


def subtract_lists(minuend: GARList, subtrahend: GARList, cmp: Comparer) -> GARList:
    """``minuend - subtrahend``: fold the right list through the left.

    ``(A ∪ B) - C = (A - C) ∪ (B - C)`` and ``X - (C ∪ D) = (X - C) - D``.
    """
    current = minuend
    for y in subtrahend:
        next_pieces = GARList.empty()
        for x in current:
            if x.array != y.array:
                next_pieces = next_pieces.add(x)
            else:
                next_pieces = next_pieces.union(gar_subtract(x, y, cmp))
        current = simplify_gar_list(next_pieces, cmp)
    if sanitize.enabled():
        sanitize.check("subtract", minuend, subtrahend, current)
    return current


def lists_intersect_empty(a: GARList, b: GARList, cmp: Comparer) -> bool:
    """Provably ``a ∩ b = ∅`` — the workhorse of the dependence tests.

    Sound with over-approximating operands: if even the over-approximated
    intersection is empty, the true one is.
    """
    inter = intersect_lists(a, b, cmp)
    return inter.provably_empty(use_fm=cmp.use_fm)
