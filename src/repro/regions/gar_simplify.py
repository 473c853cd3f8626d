"""The GAR simplifier (paper section 5.2, top level).

Invoked whenever GAR lists change during summary propagation.  It
eliminates redundant GARs and combines several GARs into one when
possible:

* drop GARs whose guard is provably unsatisfiable (the emptiness check —
  by construction the guard carries the region's ``lo <= hi`` conditions,
  so only the guard needs examining);
* drop a GAR covered by another (region containment + guard implication);
* merge two GARs with identical regions by OR-ing the guards;
* merge two GARs with identical (or implied) guards whose regions union
  into a single regular region.

All rewrites preserve the denoted set exactly, so exactness flags survive
except where noted inline.
"""

from __future__ import annotations

from operator import itemgetter

from ..perf.profiler import COUNTERS, MISS, BoundedCache
from ..resilience.budget import charge as _budget_charge
from ..symbolic import Comparer, predicate_implies, predicate_unsat_many
from .gar import GAR, GARList
from .region_ops import region_covers, region_union

#: beyond this many GARs the quadratic pairwise pass is skipped
MAX_PAIRWISE = 40
#: bounded fixpoint iterations
MAX_PASSES = 4

#: (gar tuple, context fingerprint, symbolic flag) → simplified GARList.
#: Propagation re-simplifies the same lists under the same guard context
#: on every pass (and again on every warm re-analysis in a resident
#: process); the result is a pure function of the key, so the memo is
#: invisible to summaries.
_SIMPLIFY_CACHE = BoundedCache("gar.simplify", maxsize=16384)


def _try_merge(g1: GAR, g2: GAR, cmp: Comparer) -> GAR | None:
    """A single GAR equal (as a set) to ``g1 ∪ g2``, or ``None``."""
    if g1.array != g2.array or g1.region.rank != g2.region.rank:
        return None
    exact = g1.exact and g2.exact
    if g1.region == g2.region:
        guard = g1.guard | g2.guard
        if not guard.is_unknown() or g1.guard.is_unknown() or g2.guard.is_unknown():
            return GAR(guard, g1.region, exact)
        return None
    if g1.guard == g2.guard:
        merged = region_union(g1.region, g2.region, cmp.refine(g1.guard))
        if merged is not None:
            return GAR(g1.guard, merged, exact)
    return None


def _covers(g1: GAR, g2: GAR, cmp: Comparer) -> bool:
    """Provably ``g2 ⊆ g1`` (so g2 is redundant in a union with g1)."""
    if g1.array != g2.array:
        return False
    if not predicate_implies(g2.guard, g1.guard, use_fm=cmp.use_fm):
        return False
    return region_covers(g1.region, g2.region, cmp.refine(g2.guard))


def simplify_gar_list(gars: GARList, cmp: Comparer) -> GARList:
    """Remove empty and redundant members; merge where possible.

    Results are memoized on (member tuple, comparer fingerprint): the
    simplifier is a pure function of the list order and the proof
    context, and propagation repeats both constantly.
    """
    COUNTERS.gar_simplify_calls += 1
    # one simplifier entry = one budget step, cached or not (budgeted
    # runs must terminate deterministically, see Comparer.prove)
    _budget_charge(1)
    key = (gars.gars, cmp._ctx_key, cmp.symbolic)
    cached = _SIMPLIFY_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _SIMPLIFY_CACHE.put(key, _simplify_gar_list_uncached(gars, cmp))


def _simplify_gar_list_uncached(gars: GARList, cmp: Comparer) -> GARList:
    # emptiness is a pure property of the GAR (its guard), so compute it
    # at most once per distinct GAR for the whole call — the per-pass
    # re-filter below used to re-prove it for every survivor
    empties: dict[GAR, bool] = {}

    def is_empty(g: GAR) -> bool:
        cached = empties.get(g)
        if cached is None:
            COUNTERS.gar_emptiness_checks += 1
            cached = empties[g] = g.provably_empty(use_fm=cmp.use_fm)
        return cached

    # pre-screen every member's guard in one batch submission to the
    # constraint core instead of one FM entry per member
    members = list(gars)
    if members:
        COUNTERS.gar_emptiness_checks += len(members)
        verdicts = predicate_unsat_many(
            [g.guard for g in members], use_fm=cmp.use_fm
        )
        for g, verdict in zip(members, verdicts):
            empties[g] = verdict
    work = [g for g in members if not empties[g]]
    if len(work) <= 1:
        return GARList(work)
    if len(work) > MAX_PAIRWISE:
        return GARList(work)
    # GARs of different arrays never merge or cover each other, so the
    # pairwise passes run within each array's members, tagged with their
    # list positions.  One pass loop and one ``changed`` flag serve all
    # arrays: an unchanged array still takes every pass a single list
    # would give it, so the proof work done is the same.
    groups: dict[str, list[tuple[int, GAR]]] = {}
    for pos, g in enumerate(work):
        groups.setdefault(g.array, []).append((pos, g))
    for _ in range(MAX_PASSES):
        changed = False
        for array, group in groups.items():
            group, merged = _merge_pass(group, cmp)
            group, dropped = _cover_pass(group, cmp)
            groups[array] = group
            changed = changed or merged or dropped
        # drop any newly-empty results; only a structural change (a merge
        # building new GARs) can introduce one, so skip the re-check when
        # the pass was a no-op
        if not changed:
            break
        for array, group in groups.items():
            groups[array] = [(pos, g) for pos, g in group if not is_empty(g)]
    survivors = sorted(
        (tagged for group in groups.values() for tagged in group),
        key=itemgetter(0),
    )
    return GARList(g for _, g in survivors)


def _merge_pass(
    group: list[tuple[int, GAR]], cmp: Comparer
) -> tuple[list[tuple[int, GAR]], bool]:
    """Pairwise merging; a merged GAR keeps its first member's position."""
    out: list[tuple[int, GAR]] = []
    consumed: set[int] = set()
    changed = False
    for i, (pos, current) in enumerate(group):
        if i in consumed:
            continue
        for j in range(i + 1, len(group)):
            if j in consumed:
                continue
            candidate = _try_merge(current, group[j][1], cmp)
            if candidate is not None:
                current = candidate
                consumed.add(j)
                changed = True
        out.append((pos, current))
    return out, changed


def _cover_pass(
    group: list[tuple[int, GAR]], cmp: Comparer
) -> tuple[list[tuple[int, GAR]], bool]:
    """Coverage-based redundancy removal (ties keep the earlier GAR)."""
    kept: list[tuple[int, GAR]] = []
    removed: set[int] = set()
    for i, (_, g) in enumerate(group):
        for j, (_, other) in enumerate(group):
            if i == j or j in removed:
                continue
            if _covers(other, g, cmp) and not (_covers(g, other, cmp) and j > i):
                removed.add(i)
                break
        else:
            kept.append(group[i])
    return kept, bool(removed)
