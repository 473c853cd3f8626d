"""Property test: the per-array GAR simplifier against a single-list
reference.

The production simplifier runs its pairwise passes within each array's
members.  The reference below is the single-list formulation it
replaced, kept here verbatim in behaviour: one list, every pair tried.
Both must return the same GARs in the same order and ask the Comparer
the same number of questions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.profiler import COUNTERS
from repro.regions import GAR, GARList, Range, RegularRegion
from repro.regions.gar_simplify import (
    MAX_PAIRWISE,
    MAX_PASSES,
    _covers,
    _simplify_gar_list_uncached,
    _try_merge,
)
from repro.symbolic import Comparer, Predicate, predicate_unsat_many, sym


def _reference_simplify(gars: GARList, cmp: Comparer) -> GARList:
    empties: dict[GAR, bool] = {}

    def is_empty(g: GAR) -> bool:
        cached = empties.get(g)
        if cached is None:
            COUNTERS.gar_emptiness_checks += 1
            cached = empties[g] = g.provably_empty(use_fm=cmp.use_fm)
        return cached

    members = list(gars)
    if members:
        COUNTERS.gar_emptiness_checks += len(members)
        verdicts = predicate_unsat_many(
            [g.guard for g in members], use_fm=cmp.use_fm
        )
        for g, verdict in zip(members, verdicts):
            empties[g] = verdict
    work = [g for g in members if not empties[g]]
    if len(work) <= 1 or len(work) > MAX_PAIRWISE:
        return GARList(work)
    for _ in range(MAX_PASSES):
        changed = False
        merged_out: list[GAR] = []
        consumed: set[int] = set()
        for i, g1 in enumerate(work):
            if i in consumed:
                continue
            current = g1
            for j in range(i + 1, len(work)):
                if j in consumed:
                    continue
                candidate = _try_merge(current, work[j], cmp)
                if candidate is not None:
                    current = candidate
                    consumed.add(j)
                    changed = True
            merged_out.append(current)
        work = merged_out
        kept: list[GAR] = []
        removed: set[int] = set()
        for i, g in enumerate(work):
            redundant = False
            for j, other in enumerate(work):
                if i == j or j in removed:
                    continue
                if _covers(other, g, cmp) and not (_covers(g, other, cmp) and j > i):
                    redundant = True
                    break
            if redundant:
                removed.add(i)
                changed = True
            else:
                kept.append(g)
        work = kept
        if not changed:
            break
        work = [g for g in work if not is_empty(g)]
    return GARList(work)


_GUARDS = [
    Predicate.true(),
    Predicate.boolvar("p"),
    Predicate.boolvar("p", False),
    Predicate.le("x", "n"),
    Predicate.lt("n", "x"),
]


@st.composite
def _gars(draw):
    """A rank-1 GAR over one of three arrays with symbolic bounds, so
    that members of one array merge, cover and need proofs."""
    base = draw(st.sampled_from([sym(0), sym("x"), sym("n")]))
    lo = base + draw(st.integers(-2, 2))
    hi = draw(st.sampled_from([base, sym("n"), sym("x")])) + draw(
        st.integers(-1, 4)
    )
    region = RegularRegion(
        draw(st.sampled_from(["a", "b", "c"])),
        [Range(lo, hi, draw(st.sampled_from([1, 1, 2])))],
    )
    return GAR(draw(st.sampled_from(_GUARDS)), region)


def _run(fn, gars: GARList, cmp: Comparer):
    before = (COUNTERS.prove_calls, COUNTERS.gar_emptiness_checks)
    out = fn(gars, cmp)
    return out, (
        COUNTERS.prove_calls - before[0],
        COUNTERS.gar_emptiness_checks - before[1],
    )


@settings(max_examples=150)
@given(
    st.lists(_gars(), max_size=8),
    st.sampled_from([Predicate.true(), Predicate.le(1, "n")]),
)
def test_per_array_passes_match_single_list(members, context):
    cmp = Comparer(context)
    gars = GARList(members)
    got, got_work = _run(_simplify_gar_list_uncached, gars, cmp)
    want, want_work = _run(_reference_simplify, gars, cmp)
    assert got.gars == want.gars
    assert got_work == want_work
