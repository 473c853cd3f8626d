"""Property test: the memoized section 4.1 expansion against the uncached
one.

``expand_gar_list`` keeps its results in a bounded memo keyed like the
simplifier's (member tuple, index, bounds, step, proof context).  From
empty memo tables a miss must return the same GARs, in the same order,
and ask the Comparer and the simplifier the same questions as the
uncached expansion; a repeat must return them again without any work but
its one budget step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.expansion import _expand_gar_list_uncached, expand_gar_list
from repro.perf import profiler
from repro.perf.profiler import COUNTERS
from repro.regions import GAR, GARList, Range, RegularRegion
from repro.resilience.budget import AnalysisBudget, budget_scope
from repro.symbolic import Comparer, Predicate, sym

_WORK = ("prove_calls", "fm_eliminations", "gar_simplify_calls",
         "gar_emptiness_checks")

_GUARDS = [
    Predicate.true(),
    Predicate.boolvar("p"),
    Predicate.le("i", "n"),
    Predicate.le(2, "i"),
    Predicate.le("x", "i"),
    Predicate.eq("i", "x"),
]


@st.composite
def _subscripts(draw):
    """A point or window over the index ``i``, or one free of it."""
    coeff = draw(st.sampled_from([0, 1, 1, 2, -1]))
    base = sym("i") * coeff + draw(st.sampled_from([sym(0), sym("x"), sym("n")]))
    base = base + draw(st.integers(-2, 2))
    if draw(st.booleans()):
        return Range.point(base)
    return Range(base, base + draw(st.integers(0, 3)), 1)


@st.composite
def _gars(draw):
    dims = [draw(_subscripts()) for _ in range(draw(st.integers(1, 2)))]
    region = RegularRegion(draw(st.sampled_from(["a", "b"])), dims)
    return GAR(draw(st.sampled_from(_GUARDS)), region)


_BOUNDS = [
    (sym(1), sym("n"), sym(1)),
    (sym(1), sym("i") - 1, sym(1)),
    (sym("i") + 1, sym("n"), sym(1)),
    (sym(1), sym("n"), sym(2)),
]


def _run(fn, *args):
    before = [getattr(COUNTERS, name) for name in _WORK]
    budget = AnalysisBudget(max_steps=10**9)
    with budget_scope(budget):
        out = fn(*args)
    work = tuple(getattr(COUNTERS, n) - b for n, b in zip(_WORK, before))
    return out, work, budget.steps


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_gars(), max_size=5),
    st.sampled_from(_BOUNDS),
    st.sampled_from([Predicate.true(), Predicate.le(1, "n")]),
)
def test_memoized_expansion_matches_uncached(members, bounds, context):
    # the index being expanded is a renamed one, as in SUM_loop
    gars = GARList(members).substitute({"i": sym("i%1")})
    args = (gars, "i%1", *bounds, Comparer(context))
    profiler.clear_caches()
    want, want_work, want_steps = _run(_expand_gar_list_uncached, *args)
    profiler.clear_caches()
    got, got_work, got_steps = _run(expand_gar_list, *args)
    assert got.gars == want.gars
    assert got_work == want_work
    # the memo's own entry charges one step on top of the same work
    assert got_steps == want_steps + 1
    again, again_work, again_steps = _run(expand_gar_list, *args)
    assert again.gars == want.gars
    assert again_work == (0, 0, 0, 0)
    assert again_steps == 1


_COMPARERS = [
    lambda: Comparer(),
    lambda: Comparer(Predicate.le(1, "n")),
    lambda: Comparer(use_fm=False),
    lambda: Comparer(symbolic=False),
]


@settings(max_examples=60, deadline=None)
@given(st.lists(_gars(), min_size=1, max_size=4))
def test_memo_key_tells_every_argument_apart(members):
    """One memo serves every index, bound, step and proof context: each
    answer equals the uncached expansion under its own arguments."""
    gars = GARList(members).substitute({"i": sym("i%1")})
    profiler.clear_caches()
    for make in _COMPARERS:
        for index in ("i%1", "x"):
            for bounds in _BOUNDS:
                got = expand_gar_list(gars, index, *bounds, make())
                want = _expand_gar_list_uncached(gars, index, *bounds, make())
                assert got.gars == want.gars
