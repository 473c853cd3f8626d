"""Property tests: range/region/GAR set algebra vs the concrete-set oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import (
    GAR,
    GARList,
    Range,
    RegularRegion,
    range_covers,
    range_difference,
    range_intersect,
    range_union,
    region_covers,
    region_difference,
    region_intersect,
    region_union,
)
from repro.regions.gar_ops import (
    gar_subtract,
    intersect_lists,
    lists_intersect_empty,
    subtract_lists,
    union_lists,
)
from repro.regions.gar_simplify import simplify_gar_list
from repro.symbolic import Comparer, Env

from .strategies import (
    BOOL_NAMES,
    VAR_NAMES,
    concrete_ranges,
    concrete_regions,
    envs,
    gar_lists,
    guarded_gars,
    linear_exprs,
    predicates,
    sym_exprs,
)

CMP = Comparer()


def can_enumerate(gars) -> bool:
    return all(g.region.is_fully_known() for g in gars)


def range_set(r, env=Env()):
    return set(r.enumerate(env))


def pieces_set(pieces, env=Env()):
    out = set()
    for pred, rng in pieces:
        if pred.evaluate(env):
            out |= set(rng.enumerate(env))
    return out


# --- ranges -------------------------------------------------------------------


@given(concrete_ranges(), concrete_ranges())
def test_range_intersect_oracle(r1, r2):
    pieces = range_intersect(r1, r2, CMP)
    expect = range_set(r1) & range_set(r2)
    if pieces is None:
        return  # unknown is allowed, never wrong
    assert pieces_set(pieces) == expect


@given(concrete_ranges(), concrete_ranges())
def test_range_union_oracle(r1, r2):
    merged = range_union(r1, r2, CMP)
    if merged is None:
        return
    assert range_set(merged) == range_set(r1) | range_set(r2)


@given(concrete_ranges(), concrete_ranges())
def test_range_difference_oracle(r1, r2):
    pieces = range_difference(r1, r2, CMP)
    if pieces is None:
        return
    expect = range_set(r1) - range_set(r2)
    got = pieces_set(pieces)
    if range_set(r2) or not range_set(r1):
        assert got == expect
    else:
        # empty subtrahend handled at the GAR layer via guards; the raw
        # range formula may only over-approximate there
        assert got >= expect


@given(concrete_ranges(), concrete_ranges())
def test_range_covers_sound(r1, r2):
    if range_covers(r1, r2, CMP):
        assert range_set(r2) <= range_set(r1)


# --- regions -----------------------------------------------------------------


@given(concrete_regions(rank=2), concrete_regions(rank=2))
@settings(max_examples=60)
def test_region_intersect_oracle(r1, r2):
    gars = region_intersect(r1, r2, CMP)
    if not can_enumerate(gars):
        return  # an unknown dimension: nothing checkable extensionally
    expect = r1.enumerate(Env()) & r2.enumerate(Env())
    if gars.is_exact():
        assert gars.enumerate(Env()) == expect
    else:
        assert gars.enumerate(Env()) >= expect


@given(concrete_regions(rank=2), concrete_regions(rank=2))
@settings(max_examples=60)
def test_region_union_oracle(r1, r2):
    merged = region_union(r1, r2, CMP)
    if merged is None:
        return
    assert merged.enumerate(Env()) == r1.enumerate(Env()) | r2.enumerate(Env())


@given(concrete_regions(rank=2), concrete_regions(rank=2))
@settings(max_examples=60)
def test_region_difference_oracle(r1, r2):
    gars = region_difference(r1, r2, CMP)
    if gars is None:
        return
    expect = r1.enumerate(Env()) - r2.enumerate(Env())
    got = gars.enumerate(Env())
    if r2.enumerate(Env()):
        assert got == expect
    else:
        assert got >= expect


@given(concrete_regions(rank=2), concrete_regions(rank=2))
@settings(max_examples=60)
def test_region_covers_sound(r1, r2):
    if region_covers(r1, r2, CMP):
        assert r2.enumerate(Env()) <= r1.enumerate(Env())


# --- GAR lists ------------------------------------------------------------------


@given(gar_lists(), gar_lists(), envs())
@settings(max_examples=60)
def test_union_lists_oracle(a, b, env):
    got = union_lists(a, b, CMP)
    assert got.enumerate(env) == a.enumerate(env) | b.enumerate(env)


@given(gar_lists(), gar_lists(), envs())
@settings(max_examples=60)
def test_intersect_lists_oracle(a, b, env):
    got = intersect_lists(a, b, CMP)
    if not can_enumerate(got):
        return
    expect = a.enumerate(env) & b.enumerate(env)
    if got.is_exact():
        assert got.enumerate(env) == expect
    else:
        assert got.enumerate(env) >= expect


@given(gar_lists(), gar_lists(), envs())
@settings(max_examples=60)
def test_subtract_lists_over_approximates(a, b, env):
    """The subtraction contract: the result always contains the true
    difference (kills are only performed when provably safe)."""
    got = subtract_lists(a, b, CMP)
    expect = a.enumerate(env) - b.enumerate(env)
    assert got.enumerate(env) >= expect
    # and never exceeds the minuend
    assert got.enumerate(env) <= a.enumerate(env)


@given(gar_lists(), gar_lists(), envs())
@settings(max_examples=60)
def test_exact_subtraction_is_exact(a, b, env):
    got = subtract_lists(a, b, CMP)
    if got.is_exact() and a.is_exact() and b.is_exact():
        assert got.enumerate(env) == a.enumerate(env) - b.enumerate(env)


@given(guarded_gars(), gar_lists(), envs())
@settings(max_examples=60)
def test_inexact_subtrahend_never_kills(g, b, env):
    inexact = GARList.of(*(x.inexact() for x in b))
    got = subtract_lists(GARList.of(g), inexact, CMP)
    assert got.enumerate(env) == g.enumerate(env)


@given(gar_lists(), gar_lists(), envs())
@settings(max_examples=60)
def test_lists_intersect_empty_sound(a, b, env):
    if lists_intersect_empty(a, b, CMP):
        assert not (a.enumerate(env) & b.enumerate(env))


@given(gar_lists(), envs())
@settings(max_examples=60)
def test_simplifier_preserves_sets(lst, env):
    got = simplify_gar_list(lst, CMP)
    assert got.enumerate(env) == lst.enumerate(env)


@st.composite
def symbolic_gars(draw):
    """GARs whose regions carry symbolic ``lo <= hi`` conjuncts."""
    dims = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(linear_exprs(max_terms=2))
        hi = draw(linear_exprs(max_terms=2))
        dims.append(Range(lo, hi, draw(st.sampled_from([1, 1, 2]))))
    return GAR(draw(predicates()), RegularRegion("a", dims), draw(st.booleans()))


def same_gar(got, want):
    """Equal clause for clause, exactness included."""
    return (
        got.guard.is_unknown() == want.guard.is_unknown()
        and got.guard.clauses == want.guard.clauses
        and got.guard == want.guard
        and got.region == want.region
        and got.exact == want.exact
    )


@given(symbolic_gars(), st.data())
@settings(max_examples=200, deadline=None)
def test_substitute_binding_no_free_name_is_identity(g, data):
    names = VAR_NAMES + BOOL_NAMES + ["w"]
    unbound = [n for n in names if n not in g.free_vars()]
    bound = data.draw(st.lists(st.sampled_from(unbound), max_size=3))
    bindings = {n: data.draw(sym_exprs()) for n in bound}
    assert g.substitute(bindings) is g
    rebuilt = GAR(
        g.guard.substitute(bindings), g.region.substitute(bindings), g.exact
    )
    assert same_gar(g, rebuilt)


@given(symbolic_gars(), predicates())
@settings(max_examples=200, deadline=None)
def test_and_guard_matches_the_constructor(g, p):
    want = g if p.is_true() else GAR(
        g.guard & p, g.region, g.exact and not p.is_unknown()
    )
    assert same_gar(g.and_guard(p), want)
    assert same_gar(g.inexact(), GAR(g.guard, g.region, exact=False))

