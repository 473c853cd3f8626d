"""Property tests for the hash-consing / memoization fast path.

Three invariant families:

* interned arithmetic agrees with a non-interned reference computation
  built directly from dict-of-monomial coefficient algebra;
* bounded insertion-order eviction (tiny caches, or clearing
  mid-stream) never changes any result — the caches are invisible to
  values;
* the ``Comparer`` proof memo never goes stale across ``refine()``:
  child and parent verdicts always match a freshly built comparer over
  the same context, in any interleaving.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import profiler
from repro.symbolic import Comparer, Monomial, SymExpr

from tests.conftest import all_caches_bounded

from .strategies import predicates, relations, sym_exprs


def _reference_terms(expr: SymExpr) -> dict:
    """The expression as a plain factor-tuple → coefficient dict."""
    return {mono.factors: coeff for mono, coeff in expr.terms}


def _reference_add(a: SymExpr, b: SymExpr) -> dict:
    out = dict(_reference_terms(a))
    for key, coeff in _reference_terms(b).items():
        merged = out.get(key, Fraction(0)) + coeff
        if merged:
            out[key] = merged
        else:
            out.pop(key, None)
    return out


def _reference_mul(a: SymExpr, b: SymExpr) -> dict:
    out: dict = {}
    for fa, ca in _reference_terms(a).items():
        for fb, cb in _reference_terms(b).items():
            merged: dict[str, int] = {}
            for name, power in list(fa) + list(fb):
                merged[name] = merged.get(name, 0) + power
            key = tuple(sorted(merged.items()))
            coeff = out.get(key, Fraction(0)) + ca * cb
            if coeff:
                out[key] = coeff
            else:
                out.pop(key, None)
    return out


@given(sym_exprs(), sym_exprs())
def test_interned_add_matches_reference(a, b):
    assert _reference_terms(a + b) == _reference_add(a, b)


@given(sym_exprs(), sym_exprs())
def test_interned_mul_matches_reference(a, b):
    assert _reference_terms(a * b) == _reference_mul(a, b)


@given(sym_exprs(), sym_exprs())
def test_interning_dedups_and_equality_survives_clear(a, b):
    s1 = a + b
    s2 = a + b
    assert s1 is s2  # memoized op: literally the same object
    profiler.clear_caches()
    s3 = a + b  # recomputed from scratch after eviction
    assert s1 == s3 and hash(s1) == hash(s3)
    assert _reference_terms(s1) == _reference_terms(s3)


@given(sym_exprs(), sym_exprs(), st.integers(1, 4))
@settings(max_examples=50)
def test_tiny_fifo_never_changes_results(a, b, cap):
    """Shrink every cache to a handful of slots mid-computation: heavy
    eviction must still produce structurally identical results."""
    big_add = a + b
    big_mul = a * b
    big_neg = -a
    with all_caches_bounded(cap):
        small_add = a + b
        small_mul = a * b
        small_neg = -a
    assert small_add == big_add
    assert small_mul == big_mul
    assert small_neg == big_neg


@given(sym_exprs())
def test_monomial_interning_roundtrip(a):
    for mono, _ in a.terms:
        rebuilt = Monomial(mono.factors)
        assert rebuilt == mono and hash(rebuilt) == hash(mono)


@given(predicates(), relations())
@settings(max_examples=60)
def test_prove_memo_matches_fresh_comparer(context, rel):
    """A warm memo must answer exactly like a cold comparer."""
    warm = Comparer(context)
    first = warm.prove(rel)
    second = warm.prove(rel)  # memo hit
    assert first == second
    profiler.clear_caches()
    cold = Comparer(context).prove(rel)
    assert first == cold


@given(predicates(), predicates(), relations())
@settings(max_examples=60)
def test_refine_memo_never_stale(context, extra, rel):
    """Verdicts through refine() match a comparer built directly over the
    conjoined context, and the parent's verdicts are unaffected."""
    parent = Comparer(context)
    before = parent.prove(rel)
    child = parent.refine(extra)
    child_verdict = child.prove(rel)
    # the parent must be untouched by the refinement
    assert parent.prove(rel) == before
    # a from-scratch comparer over the same conjunction, with every memo
    # cleared, must agree with the (possibly incremental) child
    profiler.clear_caches()
    fresh = Comparer(context & extra)
    assert child.prove(rel) == child_verdict  # recompute, no stale memo
    fresh_verdict = fresh.prove(rel)
    if frozenset(child._context_atoms) == frozenset(fresh._context_atoms):
        assert child_verdict == fresh_verdict
    else:
        # incremental refine may keep a superset of the rebuilt unit-atom
        # list (atoms subsumed by kept ones); verdicts must stay sound —
        # never flip between True and False
        assert None in (child_verdict, fresh_verdict) or (
            child_verdict == fresh_verdict
        )


@given(predicates(), relations())
@settings(max_examples=40)
def test_relation_negate_involution_after_clear(context, rel):
    n1 = rel.negate()
    profiler.clear_caches()
    n2 = rel.negate()
    assert n1 == n2
    assert n1.negate() == rel
