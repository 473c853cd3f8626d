"""Unit tests for GAR set operations (paper section 3.1, GAR operations)."""

from repro.symbolic import Comparer, Env, Predicate, sym
from repro.regions import (
    GAR,
    GARList,
    Range,
    RegularRegion,
    gar_intersect,
    gar_subtract,
    intersect_lists,
    lists_intersect_empty,
    subtract_lists,
    union_lists,
)


def gar(lo, hi, guard=None, array="a", exact=True):
    return GAR(
        guard if guard is not None else Predicate.true(),
        RegularRegion(array, [Range(lo, hi)]),
        exact,
    )


def check_concrete(got: GARList, expect: set, env=None):
    assert got.enumerate(env or Env()) == {(x,) for x in expect}


class TestGARIntersect:
    def test_guards_conjoin(self, cmp):
        t1 = gar(1, 10, Predicate.boolvar("p"))
        t2 = gar(5, 20, Predicate.boolvar("q"))
        out = gar_intersect(t1, t2, cmp)
        check_concrete(out, set(range(5, 11)), Env(p=1, q=1))
        check_concrete(out, set(), Env(p=1, q=0))

    def test_contradictory_guards_empty(self, cmp):
        t1 = gar(1, 10, Predicate.boolvar("p"))
        t2 = gar(5, 20, Predicate.boolvar("p", False))
        assert gar_intersect(t1, t2, cmp).is_empty()

    def test_paper_window_vs_point(self, cmp):
        # [p, (jlow:jup)] n [not p, (jmax)] is empty by guards alone
        t1 = gar("jlow", "jup", Predicate.boolvar("p"))
        t2 = gar("jmax", "jmax", Predicate.boolvar("p", False))
        assert gar_intersect(t1, t2, cmp).provably_empty()

    def test_inexact_operand_inexact_result(self, cmp):
        t1 = gar(1, 10, exact=False)
        t2 = gar(5, 20)
        out = gar_intersect(t1, t2, cmp)
        assert all(not g.exact for g in out)


class TestGARUnion:
    """The paper's ``T1 ∪ T2``: list concatenation plus the simplifier's
    same-region and same-guard merges."""

    def test_same_region_guards_or(self, cmp):
        t1 = gar(1, 10, Predicate.boolvar("p"))
        t2 = gar(1, 10, Predicate.boolvar("p", False))
        out = union_lists(GARList.of(t1), GARList.of(t2), cmp)
        assert len(out) == 1
        assert out.gars[0].guard.is_true()

    def test_same_guard_regions_merge(self, cmp):
        t1 = gar(1, 5)
        t2 = gar(6, 10)
        out = union_lists(GARList.of(t1), GARList.of(t2), cmp)
        assert len(out) == 1
        check_concrete(out, set(range(1, 11)))

    def test_paper_adjacent_symbolic(self, cmp):
        # T1 = [a<=b, (a:b)], T2 = [b<=c, (b:c)]: same set in every case
        t1 = gar("a", "b", Predicate.le("a", "b"))
        t2 = gar("b", "c", Predicate.le("b", "c"))
        out = union_lists(GARList.of(t1), GARList.of(t2), cmp)
        for env in (Env(a=1, b=5, c=9), Env(a=5, b=2, c=9), Env(a=1, b=9, c=2)):
            expect = t1.enumerate(env) | t2.enumerate(env)
            assert out.enumerate(env) == expect

    def test_implication_case_merges(self):
        c = Comparer()
        t1 = gar(1, 5, Predicate.boolvar("p") & Predicate.boolvar("q"))
        t2 = gar(6, 10, Predicate.boolvar("p"))
        out = union_lists(GARList.of(t1), GARList.of(t2), c)
        for env in (Env(p=1, q=1), Env(p=1, q=0), Env(p=0, q=0)):
            assert out.enumerate(env) == t1.enumerate(env) | t2.enumerate(env)

    def test_unmergeable_stays_list(self, cmp):
        t1 = gar(1, 3, Predicate.boolvar("p"))
        t2 = gar(7, 9, Predicate.boolvar("q"))
        out = union_lists(GARList.of(t1), GARList.of(t2), cmp)
        assert set(out.gars) == {t1, t2}


class TestGARSubtract:
    def test_plain_subtract(self, cmp):
        out = gar_subtract(gar(1, 10), gar(4, 6), cmp)
        check_concrete(out, {1, 2, 3, 7, 8, 9, 10})

    def test_guarded_subtrahend_escape_branch(self, cmp):
        # writing (4:6) only when p: without p nothing is killed
        out = gar_subtract(gar(1, 10), gar(4, 6, Predicate.boolvar("p")), cmp)
        check_concrete(out, {1, 2, 3, 7, 8, 9, 10}, Env(p=1))
        check_concrete(out, set(range(1, 11)), Env(p=0))

    def test_figure5_shape(self, cmp):
        # (jlow:jup) use minus (jmax) write: boundary case split
        use = gar("jlow", "jup")
        write = gar("jmax", "jmax")
        out = gar_subtract(use, write, cmp)
        for env in (
            Env(jlow=2, jup=9, jmax=5),
            Env(jlow=2, jup=9, jmax=2),
            Env(jlow=2, jup=9, jmax=9),
            Env(jlow=2, jup=9, jmax=40),
        ):
            expect = use.enumerate(env) - write.enumerate(env)
            assert out.enumerate(env) == expect

    def test_inexact_subtrahend_does_not_kill(self, cmp):
        minuend = gar(1, 10)
        subtrahend = gar(1, 10, exact=False)
        out = gar_subtract(minuend, subtrahend, cmp)
        check_concrete(out, set(range(1, 11)))
        assert all(not g.exact for g in out)

    def test_unknown_guard_subtrahend_does_not_kill(self, cmp):
        out = gar_subtract(gar(1, 10), gar(1, 10, Predicate.unknown()), cmp)
        check_concrete(out, set(range(1, 11)))

    def test_different_arrays_untouched(self, cmp):
        out = gar_subtract(gar(1, 10), gar(1, 10, array="b"), cmp)
        check_concrete(out, set(range(1, 11)))

    def test_exact_total_kill(self, cmp):
        out = gar_subtract(gar(1, "n"), gar(1, "n"), cmp)
        assert out.provably_empty()


class TestListOps:
    def test_union_lists_simplifies(self, cmp):
        a = GARList.of(gar(1, 5))
        b = GARList.of(gar(6, 10))
        out = union_lists(a, b, cmp)
        assert len(out) == 1

    def test_intersect_lists_distributes(self, cmp):
        a = GARList.of(gar(1, 5), gar(20, 30))
        b = GARList.of(gar(3, 25))
        out = intersect_lists(a, b, cmp)
        check_concrete(out, {3, 4, 5} | set(range(20, 26)))

    def test_intersect_lists_skips_other_arrays(self, cmp):
        a = GARList.of(gar(1, 5))
        b = GARList.of(gar(1, 5, array="b"))
        assert intersect_lists(a, b, cmp).is_empty()

    def test_subtract_lists_folds(self, cmp):
        minuend = GARList.of(gar(1, 10))
        subtrahend = GARList.of(gar(2, 3), gar(7, 8))
        out = subtract_lists(minuend, subtrahend, cmp)
        check_concrete(out, {1, 4, 5, 6, 9, 10})

    def test_lists_intersect_empty(self, cmp):
        a = GARList.of(gar(1, 5))
        b = GARList.of(gar(7, 9))
        assert lists_intersect_empty(a, b, cmp)
        assert not lists_intersect_empty(a, GARList.of(gar(5, 9)), cmp)

    def test_lists_intersect_empty_symbolic_guarded(self, cmp):
        # a(i) for i in prior iterations vs a(i) used now: guard i >= 2
        use = GARList.of(gar("i", "i"))
        prior = GARList.of(gar(1, sym("i") - 1, Predicate.ge("i", 2)))
        assert lists_intersect_empty(use, prior, cmp)
