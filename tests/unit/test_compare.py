"""Unit tests for the Comparer facade (repro.symbolic.compare)."""

from repro.symbolic import (
    Comparer,
    Predicate,
    Relation,
    predicate_implies,
    predicate_unsat,
    sym,
)


class TestConstantFolding:
    def test_constants(self, cmp):
        assert cmp.le(1, 2) is True
        assert cmp.le(3, 2) is False
        assert cmp.eq(2, 2) is True
        assert cmp.ne(2, 3) is True

    def test_identical_expressions(self, cmp):
        assert cmp.eq(sym("n") + 1, sym("n") + 1) is True
        assert cmp.le(sym("n"), sym("n")) is True

    def test_constant_difference(self, cmp):
        assert cmp.lt(sym("n"), sym("n") + 1) is True
        assert cmp.le(sym("n") + 2, sym("n")) is False


class TestContext:
    def test_unit_atom_context(self):
        c = Comparer(Predicate.le("i", "n"))
        assert c.le("i", "n") is True
        assert c.le("i", sym("n") + 5) is True

    def test_fm_chain_context(self):
        c = Comparer(Predicate.le("i", "j") & Predicate.le("j", "n"))
        assert c.le("i", "n") is True

    def test_refutation(self):
        c = Comparer(Predicate.ge("i", 5))
        assert c.le("i", 3) is False

    def test_unknowable(self, cmp):
        assert cmp.le("i", "n") is None

    def test_refine(self, cmp):
        refined = cmp.refine(Predicate.le("i", 3))
        assert refined.le("i", 5) is True
        assert cmp.le("i", 5) is None

    def test_refine_with_true_returns_self(self, cmp):
        assert cmp.refine(Predicate.true()) is cmp

    def test_ne_context(self):
        c = Comparer(Predicate.le("i", 3))
        assert c.ne("i", 5) is True


class TestNonSymbolicMode:
    def test_constants_still_work(self):
        c = Comparer(symbolic=False)
        assert c.le(1, 2) is True
        assert c.le(3, 1) is False

    def test_symbolic_comparisons_fail(self):
        c = Comparer(Predicate.le("i", 3), symbolic=False)
        assert c.le("i", 5) is None
        assert c.le("i", "n") is None

    def test_identical_terms_still_cancel(self):
        # term cancellation happens in the relation normalizer, which is
        # part of the representation, not of symbolic *reasoning*
        c = Comparer(symbolic=False)
        assert c.le(sym("i"), sym("i")) is True
        assert c.lt(sym("n"), sym("n") + 1) is True


class TestPredicateHelpers:
    def test_predicate_unsat(self):
        # build an unsat CNF that the constructor alone does not fold:
        # relies on FM over i <= j, j <= i - 1
        p = Predicate.le("i", "j") & Predicate.le("j", sym("i") - 1)
        assert predicate_unsat(p)

    def test_predicate_unsat_false_literal(self):
        assert predicate_unsat(Predicate.false())

    def test_predicate_sat(self):
        assert not predicate_unsat(Predicate.le("i", "j"))

    def test_predicate_implies_syntactic(self):
        a = Predicate.le("i", 3)
        assert predicate_implies(a, Predicate.le("i", 5))

    def test_predicate_implies_via_fm(self):
        a = Predicate.le("i", "j") & Predicate.le("j", "k")
        assert predicate_implies(a, Predicate.le("i", "k"))

    def test_predicate_implies_negative(self):
        assert not predicate_implies(Predicate.le("i", 5), Predicate.le("i", 3))

    def test_predicate_implies_clause_target(self):
        a = Predicate.le("i", 3)
        target = Predicate.le("i", 9) | Predicate.boolvar("p")
        assert predicate_implies(a, target)
