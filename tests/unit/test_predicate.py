"""Unit tests for CNF predicates (repro.symbolic.predicate)."""

import pytest

from repro.symbolic import (
    BoolAtom,
    Disjunction,
    Predicate,
    Relation,
    RelOp,
    sym,
)
from repro.symbolic.predicate import MAX_CLAUSES


class TestDisjunction:
    def test_drops_false_atoms(self):
        d = Disjunction([Relation.le(3, 2), Relation.le("i", 5)])
        assert d.atoms == frozenset({Relation.le("i", 5)})

    def test_true_atom_makes_tautology(self):
        d = Disjunction([Relation.le(1, 2), Relation.le("i", 5)])
        assert d.always_true

    def test_empty_is_false(self):
        assert Disjunction([]).is_false()
        assert Disjunction([Relation.le(3, 2)]).is_false()

    def test_absorbs_stronger_atom(self):
        # (i<=3) OR (i<=5) == (i<=5)
        d = Disjunction([Relation.le("i", 3), Relation.le("i", 5)])
        assert d.atoms == frozenset({Relation.le("i", 5)})

    def test_complement_pair_tautology(self):
        d = Disjunction([Relation.le("i", 3), Relation.ge("i", 4)])
        assert d.always_true

    def test_real_complement_tautology(self):
        gt = Relation.gt("x", "s", integer=False)
        le = Relation.le("x", "s", integer=False)
        assert Disjunction([gt, le]).always_true

    def test_bool_complement_tautology(self):
        assert Disjunction([BoolAtom("p"), BoolAtom("p", False)]).always_true

    def test_subsumes(self):
        small = Disjunction([Relation.le("i", 3)])
        big = Disjunction([Relation.le("i", 5), BoolAtom("p")])
        assert small.subsumes(big)
        assert not big.subsumes(small)

    def test_evaluate(self):
        d = Disjunction([Relation.le("i", 3), BoolAtom("p")])
        assert d.evaluate({"i": 1, "p": 0}) is True
        assert d.evaluate({"i": 9, "p": 1}) is True
        assert d.evaluate({"i": 9, "p": 0}) is False


class TestPredicateBasics:
    def test_constants(self):
        assert Predicate.true().is_true()
        assert Predicate.false().is_false()
        assert Predicate.unknown().is_unknown()

    def test_of_atom_constant_folds(self):
        assert Predicate.le(1, 2).is_true()
        assert Predicate.le(3, 2).is_false()

    def test_of_atom_symbolic(self):
        p = Predicate.le("i", "n")
        assert p.is_cnf()
        assert len(p.clauses) == 1

    def test_boolvar(self):
        p = Predicate.boolvar("p", False)
        assert p.is_cnf()


class TestConjunction:
    def test_identity_elements(self):
        p = Predicate.le("i", 3)
        assert (p & Predicate.true()) == p
        assert (p & Predicate.false()).is_false()

    def test_unknown_absorbs_except_false(self):
        delta = Predicate.unknown()
        assert (delta & Predicate.le("i", 3)).is_unknown()
        assert (delta & Predicate.false()).is_false()
        assert (delta & Predicate.true()).is_unknown()

    def test_contradiction_detected(self):
        p = Predicate.le("i", 3) & Predicate.ge("i", 5)
        assert p.is_false()

    def test_bool_contradiction(self):
        p = Predicate.boolvar("p") & Predicate.boolvar("p", False)
        assert p.is_false()

    def test_redundant_conjunct_removed(self):
        p = Predicate.le("i", 3) & Predicate.le("i", 5)
        assert p == Predicate.le("i", 3)

    def test_unit_propagation_prunes_clause(self):
        # (i <= 0) AND (i >= 5 OR p)  ->  (i <= 0) AND p
        clause = Disjunction([Relation.ge("i", 5), BoolAtom("p")])
        p = Predicate.le("i", 0) & Predicate.of_clauses([clause])
        assert p == Predicate.le("i", 0) & Predicate.boolvar("p")

    def test_unit_propagation_satisfies_clause(self):
        # (i <= 0) AND (i <= 3 OR p)  ->  (i <= 0)
        clause = Disjunction([Relation.le("i", 3), BoolAtom("p")])
        p = Predicate.le("i", 0) & Predicate.of_clauses([clause])
        assert p == Predicate.le("i", 0)

    def test_empty_clause_after_pruning_is_false(self):
        clause = Disjunction([Relation.ge("i", 5), Relation.ge("i", 9)])
        p = Predicate.le("i", 0) & Predicate.of_clauses([clause])
        assert p.is_false()


class TestSettledConjunction:
    """The cross-pair fast path for conjoining settled unit CNFs.

    ``x <= 1`` over the integers refutes ``x >= 3/2`` over the reals, but
    the pair test only sees it in that order: across integer domains
    ``conflicts`` is not symmetric."""

    INT = Relation(sym("x") - 1, RelOp.LE)
    REAL = Relation(sym("x") * -2 + 3, RelOp.LE, integer=False)

    def test_unit_predicates_are_settled(self):
        assert Predicate.le("i", 3)._settled
        assert (Predicate.le("i", 3) & Predicate.boolvar("p"))._settled

    def test_cross_pairs_keep_operand_order(self):
        assert self.INT.conflicts(self.REAL)
        assert not self.REAL.conflicts(self.INT)
        int_first = Predicate.of_atom(self.INT) & Predicate.of_atom(self.REAL)
        assert int_first.is_false()
        real_first = Predicate.of_atom(self.REAL) & Predicate.of_atom(self.INT)
        assert real_first == Predicate.of_clauses(
            [Disjunction([self.REAL]), Disjunction([self.INT])]
        )

    def test_mixed_domains_are_not_settled(self):
        # its own pair was tested in one order only, so a later
        # conjunction must re-test it
        mixed = Predicate.of_clauses(
            [Disjunction([self.REAL]), Disjunction([self.INT])]
        )
        assert mixed.is_cnf() and not mixed._settled
        more = Predicate.boolvar("p")
        assert (mixed & more) == Predicate.of_clauses(
            list(mixed.clauses) + list(more.clauses)
        )

    def test_unsettled_at_the_pass_bound(self):
        # a chain that turns one clause into a unit per pass: its eighth
        # and last pass makes the last unit, so no pass confirmed it
        chain = [Disjunction([BoolAtom("p0")])] + [
            Disjunction([BoolAtom(f"p{k}", False), BoolAtom(f"p{k + 1}")])
            for k in range(8)
        ]
        pred = Predicate.of_clauses(chain)
        assert len(pred.unit_atoms()) == len(pred.clauses) == 9
        assert not pred._settled


class TestDisjunctionOp:
    def test_identity_elements(self):
        p = Predicate.le("i", 3)
        assert (p | Predicate.false()) == p
        assert (p | Predicate.true()).is_true()

    def test_unknown(self):
        assert (Predicate.unknown() | Predicate.le("i", 3)).is_unknown()
        assert (Predicate.unknown() | Predicate.true()).is_true()

    def test_tautology(self):
        p = Predicate.le("i", 3) | Predicate.ge("i", 2)
        assert p.is_true()

    def test_distribution(self):
        a = Predicate.le("i", 3) & Predicate.boolvar("p")
        b = Predicate.ge("j", 5)
        out = a | b
        assert out.is_cnf()
        assert len(out.clauses) == 2

    def test_self_disjunction(self):
        p = Predicate.le("i", 3)
        assert (p | p) == p


class TestNegation:
    def test_constants(self):
        assert Predicate.true().negate().is_false()
        assert Predicate.false().negate().is_true()
        assert Predicate.unknown().negate().is_unknown()

    def test_single_atom(self):
        assert Predicate.le("i", 3).negate() == Predicate.ge("i", 4)

    def test_demorgan_conjunction(self):
        p = (Predicate.le("i", 3) & Predicate.boolvar("p")).negate()
        # not(a and b) == (not a) or (not b): one clause with two atoms
        assert p.is_cnf()
        (clause,) = p.clauses
        assert clause.atoms == frozenset(
            {Relation.ge("i", 4), BoolAtom("p", False)}
        )

    def test_double_negation_roundtrip(self):
        p = Predicate.le("i", "n") & Predicate.boolvar("q", False)
        assert p.negate().negate() == p


class TestImplies:
    def test_false_implies_anything(self):
        assert Predicate.false().implies(Predicate.le("i", 3)) is True

    def test_anything_implies_true(self):
        assert Predicate.le("i", 3).implies(Predicate.true()) is True

    def test_stronger_implies_weaker(self):
        a = Predicate.le("i", 3) & Predicate.boolvar("p")
        b = Predicate.le("i", 5)
        assert a.implies(b) is True
        assert b.implies(a) is None

    def test_unknown_is_none(self):
        assert Predicate.unknown().implies(Predicate.le("i", 3)) is None


class TestSubstitution:
    def test_relational_substitution(self):
        p = Predicate.le("i", "n").substitute({"i": sym("j") + 1})
        assert p == Predicate.le(sym("j") + 1, "n")

    def test_substitution_can_collapse(self):
        p = Predicate.le("i", 5).substitute({"i": sym(3)})
        assert p.is_true()

    def test_bool_binding_to_var_renames(self):
        p = Predicate.boolvar("p").substitute({"p": sym("q")})
        assert p == Predicate.boolvar("q")

    def test_bool_binding_to_expr_degrades_to_unknown(self):
        p = Predicate.boolvar("p").substitute({"p": sym("q") + 1})
        assert p.is_unknown()

    def test_rename(self):
        p = Predicate.le("i", "n").rename({"n": "m"})
        assert p == Predicate.le("i", "m")


class TestEvaluationAndMisc:
    def test_evaluate(self):
        p = Predicate.le("i", 3) & Predicate.boolvar("p")
        assert p.evaluate({"i": 2, "p": 1}) is True
        assert p.evaluate({"i": 2, "p": 0}) is False

    def test_evaluate_unknown_raises(self):
        with pytest.raises(ValueError):
            Predicate.unknown().evaluate({})

    def test_unit_atoms(self):
        p = Predicate.le("i", 3) & (Predicate.boolvar("p") | Predicate.le("j", 0))
        units = p.unit_atoms()
        assert units == [Relation.le("i", 3)]

    def test_free_vars(self):
        p = Predicate.le("i", "n") & Predicate.boolvar("p")
        assert p.free_vars() == frozenset({"i", "n", "p"})

    def test_complexity_cap_degrades_to_unknown(self):
        # build a predicate whose OR-distribution exceeds the clause cap
        big_a = Predicate.true()
        big_b = Predicate.true()
        for k in range(12):
            big_a = big_a & Predicate.le(f"a{k}", k)
            big_b = big_b & Predicate.le(f"b{k}", k)
        assert len(big_a.clauses) * len(big_b.clauses) > MAX_CLAUSES
        assert (big_a | big_b).is_unknown()

    def test_str_forms(self):
        assert str(Predicate.true()) == "True"
        assert str(Predicate.false()) == "False"
        assert str(Predicate.unknown()) == "Delta"
