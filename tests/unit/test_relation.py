"""Unit tests for relational atoms (repro.symbolic.relation)."""

from fractions import Fraction

from repro.symbolic import BoolAtom, Relation, RelOp, sym


class TestConstructorsAndNormalization:
    def test_le(self):
        r = Relation.le("i", "n")
        assert r.op is RelOp.LE
        assert r.expr == sym("i") - sym("n")

    def test_lt_integer_tightens(self):
        # i < 5 over integers becomes i - 4 <= 0
        r = Relation.lt("i", 5)
        assert r.op is RelOp.LE
        assert r.expr == sym("i") - 4

    def test_lt_real_stays_strict(self):
        r = Relation.lt("x", 5, integer=False)
        assert r.op is RelOp.LT
        assert r.expr == sym("x") - 5

    def test_ge_gt(self):
        assert Relation.ge("i", 3) == Relation.le(3, "i")
        assert Relation.gt("i", 3) == Relation.le(4, "i")

    def test_eq_ne(self):
        assert Relation.eq("i", "j").op is RelOp.EQ
        assert Relation.ne("i", "j").op is RelOp.NE

    def test_fraction_coefficients_scaled_to_integers(self):
        r = Relation.le(sym("i").div_const(2), 1)  # i/2 <= 1  ->  i - 2 <= 0
        assert r.expr == sym("i") - 2

    def test_gcd_tightening_le(self):
        # 2i - 3 <= 0  =>  i <= 3/2  =>  i <= 1  =>  i - 1 <= 0
        r = Relation(sym("i") * 2 - 3, RelOp.LE)
        assert r.expr == sym("i") - 1

    def test_gcd_le_real_keeps_fraction(self):
        r = Relation(sym("x") * 2 - 3, RelOp.LE, integer=False)
        # divided by 2 exactly: x - 3/2 <= 0
        assert r.expr == sym("x") - sym(3).div_const(2)

    def test_gcd_lt_real_divides_exactly(self):
        # 3x + 1 < 0 over the reals is exactly x + 1/3 < 0
        r = Relation(sym("x") * 3 + 1, RelOp.LT, integer=False)
        assert r.op is RelOp.LT
        assert r.expr.terms[-1][1] == Fraction(1, 3)
        assert r.expr == sym("x") + sym(1).div_const(3)

    def test_gcd_eq_divides_constant(self):
        # integer 2i - 4 == 0 is i - 2 == 0, with an int constant;
        # real 2x - 3 == 0 is x - 3/2 == 0
        r = Relation(sym("i") * 2 - 4, RelOp.EQ)
        assert r.expr == sym("i") - 2
        assert type(r.expr.constant_term()) is int
        r = Relation(sym("x") * 2 - 3, RelOp.EQ, integer=False)
        assert r.expr.constant_term() == Fraction(-3, 2)

    def test_eq_unsolvable_gcd_becomes_false(self):
        # 2i - 3 == 0 has no integer solution
        r = Relation(sym("i") * 2 - 3, RelOp.EQ)
        assert r.truth() is False

    def test_ne_unsolvable_gcd_becomes_true(self):
        r = Relation(sym("i") * 2 - 3, RelOp.NE)
        assert r.truth() is True

    def test_eq_sign_canonical(self):
        assert Relation.eq("i", "j") == Relation.eq("j", "i")
        assert Relation.ne(sym("i") - sym("j"), 0) == Relation.ne(
            sym("j") - sym("i"), 0
        )


class TestTruth:
    def test_constant_truth(self):
        assert Relation.le(1, 2).truth() is True
        assert Relation.le(3, 2).truth() is False
        assert Relation.eq(2, 2).truth() is True
        assert Relation.ne(2, 2).truth() is False
        assert Relation.lt(sym(1).div_const(2), 1, integer=False).truth() is True

    def test_symbolic_truth_unknown(self):
        assert Relation.le("i", "n").truth() is None


class TestNegate:
    def test_negate_le_integer(self):
        # not(i <= n)  <=>  i >= n+1
        r = Relation.le("i", "n").negate()
        assert r == Relation.ge("i", sym("n") + 1)

    def test_negate_real_partition(self):
        r = Relation.le("x", "y", integer=False)
        n = r.negate()
        assert n.op is RelOp.LT
        # negate twice returns an equivalent relation
        assert n.negate() == r

    def test_negate_eq_ne(self):
        assert Relation.eq("i", 0).negate() == Relation.ne("i", 0)
        assert Relation.ne("i", 0).negate() == Relation.eq("i", 0)


class TestImplies:
    def test_same_relation(self):
        r = Relation.le("i", "n")
        assert r.implies(r) is True

    def test_le_weakening(self):
        assert Relation.le("i", 3).implies(Relation.le("i", 5)) is True
        assert Relation.le("i", 5).implies(Relation.le("i", 3)) is None

    def test_le_different_parts_unknown(self):
        assert Relation.le("i", 3).implies(Relation.le("j", 5)) is None

    def test_eq_implies_le(self):
        assert Relation.eq("i", 3).implies(Relation.le("i", 3)) is True
        assert Relation.eq("i", 3).implies(Relation.le("i", 5)) is True
        assert Relation.eq("i", 3).implies(Relation.le("i", 2)) is False

    def test_eq_implies_ne(self):
        assert Relation.eq("i", 3).implies(Relation.ne("i", 4)) is True
        assert Relation.eq("i", 3).implies(Relation.ne("i", 3)) is False

    def test_eq_implies_eq(self):
        assert Relation.eq("i", 3).implies(Relation.eq("i", 3)) is True
        assert Relation.eq("i", 3).implies(Relation.eq("i", 4)) is False

    def test_le_implies_ne(self):
        # i <= 3 guarantees i != 5
        assert Relation.le("i", 3).implies(Relation.ne("i", 5)) is True
        # but not i != 2
        assert Relation.le("i", 3).implies(Relation.ne("i", 2)) is None

    def test_ineq_refutes_eq(self):
        assert Relation.le("i", 3).implies(Relation.eq("i", 5)) is False

    def test_strict_vs_nonstrict(self):
        lt = Relation.lt("x", 3, integer=False)
        le = Relation.le("x", 3, integer=False)
        assert lt.implies(le) is True
        assert le.implies(lt) is None

    def test_implies_boolatom_is_none(self):
        assert Relation.le("i", 3).implies(BoolAtom("p")) is None

    def test_constant_other(self):
        assert Relation.le("i", 3).implies(Relation.le(1, 2)) is True


class TestConflicts:
    def test_conflicting_bounds(self):
        assert Relation.le("i", 3).conflicts(Relation.ge("i", 5))
        assert not Relation.le("i", 3).conflicts(Relation.ge("i", 2))

    def test_eq_vs_ne(self):
        assert Relation.eq("i", 3).conflicts(Relation.ne("i", 3))

    def test_real_strict_complement(self):
        gt = Relation.gt("x", "s", integer=False)
        le = Relation.le("x", "s", integer=False)
        assert gt.conflicts(le)


class TestDataPlumbing:
    def test_substitute(self):
        r = Relation.le("i", "n").substitute({"i": sym("j") + 1})
        assert r == Relation.le(sym("j") + 1, "n")

    def test_rename(self):
        assert Relation.le("i", 3).rename({"i": "k"}) == Relation.le("k", 3)

    def test_free_vars(self):
        assert Relation.le("i", "n").free_vars() == frozenset({"i", "n"})

    def test_evaluate(self):
        r = Relation.le("i", "n")
        assert r.evaluate({"i": 1, "n": 5}) is True
        assert r.evaluate({"i": 7, "n": 5}) is False
        assert Relation.ne("i", 0).evaluate({"i": 0}) is False


class TestBoolAtom:
    def test_identity(self):
        assert BoolAtom("p") == BoolAtom("p", True)
        assert BoolAtom("p") != BoolAtom("p", False)

    def test_negate(self):
        assert BoolAtom("p").negate() == BoolAtom("p", False)
        assert BoolAtom("p").negate().negate() == BoolAtom("p")

    def test_implies(self):
        assert BoolAtom("p").implies(BoolAtom("p")) is True
        assert BoolAtom("p").implies(BoolAtom("p", False)) is False
        assert BoolAtom("p").implies(BoolAtom("q")) is None

    def test_conflicts(self):
        assert BoolAtom("p").conflicts(BoolAtom("p", False))
        assert not BoolAtom("p").conflicts(BoolAtom("q", False))

    def test_substitute_to_var_renames(self):
        out = BoolAtom("p").substitute({"p": sym("q")})
        assert out == BoolAtom("q")

    def test_substitute_to_expr_unrepresentable(self):
        assert BoolAtom("p").substitute({"p": sym("q") + 1}) is None

    def test_substitute_no_hit(self):
        a = BoolAtom("p")
        assert a.substitute({"x": sym(1)}) is a

    def test_evaluate(self):
        assert BoolAtom("p").evaluate({"p": 1}) is True
        assert BoolAtom("p", False).evaluate({"p": 0}) is True

    def test_str(self):
        assert str(BoolAtom("p")) == "p"
        assert str(BoolAtom("p", False)) == ".NOT.p"
