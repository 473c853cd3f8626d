"""Unit tests for the conventional dependence tests (repro.deptest)."""

from repro.deptest import (
    LoopBounds,
    ScreenVerdict,
    affine_form,
    banerjee_test,
    gcd_test,
    screen_loop,
    siv_independent,
)
from repro.dataflow.convert import ConversionContext
from repro.fortran import analyze, parse_program
from repro.hsg import build_hsg
from repro.symbolic import Comparer, sym


class TestAffineForm:
    def test_simple(self):
        f = affine_form(sym("i") * 2 + 3, ("i",))
        assert f.coeff("i") == 2
        assert f.const == 3
        assert f.symbolic_rest.is_zero()

    def test_symbolic_rest(self):
        f = affine_form(sym("i") + sym("n"), ("i",))
        assert f.coeff("i") == 1
        assert f.symbolic_rest == sym("n")

    def test_nonlinear_index_rejected(self):
        assert affine_form(sym("i") * sym("i"), ("i",)) is None
        assert affine_form(sym("i") * sym("n"), ("i",)) is None

    def test_multi_index(self):
        f = affine_form(sym("i") * 4 + sym("j"), ("i", "j"))
        assert f.coeff("i") == 4 and f.coeff("j") == 1


class TestGcd:
    def test_independent(self):
        # 2i vs 2i'+1: parity conflict
        assert gcd_test([sym("i") * 2], [sym("i") * 2 + 1], ("i",)) is False

    def test_dependent(self):
        assert gcd_test([sym("i") * 2], [sym("i") * 2 + 4], ("i",)) is True

    def test_symbolic_rest_inapplicable(self):
        assert gcd_test([sym("i") + sym("n")], [sym("i")], ("i",)) is None

    def test_matching_symbolic_rest_ok(self):
        got = gcd_test(
            [sym("i") * 2 + sym("n")], [sym("i") * 2 + sym("n") + 1], ("i",)
        )
        assert got is False

    def test_constant_subscripts(self):
        assert gcd_test([sym(3)], [sym(3)], ("i",)) is True
        assert gcd_test([sym(3)], [sym(4)], ("i",)) is False

    def test_any_dimension_refutes(self):
        subs_a = [sym("i"), sym(1)]
        subs_b = [sym("i"), sym(2)]
        assert gcd_test(subs_a, subs_b, ("i",)) is False


class TestBanerjee:
    BOUNDS = {"i": LoopBounds("i", 1, 10)}

    def test_out_of_range(self):
        # i vs i' + 20 cannot meet within 1..10
        got = banerjee_test([sym("i")], [sym("i") + 20], ("i",), self.BOUNDS)
        assert got is False

    def test_in_range(self):
        got = banerjee_test([sym("i")], [sym("i") + 3], ("i",), self.BOUNDS)
        assert got is True

    def test_missing_bounds_inapplicable(self):
        got = banerjee_test([sym("j")], [sym("j") + 20], ("j",), self.BOUNDS)
        assert got is None

    def test_negative_coefficient(self):
        # i vs 22 - i': min = 1-10+... range check
        got = banerjee_test([sym("i")], [-sym("i") + 22], ("i",), self.BOUNDS)
        assert got is False
        got = banerjee_test([sym("i")], [-sym("i") + 10], ("i",), self.BOUNDS)
        assert got is True


class TestSymbolicSiv:
    def test_same_subscript_no_cross_iteration(self, cmp):
        got = siv_independent(sym("i"), sym("i"), "i", sym(1), sym("n"), cmp)
        assert got is True

    def test_distance_one_dependent(self, cmp):
        got = siv_independent(
            sym("i"), sym("i") - 1, "i", sym(1), sym("n"), cmp
        )
        assert got is None  # span n-1 unknown; cannot exclude

    def test_distance_one_with_known_span(self, cmp):
        got = siv_independent(sym("i"), sym("i") - 1, "i", sym(1), sym(10), cmp)
        assert got is False

    def test_distance_beyond_span(self, cmp):
        got = siv_independent(
            sym("i"), sym("i") + 50, "i", sym(1), sym(10), cmp
        )
        assert got is True

    def test_non_integer_distance(self, cmp):
        # integer coefficients, odd distance: 2*i never meets 2*i'+1
        assert type((sym("i") * 2).coeff_of_var("i")) is int
        got = siv_independent(
            sym("i") * 2, sym("i") * 2 + 1, "i", sym(1), sym("n"), cmp
        )
        assert got is True

    def test_even_distance_over_even_coefficient(self, cmp):
        # 2*i and 2*i+4 meet two iterations apart, within 1..10
        got = siv_independent(
            sym("i") * 2, sym("i") * 2 + 4, "i", sym(1), sym(10), cmp
        )
        assert got is False

    def test_invariant_same_symbol(self, cmp):
        got = siv_independent(sym("m"), sym("m"), "i", sym(1), sym("n"), cmp)
        assert got is None or got is False  # same cell each iteration

    def test_symbolic_equal_rests(self, cmp):
        got = siv_independent(
            sym("i") + sym("n"), sym("i") + sym("n"), "i", sym(1), sym("u"), cmp
        )
        assert got is True


class TestScreening:
    def _screen(self, body, decls="REAL a(100), b(100)"):
        decl_lines = "".join(f"      {d}\n" for d in decls.split(";") if d)
        src = f"      SUBROUTINE s\n{decl_lines}{body}      END\n"
        hsg = build_hsg(analyze(parse_program(src)))
        (unit, loop), *_ = hsg.all_loops()
        ctx = ConversionContext(hsg.analyzed.table(unit))
        return screen_loop(loop, ctx, Comparer())

    def test_embarrassingly_parallel(self):
        rep = self._screen(
            "      DO i = 1, n\n        a(i) = b(i)\n      ENDDO\n"
        )
        assert rep.verdict is ScreenVerdict.INDEPENDENT

    def test_recurrence_flagged(self):
        rep = self._screen(
            "      DO i = 2, n\n        a(i) = a(i-1)\n      ENDDO\n"
        )
        assert rep.verdict is ScreenVerdict.POSSIBLE_DEPENDENCE

    def test_scalar_write_flagged(self):
        rep = self._screen(
            "      DO i = 1, n\n        x = b(i)\n        a(i) = x\n      ENDDO\n",
            "REAL a(100), b(100);REAL x",
        )
        assert rep.verdict is ScreenVerdict.POSSIBLE_DEPENDENCE
        assert "x" in rep.scalars_written

    def test_strided_disjoint_independent(self):
        rep = self._screen(
            "      DO i = 1, n\n        a(2*i) = b(i)\n"
            "        x = a(2*i+1)\n      ENDDO\n",
            "REAL a(300), b(100);REAL x",
        )
        # the a-pairs pass the GCD test; the scalar x still flags it
        blocking = [p for p in rep.blocking_pairs() if p.src.array == "a"]
        assert not blocking
