"""Unit tests for the array-content abstract domain (docs/frontier.md)."""

from fractions import Fraction

from repro.contents import (
    ContentFact,
    Monotone,
    infer_program,
    infer_unit,
)
from repro.contents.domain import (
    ValueAbstract,
    abstract_of_affine,
    join_value,
    monotone_of_affine,
)
from repro.dataflow import AnalysisOptions
from repro.fortran import analyze, parse_program
from repro.symbolic import sym

OPTIONS = AnalysisOptions(frontier=True)


def facts_of(source: str, unit: str):
    return infer_unit(analyze(parse_program(source)), unit, OPTIONS)


IDX_SETUP = """
      SUBROUTINE setup(IDX, A, n)
      INTEGER IDX(100)
      REAL A(200)
      INTEGER n, i
      DO i = 1, n
        IDX(i) = 2*i
      ENDDO
      DO i = 1, n
        A(IDX(i)) = 1.0
      ENDDO
      END
"""

FLAG_SETUP = """
      SUBROUTINE flags(F, B, m)
      INTEGER F(100)
      REAL B(100)
      INTEGER m, j
      DO j = 1, m
        IF (B(j) .GT. 0.0) THEN
          F(j) = 1
        ELSE
          F(j) = 2
        ENDIF
      ENDDO
      DO j = 1, m
        IF (F(j) .GE. 1) THEN
          B(j) = B(j) + 1.0
        ENDIF
      ENDDO
      END
"""

MONO_RECURRENCE = """
      SUBROUTINE mono(W, B, n)
      INTEGER W(100), B(100)
      INTEGER n, i
      DO i = 2, n
        W(i) = W(i-1) + 3
      ENDDO
      END
"""


class TestAffineFacts:
    def test_index_array_form_derived(self):
        (fact,) = facts_of(IDX_SETUP, "setup")
        assert fact.array == "idx" and fact.kind == "affine"
        assert fact.coeff == 2
        assert fact.mono is Monotone.STRICT_INC
        assert fact.injective
        assert fact.covered  # the A(IDX(i)) read stays inside [1, n]

    def test_form_is_exported_over_the_placeholder(self):
        from repro.dataflow.convert import subscript_placeholder

        (fact,) = facts_of(IDX_SETUP, "setup")
        assert fact.form() == subscript_placeholder(1).scaled(Fraction(2))


class TestBoundsFacts:
    def test_branch_writes_join_to_bounds(self):
        facts = [f for f in facts_of(FLAG_SETUP, "flags") if f.array == "f"]
        (fact,) = facts
        assert fact.kind == "bounds"
        assert (fact.value_lo, fact.value_hi) == (1, 2)

    def test_branch_join_does_not_claim_constant(self):
        # the writer choice is data-dependent per cell: claiming the
        # sequence constant (or monotone) would be unsound
        (fact,) = [f for f in facts_of(FLAG_SETUP, "flags") if f.array == "f"]
        assert fact.mono is Monotone.UNKNOWN
        assert not fact.injective


class TestMonotoneFacts:
    def test_recurrence_delta(self):
        (fact,) = facts_of(MONO_RECURRENCE, "mono")
        assert fact.kind == "monotone"
        assert fact.delta == 3
        assert fact.mono is Monotone.STRICT_INC
        assert not fact.covered  # monotone facts export nothing yet


class TestGates:
    def test_no_facts_with_frontier_off(self):
        analyzed = analyze(parse_program(IDX_SETUP))
        off = AnalysisOptions(frontier=False)
        assert infer_unit(analyzed, "setup", off) == []
        assert infer_program(analyzed, off).count() == 0

    def test_no_facts_without_symbolic(self):
        analyzed = analyze(parse_program(IDX_SETUP))
        t1_off = AnalysisOptions(frontier=True, symbolic=False)
        assert infer_unit(analyzed, "setup", t1_off) == []

    def test_two_defining_loops_poison(self):
        src = """
      SUBROUTINE twice(IDX, n)
      INTEGER IDX(100)
      INTEGER n, i
      DO i = 1, n
        IDX(i) = 2*i
      ENDDO
      DO i = 1, n
        IDX(i) = 3*i
      ENDDO
      END
"""
        assert facts_of(src, "twice") == []

    def test_real_arrays_skipped(self):
        src = """
      SUBROUTINE realw(X, n)
      REAL X(100)
      INTEGER n, i
      DO i = 1, n
        X(i) = 2*i
      ENDDO
      END
"""
        assert facts_of(src, "realw") == []


class TestLattice:

    def test_join_value_same_affine_survives(self):
        a = abstract_of_affine(Fraction(2), sym("n"))
        b = abstract_of_affine(Fraction(2), sym("n"))
        j = join_value(a, b)
        assert j.affine == (Fraction(2), sym("n"))
        assert j.mono is Monotone.STRICT_INC

    def test_join_value_different_constants_lose_constant(self):
        one = abstract_of_affine(Fraction(0), sym("n") * 0 + 1)
        two = abstract_of_affine(Fraction(0), sym("n") * 0 + 2)
        j = join_value(one, two)
        assert j.affine is None
        assert j.bounds == (1, 2)
        assert j.mono is Monotone.UNKNOWN

    def test_join_value_equal_constants_stay_constant(self):
        one = abstract_of_affine(Fraction(0), sym("n") * 0 + 1)
        j = join_value(one, ValueAbstract(bounds=(Fraction(1), Fraction(1))))
        assert j.bounds == (1, 1)
        assert j.mono is Monotone.CONSTANT

    def test_monotone_of_affine(self):
        assert monotone_of_affine(Fraction(1)) is Monotone.STRICT_INC
        assert monotone_of_affine(Fraction(-2)) is Monotone.STRICT_DEC
        assert monotone_of_affine(Fraction(0)) is Monotone.CONSTANT


class TestPayloads:
    def test_roundtrip(self):
        (fact,) = facts_of(IDX_SETUP, "setup")
        payload = fact.to_payload()
        assert payload["kind"] == "content"
        assert fact.matches_payload(payload)

    def test_detail_ignored_but_claims_compared(self):
        (fact,) = facts_of(IDX_SETUP, "setup")
        payload = fact.to_payload()
        payload["detail"] = "tampered"
        assert fact.matches_payload(payload)
        payload["coeff"] = "7"
        assert not fact.matches_payload(payload)

    def test_fact_equality_independent_of_detail(self):
        fact = ContentFact(unit="u", array="a", kind="bounds")
        assert fact.matches_payload(
            ContentFact(unit="u", array="a", kind="bounds").to_payload()
        )
