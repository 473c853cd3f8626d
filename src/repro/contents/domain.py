"""The abstract value lattice of the array-content domain.

One abstract element describes what is known about the *values* an array
holds over a written segment ``[lo, hi]``:

* ``affine`` — every cell satisfies ``value(k) = coeff*k + base`` (the
  strongest element short of ⊥; implies monotonicity by the sign of
  ``coeff`` and injectivity whenever ``coeff ≠ 0``);
* ``bounds`` — every cell lies in a constant interval ``[vlo, vhi]``;
* ``monotone`` — consecutive cells differ by a known-sign constant
  (derived from first-order recurrences ``X(i) = X(i-1) + c``).

The partial order is precision: affine ⊑ monotone ⊑ ⊤ and
affine-with-constant-data ⊑ bounds ⊑ ⊤.  :func:`join_value` computes
least upper bounds when control flow merges two writers (IF arms), which
is where "two different constants" degrades gracefully to an interval
instead of being dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from ..symbolic import SymExpr


class Monotone(enum.Enum):
    """Monotonicity element of the lattice (⊤ = UNKNOWN)."""

    CONSTANT = "constant"
    STRICT_INC = "strictly-increasing"
    NONDECREASING = "nondecreasing"
    STRICT_DEC = "strictly-decreasing"
    NONINCREASING = "nonincreasing"
    UNKNOWN = "unknown"


def monotone_of_affine(coeff: Fraction) -> Monotone:
    """Monotonicity implied by an affine closed form's slope."""
    if coeff > 0:
        return Monotone.STRICT_INC
    if coeff < 0:
        return Monotone.STRICT_DEC
    return Monotone.CONSTANT


@dataclass
class ValueAbstract:
    """What is known about a segment's cell values (one lattice element)."""

    #: closed form value(k) = coeff*k + base (base loop-invariant)
    affine: Optional[tuple[Fraction, SymExpr]] = None
    #: constant interval every cell lies in
    bounds: Optional[tuple[Fraction, Fraction]] = None
    mono: Monotone = Monotone.UNKNOWN

    def is_top(self) -> bool:
        return (
            self.affine is None
            and self.bounds is None
            and self.mono is Monotone.UNKNOWN
        )


def abstract_of_affine(coeff: Fraction, base: SymExpr) -> ValueAbstract:
    """The lattice element of a proven affine closed form."""
    bounds = None
    if coeff == 0:
        c = base.constant_value()
        if c is not None:
            bounds = (c, c)
    return ValueAbstract(
        affine=(coeff, base), bounds=bounds, mono=monotone_of_affine(coeff)
    )


def join_value(a: ValueAbstract, b: ValueAbstract) -> ValueAbstract:
    """Least upper bound of two value abstractions (merge of two writers).

    The join models a *data-dependent* choice of writer per cell, so the
    sequence-shaped component cannot be joined pointwise: interleaving
    two increasing closed forms need not be increasing.  Monotonicity is
    instead re-derived from what survives the join — a shared affine
    form, or a collapsed single-value interval.
    """
    affine = None
    if (
        a.affine is not None
        and b.affine is not None
        and a.affine[0] == b.affine[0]
        and a.affine[1] == b.affine[1]
    ):
        affine = a.affine
    bounds = None
    if a.bounds is not None and b.bounds is not None:
        bounds = (min(a.bounds[0], b.bounds[0]), max(a.bounds[1], b.bounds[1]))
    if affine is not None:
        mono = monotone_of_affine(affine[0])
    elif bounds is not None and bounds[0] == bounds[1]:
        mono = Monotone.CONSTANT
    else:
        mono = Monotone.UNKNOWN
    return ValueAbstract(affine=affine, bounds=bounds, mono=mono)


@dataclass
class ContentFact:
    """One exported fact about one array's written segment in one unit."""

    unit: str
    array: str
    #: 'affine' | 'bounds' | 'monotone'
    kind: str
    #: written segment (defining-loop bounds, symbolic)
    seg_lo: SymExpr = None  # type: ignore[assignment]
    seg_hi: SymExpr = None  # type: ignore[assignment]
    #: affine closed form (kind == 'affine')
    coeff: Optional[Fraction] = None
    base: Optional[SymExpr] = None
    #: element bounds (kind == 'bounds', or affine over constant data)
    value_lo: Optional[Fraction] = None
    value_hi: Optional[Fraction] = None
    #: monotonicity (all kinds)
    mono: Monotone = Monotone.UNKNOWN
    #: first-order recurrence step (kind == 'monotone')
    delta: Optional[Fraction] = None
    #: every read of the array in the unit provably hits the segment —
    #: the gate for exporting forms/bounds into conversion contexts
    covered: bool = False
    lineno: int = 0
    detail: str = ""

    @property
    def injective(self) -> bool:
        """Distinct cells provably hold distinct values."""
        if self.kind == "affine":
            return self.coeff != 0
        return self.mono in (Monotone.STRICT_INC, Monotone.STRICT_DEC)

    def form(self) -> Optional[SymExpr]:
        """Index-array closed form over ``subscript_placeholder(1)``."""
        if self.kind != "affine" or self.coeff is None or self.base is None:
            return None
        from ..dataflow.convert import subscript_placeholder

        return subscript_placeholder(1).scaled(self.coeff) + self.base

    def to_payload(self) -> dict[str, Any]:
        """Machine-checkable evidence record (docs/frontier.md)."""
        out: dict[str, Any] = {
            "kind": "content",
            "unit": self.unit,
            "array": self.array,
            "fact": self.kind,
            "segment": [str(self.seg_lo), str(self.seg_hi)],
            "monotone": self.mono.value,
            "injective": self.injective,
            "covered": self.covered,
            "lineno": self.lineno,
        }
        if self.kind == "affine":
            out["coeff"] = str(self.coeff)
            out["base"] = str(self.base)
        if self.value_lo is not None and self.value_hi is not None:
            out["value_lo"] = str(self.value_lo)
            out["value_hi"] = str(self.value_hi)
        if self.delta is not None:
            out["delta"] = str(self.delta)
        if self.detail:
            out["detail"] = self.detail
        return out

    def matches_payload(self, payload: dict[str, Any]) -> bool:
        """Does this fact support an evidence record? (auditor replay)"""
        mine = self.to_payload()
        return all(
            mine.get(key) == value
            for key, value in payload.items()
            if key not in ("detail",)
        )
