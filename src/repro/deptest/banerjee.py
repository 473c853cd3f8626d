"""The Banerjee bounds test.

For each subscript dimension, dependence requires::

    f(i_1..i_m) - g(j_1..j_m) = 0     for some iterations within bounds

The test computes the minimum and maximum of the left-hand side over the
iteration rectangle; if 0 lies outside ``[min, max]`` there is no
dependence.  Loop bounds must be numeric for the dimension to count —
symbolic bounds make the dimension inapplicable (``None``), which again
is the classical gap the paper's approach fills.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..symbolic import SymExpr
from .subscript import AffineForm, affine_form


@dataclass(frozen=True)
class LoopBounds:
    """Numeric bounds of one loop index (inclusive)."""

    index: str
    lo: int
    hi: int
    step: int = 1


def _term_extremes(coeff: Fraction, bounds: LoopBounds) -> tuple[Fraction, Fraction]:
    values = (coeff * bounds.lo, coeff * bounds.hi)
    return min(values), max(values)


def banerjee_test_dimension(
    src: AffineForm,
    dst: AffineForm,
    bounds: dict[str, LoopBounds],
) -> Optional[bool]:
    """``False`` = independent in this dimension, ``True`` = possible,
    ``None`` = inapplicable (symbolic terms or missing bounds)."""
    rest = src.symbolic_rest - dst.symbolic_rest
    if not rest.is_zero():
        return None
    lo = src.const - dst.const
    hi = lo
    for name, coeff in src.coeffs:
        b = bounds.get(name)
        if b is None:
            return None
        tlo, thi = _term_extremes(coeff, b)
        lo += tlo
        hi += thi
    for name, coeff in dst.coeffs:
        b = bounds.get(name)
        if b is None:
            return None
        tlo, thi = _term_extremes(-coeff, b)
        lo += tlo
        hi += thi
    return lo <= 0 <= hi


def banerjee_test(
    src_subs: Sequence[Optional[SymExpr]],
    dst_subs: Sequence[Optional[SymExpr]],
    indices: tuple[str, ...],
    bounds: dict[str, LoopBounds],
) -> Optional[bool]:
    """Whole-reference Banerjee test (conjunction over dimensions)."""
    decided = False
    for s, d in zip(src_subs, dst_subs):
        if s is None or d is None:
            continue
        fs = affine_form(s, indices)
        fd = affine_form(d, indices)
        if fs is None or fd is None:
            continue
        verdict = banerjee_test_dimension(fs, fd, bounds)
        if verdict is False:
            return False
        if verdict is True:
            decided = True
    return True if decided else None
