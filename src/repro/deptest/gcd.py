"""The GCD dependence test (Banerjee / Kuck lineage).

For one subscript dimension of a reference pair inside a common loop
nest, a dependence requires integer solutions of::

    sum_k a_k * i_k  -  sum_k b_k * j_k  =  c0

which (ignoring bounds) have none unless ``gcd(all coefficients)`` divides
the constant difference.  Purely numeric: any symbolic additive term makes
the test inapplicable for that dimension (returns ``None``), which is the
classical weakness the paper's symbolic analysis addresses.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from typing import Optional, Sequence

from ..symbolic import SymExpr
from .subscript import AffineForm, affine_form


def gcd_test_dimension(
    src: AffineForm, dst: AffineForm
) -> Optional[bool]:
    """``False`` = provably no dependence in this dimension;
    ``True`` = integer solutions exist (dependence possible);
    ``None`` = inapplicable (symbolic terms / non-integer data)."""
    rest = src.symbolic_rest - dst.symbolic_rest
    if not rest.is_zero():
        return None
    coeffs: list[int] = []
    for _, value in src.coeffs + dst.coeffs:
        if value.denominator != 1:
            return None
        coeffs.append(abs(value.numerator))
    diff = dst.const - src.const
    if diff.denominator != 1:
        return None
    if not coeffs:
        return diff == 0
    g = reduce(gcd, coeffs)
    if g == 0:
        return diff == 0
    return diff.numerator % g == 0


def gcd_test(
    src_subs: Sequence[Optional[SymExpr]],
    dst_subs: Sequence[Optional[SymExpr]],
    indices: tuple[str, ...],
) -> Optional[bool]:
    """Whole-reference GCD test: no dependence if any dimension refutes it.

    Returns ``False`` (independent), ``True`` (possible dependence), or
    ``None`` when no dimension was analyzable.
    """
    decided = False
    for s, d in zip(src_subs, dst_subs):
        if s is None or d is None:
            continue
        fs = affine_form(s, indices)
        fd = affine_form(d, indices)
        if fs is None or fd is None:
            continue
        verdict = gcd_test_dimension(fs, fd)
        if verdict is False:
            return False
        if verdict is True:
            decided = True
    return True if decided else None
