"""A symbolic range-overlap test (in the spirit of Blume & Eigenmann's
range test, cited by the paper as the symbolic-capable member of the
regular-section family).

Two references are independent across iterations of loop ``i`` when their
accessed subscript ranges, taken over *different* iterations, provably do
not overlap — e.g. ``A(i)`` written and ``A(i-1)`` read overlap, while
``A(2*i)`` and ``A(2*i+1)`` never do.  Works with symbolic bounds via the
:class:`~repro.symbolic.compare.Comparer`, unlike the numeric tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..symbolic import Comparer, SymExpr


def siv_independent(
    src: SymExpr,
    dst: SymExpr,
    index: str,
    lo: SymExpr,
    hi: SymExpr,
    cmp: Comparer,
) -> Optional[bool]:
    """Single-index-variable cross-iteration independence.

    Is ``src(i) == dst(i')`` impossible for ``lo <= i != i' <= hi``?
    Handles the strong-SIV (equal coefficients) and constant-coefficient
    cases symbolically.  Returns ``True`` = provably independent,
    ``False`` = provably dependent, ``None`` = cannot tell.
    """
    if not (src.is_linear_in(index) and dst.is_linear_in(index)):
        return None
    a = src.coeff_of_var(index)
    b = dst.coeff_of_var(index)
    src_rest = src - SymExpr.var(index).scaled(a)
    dst_rest = dst - SymExpr.var(index).scaled(b)
    if a == b:
        if a == 0:
            # both invariant: same location every iteration -> dependent
            # across iterations iff the values are ever equal
            diff = (src_rest - dst_rest).constant_value()
            if diff is None:
                return None
            return diff != 0
        # strong SIV: a*i + c1 == a*i' + c2  =>  i - i' = (c2-c1)/a;
        # cross-iteration dependence iff that distance is a nonzero integer
        # within the iteration span
        delta = dst_rest - src_rest
        dv = delta.constant_value()
        if dv is None:
            # symbolic distance: independent iff provably zero... which is
            # the same-iteration case; cannot tell otherwise
            if cmp.eq(src_rest, dst_rest) is True:
                return True  # distance 0: no *cross-iteration* dependence
            return None
        distance = Fraction(dv, a)
        if distance.denominator != 1:
            return True  # non-integer distance: never equal
        d = distance.numerator
        if d == 0:
            return True  # same iteration only
        # dependent iff |d| <= span; span = hi - lo
        span = hi - lo
        within = cmp.le(SymExpr.const(abs(d)), span)
        if within is True:
            return False
        if within is False:
            return True
        return None
    # weak SIV with constant coefficients: a*i - b*i' = c2 - c1
    diff = (dst_rest - src_rest).constant_value()
    if diff is None:
        return None
    # check a few structural impossibilities: parity/gcd argument
    from math import gcd

    if a.denominator == 1 and b.denominator == 1 and diff.denominator == 1:
        g = gcd(abs(a.numerator), abs(b.numerator))
        if g and diff.numerator % g != 0:
            return True
    return None
