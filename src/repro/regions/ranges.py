"""Range triples ``(l : u : s)`` and their set operations (paper 5.1).

A :class:`Range` denotes the integer set ``{l, l+s, l+2s, ...} ∩ [l, u]``
with symbolic bounds.  Following the paper, the requirement ``l <= u`` is
*not* part of the range itself: every operation that may produce an empty
range attaches the non-emptiness condition to the guard, so that range
arithmetic never needs to case split on emptiness.

``min``/``max`` never appear inside ranges; where the paper's formulas use
them, we either resolve the comparison with a :class:`~repro.symbolic.compare.Comparer`
or emit the explicit inequality case split into guards — exactly the
treatment described in section 3.

All operations return a list of ``(Predicate, Range)`` pairs (a *guarded
range list*, union semantics) or ``None`` when the result cannot be
represented (the paper's Ω).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from ..errors import RegionError
from ..symbolic import Comparer, ExprLike, Predicate, SymExpr

GuardedRange = Tuple[Predicate, "Range"]
GuardedRangeList = List[GuardedRange]


class Range:
    """An immutable symbolic range triple ``(lo : hi : step)``."""

    __slots__ = ("lo", "hi", "step", "_hash", "_nonempty")

    def __init__(self, lo: ExprLike, hi: ExprLike, step: ExprLike = 1) -> None:
        self.lo = SymExpr.coerce(lo)
        self.hi = SymExpr.coerce(hi)
        self.step = SymExpr.coerce(step)
        sv = self.step.constant_value()
        if sv is not None and sv <= 0:
            raise RegionError(f"range step must be positive, got {sv}")
        self._hash = hash((self.lo, self.hi, self.step))
        self._nonempty = None

    def __reduce__(self):
        # rebuilt so the hash is the loading process's own
        return (Range, (self.lo, self.hi, self.step))

    @classmethod
    def point(cls, at: ExprLike) -> "Range":
        e = SymExpr.coerce(at)
        return cls(e, e, 1)

    # -- structure --------------------------------------------------------------

    def step_const(self) -> Optional[int]:
        """The step as an int when constant, else ``None``."""
        v = self.step.constant_value()
        if v is not None and v.denominator == 1:
            return v.numerator
        return None

    def is_point(self) -> bool:
        """True when ``lo == hi`` syntactically."""
        return self.lo == self.hi

    def is_unit_step(self) -> bool:
        """True when the step is the constant 1."""
        return self.step_const() == 1

    def nonempty_pred(self) -> Predicate:
        """The ``lo <= hi`` condition the paper keeps in the guard.

        Computed once per range — every GAR construction conjoins it.
        """
        cached = self._nonempty
        if cached is None:
            cached = self._nonempty = Predicate.le(self.lo, self.hi)
        return cached

    def free_vars(self) -> frozenset[str]:
        """Variables in the bounds and step."""
        return self.lo.free_vars() | self.hi.free_vars() | self.step.free_vars()

    def contains_var(self, name: str) -> bool:
        """Does *name* occur in the bounds or step?"""
        return (
            self.lo.contains(name)
            or self.hi.contains(name)
            or self.step.contains(name)
        )

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "Range":
        """Value substitution into bounds and step."""
        return Range(
            self.lo.substitute(bindings),
            self.hi.substitute(bindings),
            self.step.substitute(bindings),
        )

    def rename(self, mapping: Mapping[str, str]) -> "Range":
        """Variable renaming in bounds and step."""
        return Range(
            self.lo.rename(mapping),
            self.hi.rename(mapping),
            self.step.rename(mapping),
        )

    def shifted(self, delta: ExprLike) -> "Range":
        """The range translated by *delta*."""
        d = SymExpr.coerce(delta)
        return Range(self.lo + d, self.hi + d, self.step)

    def enumerate(self, env: Mapping[str, int]) -> list[int]:
        """Concrete elements under *env* (test oracle)."""
        lo = self.lo.evaluate(env)
        hi = self.hi.evaluate(env)
        step = self.step.evaluate(env)
        if step.denominator != 1 or lo.denominator != 1 or hi.denominator != 1:
            raise RegionError(f"non-integer range {self} under {dict(env)}")
        return list(range(lo.numerator, hi.numerator + 1, step.numerator))

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Range)
            and self.lo == other.lo
            and self.hi == other.hi
            and self.step == other.step
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Range<{self}>"

    def __str__(self) -> str:
        if self.is_point():
            return str(self.lo)
        if self.is_unit_step():
            return f"{self.lo}:{self.hi}"
        return f"{self.lo}:{self.hi}:{self.step}"


def _same_grid(r1: Range, r2: Range, cmp: Comparer) -> Optional[bool]:
    """Do the two ranges lie on the same arithmetic grid?

    For equal constant steps ``c``: true iff ``c`` divides ``l1 - l2``.
    For equal symbolic steps: true iff the lower bounds are provably equal.
    """
    s1, s2 = r1.step_const(), r2.step_const()
    if s1 is not None and s2 is not None:
        if s1 != s2:
            return None
        if s1 == 1:
            return True
        diff = (r1.lo - r2.lo).constant_value()
        if diff is None:
            # symbolic offset: same grid only if provably equal lower bounds
            return True if cmp.eq(r1.lo, r2.lo) is True else None
        return diff.denominator == 1 and diff.numerator % s1 == 0
    if r1.step == r2.step:
        return True if cmp.eq(r1.lo, r2.lo) is True else None
    return None


def _min_cases(
    a: SymExpr, b: SymExpr, cmp: Comparer
) -> list[tuple[Predicate, SymExpr]]:
    """``min(a, b)`` as guarded alternatives, resolved if provable."""
    r = cmp.le(a, b)
    if r is True:
        return [(Predicate.true(), a)]
    if r is False:
        return [(Predicate.true(), b)]
    if cmp.le(b, a) is True:
        return [(Predicate.true(), b)]
    return [(Predicate.le(a, b), a), (Predicate.gt(a, b), b)]


def _max_cases(
    a: SymExpr, b: SymExpr, cmp: Comparer
) -> list[tuple[Predicate, SymExpr]]:
    """``max(a, b)`` as guarded alternatives, resolved if provable."""
    r = cmp.le(a, b)
    if r is True:
        return [(Predicate.true(), b)]
    if r is False:
        return [(Predicate.true(), a)]
    if cmp.le(b, a) is True:
        return [(Predicate.true(), a)]
    return [(Predicate.le(a, b), b), (Predicate.gt(a, b), a)]


def _guarded(pred: Predicate, rng: Range) -> Optional[GuardedRange]:
    """Attach the non-emptiness condition; drop statically empty results."""
    full = pred & rng.nonempty_pred()
    if full.is_false():
        return None
    return (full, rng)


def range_intersect(
    r1: Range, r2: Range, cmp: Comparer
) -> Optional[GuardedRangeList]:
    """``r1 ∩ r2`` per the five step cases of section 5.1.

    Returns a guarded range list, or ``None`` for an unrepresentable (Ω)
    result.  An empty list is a provably empty intersection.
    """
    grid = _same_grid(r1, r2, cmp)
    if grid is True:
        step = r1.step
        out: GuardedRangeList = []
        for p_lo, lo in _max_cases(r1.lo, r2.lo, cmp):
            for p_hi, hi in _min_cases(r1.hi, r2.hi, cmp):
                item = _guarded(p_lo & p_hi, Range(lo, hi, step))
                if item is not None:
                    out.append(item)
        return out
    if grid is False:
        return []  # same constant step, different residues: disjoint
    s1, s2 = r1.step_const(), r2.step_const()
    if s1 is not None and s2 is not None and s1 % s2 == 0 and s1 != s2:
        # coarser grid r1 against finer r2 (paper's case 4: "divide r2
        # into several smaller ranges with step s1"): only the residue
        # class of r2 matching r1's grid can intersect.
        sub = _aligned_subrange(r2, r1, s1)
        if sub is None:
            return None  # symbolic offsets: alignment undecidable
        if sub is False:
            return []  # no residue of r2 lies on r1's grid
        return range_intersect(r1, sub, cmp)
    if s2 is not None and s1 is not None and s2 % s1 == 0 and s1 != s2:
        return range_intersect(r2, r1, cmp)
    return None


def _aligned_subrange(fine: Range, coarse: Range, step: int):
    """The sub-range of *fine* lying on *coarse*'s step-``step`` grid.

    Requires constant steps and a constant offset between the lower
    bounds; returns ``None`` when undecidable, ``False`` when no residue
    of *fine* matches, else the aligned :class:`Range` with step *step*.
    """
    s2 = fine.step_const()
    if s2 is None:
        return None
    offset = (coarse.lo - fine.lo).constant_value()
    if offset is None or offset.denominator != 1:
        return None
    # elements of fine: fine.lo + k*s2; on coarse's grid when
    # k*s2 ≡ offset (mod step) — since s2 | step, solvable iff s2 | offset
    if offset.numerator % s2 != 0:
        return False
    k0 = offset.numerator // s2
    ratio = step // s2
    k_first = k0 % ratio
    first = fine.lo + k_first * s2
    return Range(first, fine.hi, step)


def range_union(r1: Range, r2: Range, cmp: Comparer) -> Optional[Range]:
    """``r1 ∪ r2`` merged into a single range when provably possible.

    ``None`` means "keep the two ranges as a list" (not Ω — the union of
    two ranges is always representable as a list, per the paper).

    Precondition: the merge is valid only where both operands are
    non-empty, so the comparer context is refined with their ``lo <= hi``
    conditions.  Every GAR-level caller guarantees those conditions hold
    on the paths where the merged range is used (GAR guards carry them by
    construction); this is what licenses the paper's
    ``(1:a) U (a+1:100) = (1:100)`` example.
    """
    if r1 == r2:
        return r1
    cmp = cmp.refine(r1.nonempty_pred() & r2.nonempty_pred())
    grid = _same_grid(r1, r2, cmp)
    if grid is not True:
        return None
    step = r1.step
    sc = r1.step_const()
    # Mergeable when neither leaves a gap: l2 <= u1 + s and l1 <= u2 + s.
    no_gap_12 = cmp.le(r2.lo, r1.hi + step)
    no_gap_21 = cmp.le(r1.lo, r2.hi + step)
    if no_gap_12 is not True or no_gap_21 is not True:
        # containment fallbacks: r2 within r1 entirely
        if (
            cmp.le(r1.lo, r2.lo) is True
            and cmp.le(r2.hi, r1.hi) is True
            and cmp.le(r2.lo, r2.hi) is not True
        ):
            # r2 possibly empty and inside: union is r1 either way
            return r1
        return None
    lo_cases = _min_cases(r1.lo, r2.lo, cmp)
    hi_cases = _max_cases(r1.hi, r2.hi, cmp)
    if len(lo_cases) == 1 and len(hi_cases) == 1:
        return Range(lo_cases[0][1], hi_cases[0][1], step if sc != 1 else 1)
    return None


def range_difference(
    r1: Range, r2: Range, cmp: Comparer
) -> Optional[GuardedRangeList]:
    """``r1 - r2`` per section 5.1.

    The result is exact whenever the two ranges share a grid; on distinct
    constant-step grids with non-aligned residues the difference is ``r1``;
    otherwise ``None`` (Ω — caller over-approximates with ``r1``).
    """
    grid = _same_grid(r1, r2, cmp)
    if grid is False:
        return [(r1.nonempty_pred(), r1)]
    if grid is not True:
        s1, s2 = r1.step_const(), r2.step_const()
        if s1 is not None and s2 is not None and s1 % s2 == 0 and s1 != s2:
            # only r2's residue class on r1's grid can remove anything
            sub = _aligned_subrange(r2, r1, s1)
            if sub is None:
                return None
            if sub is False:
                return [(r1.nonempty_pred(), r1)]
            return range_difference(r1, sub, cmp)
        return None
    step = r1.step
    sc = r1.step_const()
    # The right piece starts after r2's LAST GRID POINT, which is r2.hi
    # only when r2.hi lies on the grid; otherwise align it down.  With a
    # symbolic mis-alignment the formula would skip elements (an unsound
    # under-approximation), so give up (Ω) unless it is computable.
    r2_hi = r2.hi
    if sc is not None and sc > 1:
        span = (r2.hi - r2.lo).constant_value()
        if span is None or span.denominator != 1:
            return None
        # floor alignment is correct for empty subtrahends too: span < 0
        # aligns r2_hi below r2.lo, so the right piece starts at or before
        # r1.lo and the difference degenerates to r1
        r2_hi = r2.lo + (span.numerator // sc) * sc
    elif sc is None:
        # symbolic step: alignment of r2.hi is undecidable
        if cmp.eq(r2.hi, r2.lo) is not True:
            return None
    out: GuardedRangeList = []
    # left piece: (l1 : min(u1, l2 - s) : s)
    for p_hi, hi in _min_cases(r1.hi, r2.lo - step, cmp):
        item = _guarded(p_hi, Range(r1.lo, hi, step))
        if item is not None:
            out.append(item)
    # right piece: (max(l1, last_grid(u2) + s) : u1 : s)
    for p_lo, lo in _max_cases(r1.lo, r2_hi + step, cmp):
        item = _guarded(p_lo, Range(lo, r1.hi, step))
        if item is not None:
            out.append(item)
    return out


def range_covers(r1: Range, r2: Range, cmp: Comparer) -> bool:
    """Provably ``r2 ⊆ r1`` (treating possibly-empty r2 as contained)."""
    grid = _same_grid(r1, r2, cmp)
    if grid is not True:
        s1 = r1.step_const()
        if s1 == 1:
            # unit-step r1 covers anything inside its bounds
            return cmp.le(r1.lo, r2.lo) is True and cmp.le(r2.hi, r1.hi) is True
        return False
    return cmp.le(r1.lo, r2.lo) is True and cmp.le(r2.hi, r1.hi) is True
