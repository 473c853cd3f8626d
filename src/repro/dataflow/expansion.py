"""The *expansion* function of section 4.1.

Given a GAR ``T`` mentioning a loop index ``i`` with ``lo <= i <= hi``
(step ``s``), expansion produces the union over all iterations:

* index constraints in the guard are solved and folded into tightened
  bounds (``max(l', lo) <= i <= min(u', hi)``), then deleted;
* an equality constraint ``i == e`` pins the index: substitute and keep
  the bounds as a guard condition (exact);
* a dimension ``(f(i) : g(i) : s_d)`` with ``f, g`` linear in ``i``
  expands to ``(min_i f : max_i g : ...)``; for point dimensions the
  result is exact with step ``|coeff| * s``; for sliding windows the
  result is exact when consecutive windows provably overlap or abut,
  otherwise it is kept as an inexact over-approximation;
* a dimension in which ``i`` appears non-linearly — or ``i`` appearing in
  several dimensions — becomes Ω (paper's rule), marking the GAR inexact.

``max``/``min`` over the collected bound candidates are resolved with the
comparer or emitted as explicit guard case splits, exactly like the range
operations of section 3.
"""

from __future__ import annotations

from typing import Optional

from ..perf.profiler import MISS, BoundedCache
from ..regions import GAR, GARList, Range, RegularRegion
from ..regions.gar_simplify import simplify_gar_list
from ..regions.ranges import _max_cases, _min_cases
from ..regions.region import OMEGA_DIM
from ..resilience.budget import charge as _budget_charge
from ..symbolic import Comparer, Predicate, Relation, RelOp, SymExpr

#: (member tuple, index, lo, hi, step, context fingerprint, symbolic flag)
#: → expanded GARList.  Like the simplifier's memo: the expansion is a
#: pure function of the key, and a recompile of the same program asks
#: for the same expansions (fresh symbols are numbered per compile).
_EXPAND_CACHE = BoundedCache("dataflow.expand", maxsize=4096)


def expand_gar_list(
    gars: GARList,
    index: str,
    lo: SymExpr,
    hi: SymExpr,
    step: SymExpr,
    cmp: Comparer,
) -> GARList:
    """Expansion of every member, simplified (memoized)."""
    # one budget step per call, cached or not (see simplify_gar_list)
    _budget_charge(1)
    key = (gars.gars, index, lo, hi, step, cmp._ctx_key, cmp.symbolic)
    cached = _EXPAND_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _EXPAND_CACHE.put(
        key, _expand_gar_list_uncached(gars, index, lo, hi, step, cmp)
    )


def _expand_gar_list_uncached(
    gars: GARList,
    index: str,
    lo: SymExpr,
    hi: SymExpr,
    step: SymExpr,
    cmp: Comparer,
) -> GARList:
    out = GARList.empty()
    for gar in gars:
        out = out.union(expand_gar(gar, index, lo, hi, step, cmp))
    return simplify_gar_list(out, cmp)


def expand_gar(
    gar: GAR,
    index: str,
    lo: SymExpr,
    hi: SymExpr,
    step: SymExpr,
    cmp: Comparer,
) -> GARList:
    """Expansion of one GAR by a loop index (section 4.1)."""
    if not gar.contains_var(index):
        # iterations don't change the set; it occurs iff the loop runs
        return GARList.of(gar.and_guard(Predicate.le(lo, hi)))
    kept, lowers, uppers, pinned, residual = _split_guard(gar.guard, index)
    lowers = [lo] + lowers
    uppers = [hi] + uppers
    exact = gar.exact and not residual

    if pinned is not None:
        # i == e: one iteration touches the region — substitute and bound
        bindings = {index: pinned}
        guard = kept.substitute(bindings)
        for l in lowers:
            guard = guard & Predicate.le(l.substitute(bindings), pinned)
        for u in uppers:
            guard = guard & Predicate.le(pinned, u.substitute(bindings))
        sc = step.constant_value()
        if sc is not None and sc == 1:
            pass  # every integer in [lo, hi] is an iterate
        else:
            # must also lie on the iteration grid — not representable in
            # general; keep the set but mark inexact
            exact = False
        region = gar.region.substitute(bindings)
        return GARList.of(GAR(guard, region, exact))

    for_each_bound = _bound_cases(lowers, uppers, cmp)
    if for_each_bound is None:
        # too many irreducible bound candidates: give up precisely,
        # over-approximate with Ω dimensions
        region = _omega_out_index(gar.region, index)
        return GARList.of(GAR(kept, region, exact=False))
    results: list[GAR] = []
    for extra, low, high in for_each_bound:
        expanded = _expand_region(
            gar.region, index, low, high, step, cmp.refine(kept & extra)
        )
        if expanded is None:
            region = _omega_out_index(gar.region, index)
            results.append(GAR(kept & extra, region, exact=False))
            continue
        region, region_exact, bindings_guard = expanded
        guard = kept & extra & bindings_guard & Predicate.le(low, high)
        if guard.contains(index):
            # index leaked through substitution (shouldn't happen) — drop
            guard = Predicate.unknown()
        results.append(GAR(guard, region, exact and region_exact))
    return GARList(results)


def _split_guard(
    guard: Predicate, index: str
) -> tuple[Predicate, list[SymExpr], list[SymExpr], Optional[SymExpr], bool]:
    """Partition guard clauses by their use of *index*.

    Returns ``(kept, lower_bounds, upper_bounds, pinned_value, residual)``:
    clauses free of the index are *kept*; unit inequality clauses linear in
    the index contribute bounds; a unit equality pins the index; anything
    else referencing the index is *residual* (dropped, result inexact).
    """
    if not guard.is_cnf():
        if guard.is_unknown():
            return Predicate.unknown(), [], [], None, True
        return guard, [], [], None, False
    kept = Predicate.true()
    lowers: list[SymExpr] = []
    uppers: list[SymExpr] = []
    pinned: Optional[SymExpr] = None
    residual = False
    for clause in guard.clauses:
        if index not in clause.free_vars():
            kept = kept & Predicate.of_clauses([clause])
            continue
        if not clause.is_unit():
            residual = True
            continue
        atom = clause.unit_atom()
        if not isinstance(atom, Relation) or not atom.expr.is_linear_in(index):
            residual = True
            continue
        coeff = atom.expr.coeff_of_var(index)
        rest = atom.expr - SymExpr.var(index).scaled(coeff)
        if atom.op is RelOp.EQ and abs(coeff) == 1:
            # coeff * i + rest == 0  =>  i == -rest / coeff
            if pinned is not None:
                residual = True  # two pins: don't silently drop one
                continue
            pinned = (-rest).div_const(coeff)
            continue
        if atom.op is RelOp.LE and coeff == 1:
            uppers.append(-rest)  # i <= -rest
            continue
        if atom.op is RelOp.LE and coeff == -1:
            lowers.append(rest)  # i >= rest
            continue
        residual = True
    return kept, lowers, uppers, pinned, residual


def _bound_cases(
    lowers: list[SymExpr], uppers: list[SymExpr], cmp: Comparer
) -> Optional[list[tuple[Predicate, SymExpr, SymExpr]]]:
    """All (guard, L, H) alternatives for ``L = max(lowers), H = min(uppers)``."""
    low_alts = _fold_cases(lowers, cmp, _max_cases)
    high_alts = _fold_cases(uppers, cmp, _min_cases)
    if low_alts is None or high_alts is None:
        return None
    out = []
    for pl, low in low_alts:
        for ph, high in high_alts:
            pred = pl & ph
            if not pred.is_false():
                out.append((pred, low, high))
    return out


def _fold_cases(
    exprs: list[SymExpr], cmp: Comparer, case_fn
) -> Optional[list[tuple[Predicate, SymExpr]]]:
    alts: list[tuple[Predicate, SymExpr]] = [(Predicate.true(), exprs[0])]
    for expr in exprs[1:]:
        new_alts: list[tuple[Predicate, SymExpr]] = []
        for pred, current in alts:
            for p2, winner in case_fn(current, expr, cmp.refine(pred)):
                combined = pred & p2
                if not combined.is_false():
                    new_alts.append((combined, winner))
        alts = new_alts
        if len(alts) > 4:
            return None
    return alts


def _omega_out_index(region: RegularRegion, index: str) -> RegularRegion:
    dims = [
        OMEGA_DIM
        if (isinstance(d, Range) and d.contains_var(index))
        else d
        for d in region.dims
    ]
    return RegularRegion(region.array, dims)


def _expand_region(
    region: RegularRegion,
    index: str,
    low: SymExpr,
    high: SymExpr,
    step: SymExpr,
    cmp: Comparer,
) -> Optional[tuple[RegularRegion, bool, Predicate]]:
    """Expand every dimension; returns (region, exact, extra_guard) or None."""
    index_dims = region.dims_containing(index)
    if not index_dims:
        return region, True, Predicate.true()
    exact = True
    extra = Predicate.true()
    if len(index_dims) > 1:
        # paper's rule: index in several dimensions — mark them Ω
        return _omega_out_index(region, index), False, Predicate.true()
    dims = list(region.dims)
    for pos in index_dims:
        dim = dims[pos]
        assert isinstance(dim, Range)
        result = _expand_dim(dim, index, low, high, step, cmp)
        if result is None:
            dims[pos] = OMEGA_DIM
            exact = False
            continue
        new_dim, dim_exact = result
        dims[pos] = new_dim
        exact = exact and dim_exact
    return RegularRegion(region.array, dims), exact, extra


def _split_linear(expr: SymExpr, index: str) -> Optional[tuple[SymExpr, SymExpr]]:
    """``expr = q * index + r`` with ``q``/``r`` free of *index*, or None.

    Unlike :meth:`SymExpr.is_linear_in`, the coefficient ``q`` may be
    symbolic (``m * i`` splits into ``q = m``) — needed to expand
    induction subscripts with symbolic strides.
    """
    q = SymExpr()
    r = SymExpr()
    for mono, coeff in expr.terms:
        power = mono.power_of(index)
        if power == 0:
            r = r + SymExpr({mono: coeff})
        elif power == 1:
            q = q + SymExpr({mono.divide_by_var(index): coeff})
        else:
            return None
    if q.contains(index):
        return None
    return q, r


def _expand_dim(
    dim: Range,
    index: str,
    low: SymExpr,
    high: SymExpr,
    step: SymExpr,
    cmp: Comparer,
) -> Optional[tuple[Range, bool]]:
    f, g, s = dim.lo, dim.hi, dim.step
    if s.contains(index):
        return None
    if f == g:
        split = _split_linear(f, index)
        if split is not None:
            q, r = split
            qv = q.constant_value()
            if qv is None:
                # symbolic stride: the iterates form the progression
                # (q*low + r : q*high + r : q*step) when q > 0
                sign = cmp.gt(q, 0)
                if sign is True:
                    lo_val = q * low + r
                    hi_val = q * high + r
                    return Range(lo_val, hi_val, q * step), True
                if sign is False and cmp.lt(q, 0) is True:
                    return Range(q * high + r, q * low + r, -(q * step)), True
                return None
    if not (f.is_linear_in(index) and g.is_linear_in(index)):
        return None
    a = f.coeff_of_var(index)
    b = g.coeff_of_var(index)
    at_low = {index: low}
    at_high = {index: high}
    if f == g:
        # point dimension: {f(i) : i = low..high step} — an arithmetic
        # progression with stride |a| * step, exact.
        stride = step.scaled(abs(a))
        if a > 0:
            return Range(f.substitute(at_low), f.substitute(at_high), stride), True
        return Range(f.substitute(at_high), f.substitute(at_low), stride), True
    f_min = f.substitute(at_low) if a >= 0 else f.substitute(at_high)
    g_max = g.substitute(at_high) if b >= 0 else g.substitute(at_low)
    sc = s.constant_value()
    if sc is not None and sc == 1:
        # window family: exact if consecutive windows overlap or abut:
        # for all i: g(i) + 1 >= f(i + step)  (f side moving by a*step)
        shift = f.substitute({index: SymExpr.var(index) + step})
        covered = cmp.refine(
            Predicate.le(low, SymExpr.var(index))
            & Predicate.le(SymExpr.var(index), high - step)
        ).le(shift, g + 1)
        if covered is True:
            return Range(f_min, g_max, 1), True
        if a == 0 and b == 0:
            # i only in the guard (already handled) — not reachable here
            return Range(f_min, g_max, 1), True
        return Range(f_min, g_max, 1), False
    # non-unit window step: over-approximate with a unit-step envelope
    return Range(f_min, g_max, 1), False
