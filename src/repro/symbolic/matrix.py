"""Matrix-form Fourier–Motzkin: the production constraint core.

The object-layer eliminator in :mod:`repro.symbolic.fourier_motzkin`
represents every constraint as a ``{Monomial: Fraction}`` dict and
combines rows by dict merges.  The systems it decides are dense
small-integer linear algebra, so this module runs the same elimination
on a coefficient matrix:

* columns are linearized monomials, ordered by their canonical
  :meth:`~repro.symbolic.terms.Monomial.sort_key`;
* rows are lists of arbitrary-precision integers (every atom is scaled
  by the lcm of its coefficient denominators — a positive factor, so
  feasibility, signs, pivot costs, and constraint counts are unchanged),
  which keeps the arithmetic exact with no overflow to guard against;
* one pass per round tallies positive/negative entries per column for
  the pivot choice.

Verdict identity.  The matrix path follows the object eliminator's
exact trajectory: same constraint expansion (EQ → two rows, bounded NE
case splits), same pivot rule (min ``pos*neg``, ties to the smallest
monomial sort key), same effort caps at the same points, and the same
budget charges (one per eliminated pair).  FM without bail-outs is a
complete decision procedure, and with this discipline the bail-outs
trigger identically too, so ``definitely_unsat`` verdicts are
bit-identical to the object reference — asserted by the property suite
(``tests/property/test_prop_matrix_fm.py``) and
``benchmarks/bench_constraints.py``, which call the reference directly.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence, Tuple

from ..perf.profiler import COUNTERS
from ..resilience.budget import charge as _budget_charge
from .expr import Number
from .relation import Relation, RelOp
from .terms import Monomial

#: one conjunction ``rows · vars + consts <= 0`` (``< 0`` where strict):
#: integer coefficient rows aligned on the columns, constants, strict bits
System = Tuple[List[List[int]], List[int], List[bool]]


def backend_name() -> str:
    """The constraint backend in effect (reported by ``--profile``,
    ``--stats-json`` and ``/v1/stats``): always the exact ``python``
    matrix path."""
    return "python"


# --------------------------------------------------------------------------- #
# system construction
# --------------------------------------------------------------------------- #


def _scaled_row(expr, strict: bool) -> tuple[dict, int, bool]:
    """One atom expression as ``(mono → int coeff, int const, strict)``.

    Scaling by the lcm of the denominators is a positive factor, so the
    constraint — and every sign/count the eliminator looks at — is
    unchanged.  An all-``int`` expression (the common case) needs none.
    """
    out: dict[Monomial, Number] = {}
    const: Number = 0
    lcm = 1
    for mono, coeff in expr.terms:
        if type(coeff) is not int:
            d = coeff.denominator
            lcm = lcm * d // gcd(lcm, d)
        if mono.is_unit():
            const = coeff
        else:
            out[mono] = coeff
    if lcm != 1:
        out = {m: int(c * lcm) for m, c in out.items()}
        const = int(const * lcm)
    return out, const, strict


def build_systems(
    relations: Sequence[Relation], max_ne_splits: int
) -> List[System]:
    """Expand relations into integer systems, mirroring the object layer:
    EQ becomes two rows, NE case-splits into alternative systems up to
    *max_ne_splits* (extras dropped — weakening, still sound)."""
    base: list[tuple[dict, int, bool]] = []
    nes: list[Relation] = []
    for rel in relations:
        if rel.op is RelOp.LE:
            base.append(_scaled_row(rel.expr, False))
        elif rel.op is RelOp.LT:
            base.append(_scaled_row(rel.expr, True))
        elif rel.op is RelOp.EQ:
            base.append(_scaled_row(rel.expr, False))
            base.append(_scaled_row(-rel.expr, False))
        else:  # NE
            nes.append(rel)
    if len(nes) > max_ne_splits:
        COUNTERS.fm_ne_splits_dropped += len(nes) - max_ne_splits
    nes = nes[:max_ne_splits]
    branches = [base]
    for rel in nes:
        if rel.integer:
            lo = _scaled_row(rel.expr + 1, False)  # e <= -1
            hi = _scaled_row(-rel.expr + 1, False)  # e >= 1
        else:
            lo = _scaled_row(rel.expr, True)  # e < 0
            hi = _scaled_row(-rel.expr, True)  # e > 0
        branches = [s + [lo] for s in branches] + [s + [hi] for s in branches]

    out: list[System] = []
    for branch in branches:
        monos = sorted(
            {m for coeffs, _, _ in branch for m in coeffs},
            key=Monomial.sort_key,
        )
        index = {m: k for k, m in enumerate(monos)}
        rows: list[list[int]] = []
        for coeffs, _, _ in branch:
            row = [0] * len(monos)
            for m, v in coeffs.items():
                row[index[m]] = v
            rows.append(row)
        out.append(
            (rows, [c for _, c, _ in branch], [s for _, _, s in branch])
        )
    return out


# --------------------------------------------------------------------------- #
# elimination
# --------------------------------------------------------------------------- #


def eliminate(
    system: System, max_variables: int, max_constraints: int
) -> Optional[bool]:
    """FM elimination on one integer system; True = infeasible, False =
    feasible (rationally), None = effort cap hit."""
    rows, consts, stricts = system
    while True:
        keep_rows: list[list[int]] = []
        keep_consts: list[int] = []
        keep_stricts: list[bool] = []
        for row, const, strict in zip(rows, consts, stricts):
            if any(row):
                keep_rows.append(row)
                keep_consts.append(const)
                keep_stricts.append(strict)
            elif const > 0 or (strict and const >= 0):
                return True
        rows, consts, stricts = keep_rows, keep_consts, keep_stricts
        if not rows:
            return False
        width = len(rows[0])
        pos = [0] * width
        neg = [0] * width
        for row in rows:
            for k in range(width):
                v = row[k]
                if v > 0:
                    pos[k] += 1
                elif v < 0:
                    neg[k] += 1
        active = [k for k in range(width) if pos[k] or neg[k]]
        if len(active) > max_variables:
            COUNTERS.fm_var_limit_bailouts += 1
            return None
        if len(rows) > max_constraints:
            COUNTERS.fm_constraint_limit_bailouts += 1
            return None
        # pivot: fewest pos*neg products, ties to the lowest column
        # (columns are in monomial sort-key order — same rule as the
        # object eliminator)
        p = min(active, key=lambda k: (pos[k] * neg[k], k))
        uppers: list[int] = []
        lowers: list[int] = []
        others: list[int] = []
        for i, row in enumerate(rows):
            v = row[p]
            if v > 0:
                uppers.append(i)
            elif v < 0:
                lowers.append(i)
            else:
                others.append(i)
        # one eliminated pair = one budget step (proportional
        # degradation on dense systems)
        _budget_charge(len(uppers) * len(lowers))
        new_rows = [rows[i] for i in others]
        new_consts = [consts[i] for i in others]
        new_stricts = [stricts[i] for i in others]
        for ui in uppers:
            urow, uconst, ustrict = rows[ui], consts[ui], stricts[ui]
            a = urow[p]
            for li in lowers:
                lrow, lconst, lstrict = rows[li], consts[li], stricts[li]
                b = -lrow[p]
                crow = [b * u + a * l for u, l in zip(urow, lrow)]
                cconst = b * uconst + a * lconst
                cstrict = ustrict or lstrict
                if not any(crow):
                    if cconst > 0 or (cstrict and cconst >= 0):
                        return True
                    continue
                new_rows.append(crow)
                new_consts.append(cconst)
                new_stricts.append(cstrict)
        if len(new_rows) > max_constraints:
            COUNTERS.fm_constraint_limit_bailouts += 1
            return None
        rows, consts, stricts = new_rows, new_consts, new_stricts


def unsat_conjunction(
    relations: Sequence[Relation],
    max_ne_splits: int,
    max_variables: int,
    max_constraints: int,
) -> bool:
    """True only when every case-split system is provably infeasible."""
    for system in build_systems(relations, max_ne_splits):
        COUNTERS.fm_eliminations += 1
        if eliminate(system, max_variables, max_constraints) is not True:
            return False
    return True
