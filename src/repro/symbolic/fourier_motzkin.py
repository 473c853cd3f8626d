"""Fourier–Motzkin elimination over linear atom conjunctions.

The paper cites Fourier–Motzkin pairwise elimination as the general (most
precise, most expensive) machinery behind constraint-based array analyses
and suggests it as the stronger fallback for its limited pairwise predicate
simplifier.  This module provides exactly that fallback: a decision
procedure for *unsatisfiability* of a conjunction of relational atoms.

Nonlinear monomials are linearized by treating each distinct monomial as an
independent fresh variable.  Linearization only ever adds models, therefore:

* ``definitely_unsat(atoms) is True``  — sound: the conjunction has no
  solution (in fact no rational solution of the linearization).
* a ``False`` result means "could not prove unsatisfiable", not
  "satisfiable".

Strict inequalities (real-typed ``<``) are tracked with a strictness bit;
a derived constant constraint ``c <= 0`` is infeasible when ``c > 0``, or
``c >= 0`` if any contributing constraint was strict.

Disequalities (``e != 0``) are handled by case-splitting (into
``e <= -1`` / ``e >= 1`` for integer atoms, ``e < 0`` / ``e > 0`` for real
ones) up to a small bound, after which they are dropped — dropping only
weakens the system, so a True result remains trustworthy.

Paths.  Production queries run on the exact integer matrix core
(:mod:`repro.symbolic.matrix`).  This module keeps the original
object-layer eliminator (:func:`_unsat_object`) as the *reference*: no
production path calls it; the property suite and the constraint bench
compare the matrix path against it.  Both use the same pivot rule (min
``pos*neg``, ties to the smallest monomial sort key) and hit the same
effort caps at the same points, so verdicts — including ``None``
bail-outs — are bit-identical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from ..perf.profiler import COUNTERS, MISS, BoundedCache
from ..resilience.budget import charge as _budget_charge
from . import matrix as _matrix
from .expr import SymExpr
from .relation import Atom, BoolAtom, Relation, RelOp

#: elimination effort caps
MAX_VARIABLES = 24
MAX_CONSTRAINTS = 600
MAX_NE_SPLITS = 3

#: frozen atom set → unsat verdict.  Bounded entry by entry: the old
#: clear-when-full dict dropped the entire working set at the worst
#: moment (mid-analysis of a large routine); eviction now sheds only the
#: oldest entries.
_UNSAT_CACHE = BoundedCache("fm.unsat", maxsize=65536)
#: (frozen context atoms, conclusion) → implication verdict; avoids even
#: building the combined atom list on repeats
_IMPLIED_CACHE = BoundedCache("fm.implied_by", maxsize=65536)


class _Constraint:
    """``coeffs . vars + const <= 0`` (or ``< 0`` when strict)."""

    __slots__ = ("coeffs", "const", "strict")

    def __init__(
        self, coeffs: dict[object, Fraction], const: Fraction, strict: bool = False
    ) -> None:
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        self.const = const
        self.strict = strict

    def is_constant(self) -> bool:
        return not self.coeffs

    def infeasible(self) -> bool:
        if not self.is_constant():
            return False
        return self.const > 0 or (self.strict and self.const >= 0)


def _to_constraint(expr: SymExpr, strict: bool = False) -> _Constraint:
    coeffs: dict[object, Fraction] = {}
    const = Fraction(0)
    for mono, coeff in expr.terms:
        if mono.is_unit():
            const += coeff
        else:
            # the monomial object itself is the linearized variable key
            coeffs[mono] = coeffs.get(mono, Fraction(0)) + coeff
    return _Constraint(coeffs, const, strict)


def _eliminate(constraints: list[_Constraint]) -> Optional[bool]:
    """Run FM elimination; True = infeasible, False = feasible (rationally),
    None = gave up (too large)."""
    work = list(constraints)
    while True:
        for c in work:
            if c.infeasible():
                return True
        work = [c for c in work if not c.is_constant()]
        if not work:
            return False
        # one pass tallies the positive/negative occurrences per variable;
        # the old per-candidate rescan was O(V*C) every round
        pos: dict[object, int] = {}
        neg: dict[object, int] = {}
        for c in work:
            for v, coeff in c.coeffs.items():
                if coeff > 0:
                    pos[v] = pos.get(v, 0) + 1
                    neg.setdefault(v, 0)
                else:
                    neg[v] = neg.get(v, 0) + 1
                    pos.setdefault(v, 0)
        if len(pos) > MAX_VARIABLES:
            COUNTERS.fm_var_limit_bailouts += 1
            return None
        if len(work) > MAX_CONSTRAINTS:
            COUNTERS.fm_constraint_limit_bailouts += 1
            return None

        # pivot: fewest pos*neg products, ties broken by the canonical
        # monomial order so every backend picks the same variable
        var = min(pos, key=lambda v: (pos[v] * neg[v], v.sort_key()))
        uppers = []  # coeff > 0: var bounded above
        lowers = []  # coeff < 0: var bounded below
        others = []
        for c in work:
            coeff = c.coeffs.get(var, Fraction(0))
            if coeff > 0:
                uppers.append(c)
            elif coeff < 0:
                lowers.append(c)
            else:
                others.append(c)
        # one eliminated pair = one budget step, so --budget-steps
        # degrades proportionally on dense systems
        _budget_charge(len(uppers) * len(lowers))
        new = others
        for up in uppers:
            for lo in lowers:
                a = up.coeffs[var]
                b = -lo.coeffs[var]
                # combine: b*up + a*lo eliminates var
                coeffs: dict[object, Fraction] = {}
                for k, v in up.coeffs.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + b * v
                for k, v in lo.coeffs.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + a * v
                const = b * up.const + a * lo.const
                c = _Constraint(coeffs, const, up.strict or lo.strict)
                if c.infeasible():
                    return True
                if not c.is_constant():
                    new.append(c)
        if len(new) > MAX_CONSTRAINTS:
            COUNTERS.fm_constraint_limit_bailouts += 1
            return None
        work = new


def _atoms_to_systems(
    atoms: Sequence[Relation], splits_left: int
) -> Iterable[list[_Constraint]]:
    """Expand EQ into two LE's and case-split NE's into alternative systems."""
    base: list[_Constraint] = []
    nes: list[Relation] = []
    for atom in atoms:
        if atom.op is RelOp.LE:
            base.append(_to_constraint(atom.expr))
        elif atom.op is RelOp.LT:
            base.append(_to_constraint(atom.expr, strict=True))
        elif atom.op is RelOp.EQ:
            base.append(_to_constraint(atom.expr))
            base.append(_to_constraint(-atom.expr))
        else:  # NE
            nes.append(atom)
    if len(nes) > splits_left:
        # drop extras (weakens the system: still sound)
        COUNTERS.fm_ne_splits_dropped += len(nes) - splits_left
        nes = sorted(nes, key=_matrix.ne_order)[:splits_left]
    systems = [base]
    for rel in nes:
        if rel.integer:
            lo = _to_constraint(rel.expr + 1)  # e <= -1
            hi = _to_constraint(-rel.expr + 1)  # e >= 1
        else:
            lo = _to_constraint(rel.expr, strict=True)  # e < 0
            hi = _to_constraint(-rel.expr, strict=True)  # e > 0
        systems = [s + [lo] for s in systems] + [s + [hi] for s in systems]
    return systems


def definitely_unsat(atoms: Iterable[Atom]) -> bool:
    """True only when the conjunction of *atoms* is provably unsatisfiable.

    Results are memoized on the atom set — the region operations issue the
    same queries many times during propagation.
    """
    key = frozenset(atoms)
    cached = _UNSAT_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _UNSAT_CACHE.put(key, _definitely_unsat(key))


def definitely_unsat_many(atom_sets: Sequence[Iterable[Atom]]) -> List[bool]:
    """Batch form of :func:`definitely_unsat`.

    The Comparer and the region operations accumulate many atom systems
    per propagation step; submitting them together consults the
    memo once per distinct system and decides only the residue.
    """
    keys = [frozenset(atoms) for atoms in atom_sets]
    out: list = [None] * len(keys)
    pending: dict[frozenset, list[int]] = {}
    for i, key in enumerate(keys):
        cached = _UNSAT_CACHE.get(key)
        if cached is not MISS:
            out[i] = cached
        else:
            pending.setdefault(key, []).append(i)
    for key, slots in pending.items():
        verdict = _UNSAT_CACHE.put(key, _definitely_unsat(key))
        for i in slots:
            out[i] = verdict
    return out


def _open_relations(atoms: Iterable[Atom]) -> Optional[list[Relation]]:
    """The relational atoms left for elimination, or ``None`` when the
    conjunction is already false (a constant-false atom or two
    conflicting boolean atoms)."""
    relations: list[Relation] = []
    bools: dict[str, bool] = {}
    for atom in atoms:
        if isinstance(atom, BoolAtom):
            if bools.setdefault(atom.name, atom.value) != atom.value:
                return None
        else:
            t = atom.truth()
            if t is False:
                return None
            if t is None:
                relations.append(atom)
    return relations


def _definitely_unsat(atoms: frozenset) -> bool:
    relations = _open_relations(atoms)
    if relations is None:
        return True
    if not relations:
        return False
    return _matrix.unsat_conjunction(
        relations, MAX_NE_SPLITS, MAX_VARIABLES, MAX_CONSTRAINTS
    )


def _unsat_object(atoms: Iterable[Atom]) -> bool:
    """The object-layer reference for :func:`definitely_unsat` (uncached):
    every case-split system must eliminate to infeasible.  Like it, it
    decides the atom *set*: a repeated atom is one atom."""
    relations = _open_relations(frozenset(atoms))
    if relations is None:
        return True
    for system in _atoms_to_systems(relations, MAX_NE_SPLITS):
        COUNTERS.fm_eliminations += 1
        if _eliminate(system) is not True:
            return False
    return True


def implied_by(context: Iterable[Atom], conclusion: Atom) -> bool:
    """True only when ``AND(context) => conclusion`` is provable.

    Checked as unsatisfiability of ``context AND NOT conclusion``.
    """
    ctx = context if isinstance(context, frozenset) else frozenset(context)
    key = (ctx, conclusion)
    cached = _IMPLIED_CACHE.get(key)
    if cached is not MISS:
        return cached
    return _IMPLIED_CACHE.put(
        key, definitely_unsat(list(ctx) + [conclusion.negate()])
    )
