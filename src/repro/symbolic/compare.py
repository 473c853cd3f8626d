"""Symbolic comparison of expressions under a predicate context.

Region operations constantly need to answer questions like "is ``l1 <= l2``
given the guard so far?" (see the intersection case split of section 3.1).
:class:`Comparer` layers three strategies, cheapest first:

1. constant folding of the difference,
2. the pairwise implication tests of the limited simplifier,
3. Fourier–Motzkin refutation using the unit atoms of the context.

Every answer is three-valued: ``True`` / ``False`` are proofs, ``None``
means "cannot tell" and the caller must keep the symbolic case split.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..perf.profiler import COUNTERS, MISS, BoundedCache
from ..resilience.budget import charge as _budget_charge
from .expr import ExprLike, SymExpr
from .fourier_motzkin import definitely_unsat, definitely_unsat_many, implied_by
from .predicate import Predicate
from .relation import Atom, Relation

#: (context fingerprint, use_fm, relation) → three-valued verdict.  The
#: fingerprint is the frozen set of context unit atoms, so every Comparer
#: over the same effective context — including refined children that
#: round-trip back to a previously seen context — shares one memo line.
_PROVE_CACHE = BoundedCache("comparer.prove", maxsize=32768)
#: predicate-level entailment/unsat memos (the GAR/region pairwise passes
#: re-ask these for the same guard pairs across every simplification pass)
_IMPLIES_CACHE = BoundedCache("predicate.implies", maxsize=16384)
_PRED_UNSAT_CACHE = BoundedCache("predicate.unsat", maxsize=16384)


def _all_unit_cnf(pred: Predicate) -> bool:
    """Is *pred* a CNF whose clauses are all unit clauses?"""
    return pred.is_cnf() and all(c.is_unit() for c in pred.clauses)


class Comparer:
    """Answers ordered comparisons between symbolic expressions under a
    guard context.  Instances are cheap; they hold only the context atoms."""

    def __init__(
        self,
        context: Predicate | None = None,
        use_fm: bool = True,
        symbolic: bool = True,
    ):
        self.context = context if context is not None else Predicate.true()
        self.use_fm = use_fm
        #: with symbolic reasoning off (the T1 ablation of the paper's
        #: Table 1) only constant folding is available
        self.symbolic = symbolic
        self._set_atoms(
            self.context.unit_atoms() if self.context.is_cnf() else []
        )

    def _set_atoms(self, atoms: list[Atom]) -> None:
        self._context_atoms = atoms
        self._ctx_key = (frozenset(atoms), self.use_fm)

    # -- core three-valued proof ------------------------------------------------

    def prove(self, relation: Relation) -> Optional[bool]:
        """Prove or refute a relation under the context; None if unknown."""
        t = relation.truth()
        if t is not None:
            return t
        if not self.symbolic:
            return None
        COUNTERS.prove_calls += 1
        # one proof attempt = one budget step (cached or not: repeats are
        # cheap but a budgeted run must still terminate deterministically)
        _budget_charge(1)
        key = (self._ctx_key, relation)
        cached = _PROVE_CACHE.get(key)
        if cached is not MISS:
            return cached
        return _PROVE_CACHE.put(key, self._prove_uncached(relation))

    def _prove_uncached(self, relation: Relation) -> Optional[bool]:
        for atom in self._context_atoms:
            r = atom.implies(relation)
            if r is True:
                return True
            if atom.implies(relation.negate()) is True:
                return False
        if self.use_fm:
            COUNTERS.prove_fm_queries += 1
            # both refutation systems in one batch submission:
            # ctx => r  is unsat(ctx + not r);  ctx => not r  is unsat(ctx + r)
            proved, refuted = definitely_unsat_many(
                [
                    self._context_atoms + [relation.negate()],
                    self._context_atoms + [relation],
                ]
            )
            if proved:
                return True
            if refuted:
                return False
        return None

    # -- relational sugar ----------------------------------------------------------

    def le(self, a: ExprLike, b: ExprLike) -> Optional[bool]:
        """Prove ``a <= b``; three-valued."""
        return self.prove(Relation.le(a, b))

    def lt(self, a: ExprLike, b: ExprLike) -> Optional[bool]:
        """Prove ``a < b``; three-valued."""
        return self.prove(Relation.lt(a, b))

    def ge(self, a: ExprLike, b: ExprLike) -> Optional[bool]:
        """Prove ``a >= b``; three-valued."""
        return self.prove(Relation.ge(a, b))

    def gt(self, a: ExprLike, b: ExprLike) -> Optional[bool]:
        """Prove ``a > b``; three-valued."""
        return self.prove(Relation.gt(a, b))

    def eq(self, a: ExprLike, b: ExprLike) -> Optional[bool]:
        """Prove ``a == b``; three-valued."""
        a = SymExpr.coerce(a)
        b = SymExpr.coerce(b)
        if a == b:
            return True
        return self.prove(Relation.eq(a, b))

    def ne(self, a: ExprLike, b: ExprLike) -> Optional[bool]:
        """Prove ``a != b``; three-valued."""
        r = self.eq(a, b)
        return None if r is None else not r

    # -- context refinement ----------------------------------------------------------

    def refine(self, extra: Predicate) -> "Comparer":
        """A comparer whose context additionally assumes *extra*.

        The conjoined context predicate is still built (it is the child's
        ``context``, and FALSE detection must see the full conjunction),
        but the expensive part — re-extracting the unit-atom list from the
        conjoined CNF — is done incrementally when both sides are plain
        atom conjunctions: the child's atoms are the parent's atoms plus
        the extra predicate's unit atoms.  Simplification of the
        conjunction can only drop atoms subsumed by kept ones in that
        case, so the extended list is a verdict-equivalent superset.
        """
        if extra.is_true() or not self.symbolic:
            return self
        combined = self.context & extra
        child = Comparer.__new__(Comparer)
        child.context = combined
        child.use_fm = self.use_fm
        child.symbolic = self.symbolic
        if not combined.is_cnf():
            child._set_atoms([])
        elif (
            _all_unit_cnf(extra)
            and (self.context.is_true() or _all_unit_cnf(self.context))
        ):
            atoms = list(self._context_atoms)
            seen = set(atoms)
            for atom in extra.unit_atoms():
                if atom not in seen:
                    seen.add(atom)
                    atoms.append(atom)
            child._set_atoms(atoms)
        else:
            # non-unit clauses present: unit propagation may surface new
            # unit atoms, so fall back to the full extraction
            child._set_atoms(combined.unit_atoms())
        return child


def predicate_unsat(pred: Predicate, use_fm: bool = True) -> bool:
    """Provably unsatisfiable predicate (beyond its own normalization).

    Only the unit-clause conjunction is consulted — dropping non-unit
    clauses weakens the predicate, so a True result remains sound.
    """
    if pred.is_false():
        return True
    if not pred.is_cnf() or not use_fm:
        return False
    cached = _PRED_UNSAT_CACHE.get(pred)
    if cached is not MISS:
        return cached
    return _PRED_UNSAT_CACHE.put(pred, definitely_unsat(pred.unit_atoms()))


def predicate_unsat_many(
    preds: Sequence[Predicate], use_fm: bool = True
) -> List[bool]:
    """Batch form of :func:`predicate_unsat`.

    The region layer produces whole lists of guards per propagation step
    (GAR-list emptiness, simplification pre-screening); this submits every
    unresolved guard's atom system to the constraint core in one call.
    """
    out: list = [None] * len(preds)
    pending: list[int] = []
    for i, pred in enumerate(preds):
        if pred.is_false():
            out[i] = True
        elif not pred.is_cnf() or not use_fm:
            out[i] = False
        else:
            cached = _PRED_UNSAT_CACHE.get(pred)
            if cached is not MISS:
                out[i] = cached
            else:
                pending.append(i)
    if pending:
        verdicts = definitely_unsat_many(
            [preds[i].unit_atoms() for i in pending]
        )
        for i, verdict in zip(pending, verdicts):
            out[i] = _PRED_UNSAT_CACHE.put(preds[i], verdict)
    return out


def predicate_implies(p: Predicate, q: Predicate, use_fm: bool = True) -> bool:
    """Provable ``p => q``; False means "not proven" (not a refutation)."""
    direct = p.implies(q)
    if direct is not None:
        return direct
    if not use_fm or not p.is_cnf() or not q.is_cnf():
        return False
    key = (p, q)
    cached = _IMPLIES_CACHE.get(key)
    if cached is not MISS:
        return cached
    context = p.unit_atoms()
    # q holds if every clause of q is implied; for unit clauses use FM,
    # for wider clauses require some atom individually implied.
    result = True
    for clause in q.clauses:
        if not any(implied_by(context, atom) for atom in clause.atoms):
            result = False
            break
    return _IMPLIES_CACHE.put(key, result)
