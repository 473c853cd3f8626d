"""Guard predicates in ordered conjunctive normal form (paper section 5.2).

A :class:`Predicate` is either ``TRUE``, ``FALSE``, ``UNKNOWN`` (the paper's
unknown guard, written Δ), or a conjunction of :class:`Disjunction` clauses,
each a set of atoms (:class:`~repro.symbolic.relation.Relation` or
:class:`~repro.symbolic.relation.BoolAtom`).

The pairwise simplifications of the paper's "limited simplifier" — the
truth value of the conjunction/disjunction of two relational expressions,
subsumption between two disjunctions — happen eagerly at construction time.
Operations whose CNF result would exceed the complexity caps degrade to
``UNKNOWN`` exactly as the paper marks over-complex predicates unknown.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Mapping, Optional

from ..perf.profiler import MISS, BoundedCache
from .expr import SymExpr
from .relation import Atom, BoolAtom, Relation

#: complexity caps beyond which predicate operations degrade to UNKNOWN
MAX_CLAUSES = 80
MAX_ATOMS_PER_CLAUSE = 24

#: memo tables for the CNF-normalizing logical connectives — conj/disj
#: redo pairwise simplification from scratch on every call, and guard
#: algebra in the region layers conjoins the same few predicates over
#: and over; keys are the (hashable) operand predicates themselves
_CONJ_CACHE = BoundedCache("predicate.conj", maxsize=8192)
_DISJ_CACHE = BoundedCache("predicate.disj", maxsize=8192)
_NEG_CACHE = BoundedCache("predicate.negate", maxsize=8192)


class _Kind(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"
    CNF = "cnf"


class Disjunction:
    """One CNF clause: a disjunction of atoms, simplified pairwise."""

    __slots__ = ("atoms", "always_true", "_hash")

    def __init__(self, atoms: Iterable[Atom]) -> None:
        kept: list[Atom] = []
        always_true = False
        for atom in atoms:
            t = atom.truth()
            if t is True:
                always_true = True
                break
            if t is False:
                continue
            kept.append(atom)
        if not always_true and len(kept) > 1:
            kept = self._prune(kept)
            always_true = self._is_tautology(kept)
        self.always_true = always_true
        self.atoms: frozenset[Atom] = frozenset() if always_true else frozenset(kept)
        self._hash = hash((self.always_true, self.atoms))

    def __reduce__(self):
        # rebuilt rather than restored, so the hash is the loading
        # process's own (atom hashes involve per-process string hashes)
        return (_rebuild_disjunction, (self.always_true, self.atoms))

    @staticmethod
    def _prune(atoms: list[Atom]) -> list[Atom]:
        """Drop atoms absorbed by weaker ones: if a => b then a OR b == b."""
        unique = list(dict.fromkeys(atoms))
        dropped: set[int] = set()
        for i, a in enumerate(unique):
            if i in dropped:
                continue
            for j, b in enumerate(unique):
                if i == j or j in dropped:
                    continue
                if a.implies(b) is True:
                    dropped.add(i)
                    break
        return [a for i, a in enumerate(unique) if i not in dropped]

    @staticmethod
    def _is_tautology(atoms: list[Atom]) -> bool:
        """Pairwise tautology: (not a) => b means a OR b covers everything."""
        for a, b in itertools.combinations(atoms, 2):
            if a.negate().implies(b) is True or b.negate().implies(a) is True:
                return True
        return False

    def is_false(self) -> bool:
        """True for the unsatisfiable empty clause."""
        return not self.always_true and not self.atoms

    def is_unit(self) -> bool:
        """True when the clause holds exactly one atom."""
        return len(self.atoms) == 1

    def unit_atom(self) -> Atom:
        """The single atom of a unit clause."""
        (atom,) = self.atoms
        return atom

    def subsumes(self, other: "Disjunction") -> bool:
        """``self => other`` clause-wise: every atom of self implies some
        atom of other (so any model of self is a model of other)."""
        if other.always_true:
            return True
        if self.always_true:
            return False
        return all(
            any(a.implies(b) is True for b in other.atoms) for a in self.atoms
        )

    def substitute(self, bindings: Mapping[str, SymExpr]) -> Optional["Disjunction"]:
        """``None`` signals an unrepresentable result (a logical variable
        bound to a non-variable value) — the predicate degrades to Δ."""
        if self.always_true:
            return self
        out = []
        for a in self.atoms:
            replaced = a.substitute(bindings)
            if replaced is None:
                return None
            out.append(replaced)
        return Disjunction(out)

    def rename(self, mapping: Mapping[str, str]) -> "Disjunction":
        """Variable renaming over all atoms."""
        if self.always_true:
            return self
        return Disjunction(a.rename(mapping) for a in self.atoms)

    def free_vars(self) -> frozenset[str]:
        """Variables occurring in any atom."""
        out: set[str] = set()
        for a in self.atoms:
            out |= a.free_vars()
        return frozenset(out)

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Concrete truth value under an environment."""
        return self.always_true or any(a.evaluate(env) for a in self.atoms)

    def sorted_atoms(self) -> list[Atom]:
        """The atoms in canonical display order."""
        return sorted(self.atoms, key=lambda a: a.sort_key())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Disjunction)
            and self._hash == other._hash
            and self.always_true == other.always_true
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"Disjunction<{self}>"

    def __str__(self) -> str:
        if self.always_true:
            return "True"
        if not self.atoms:
            return "False"
        return " .OR. ".join(str(a) for a in self.sorted_atoms())

    def sort_key(self) -> tuple:
        """Canonical ordering key."""
        return tuple(a.sort_key() for a in self.sorted_atoms())


class Predicate:
    """A guard predicate: TRUE / FALSE / UNKNOWN (Δ) / a CNF clause set."""

    __slots__ = ("_kind", "clauses", "_hash", "_settled")

    def __init__(
        self,
        kind: _Kind,
        clauses: frozenset[Disjunction] = frozenset(),
        settled: bool = False,
    ):
        self._kind = kind
        self.clauses = clauses
        self._hash = hash((kind, clauses))
        #: a CNF of unit clauses that the simplifier left at a fixpoint,
        #: over atoms of one integer domain (see :func:`_conj_settled`)
        self._settled = settled

    def __reduce__(self):
        # rebuilt rather than restored, like Disjunction
        return (Predicate, (self._kind, self.clauses, self._settled))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def true(cls) -> "Predicate":
        return _TRUE

    @classmethod
    def false(cls) -> "Predicate":
        return _FALSE

    @classmethod
    def unknown(cls) -> "Predicate":
        return _UNKNOWN

    @classmethod
    def of_atom(cls, atom: Atom) -> "Predicate":
        t = atom.truth()
        if t is True:
            return _TRUE
        if t is False:
            return _FALSE
        # what of_clauses makes of one unit clause, without the passes
        return cls(_Kind.CNF, frozenset((Disjunction((atom,)),)), True)

    @classmethod
    def of_clauses(cls, clauses: Iterable[Disjunction]) -> "Predicate":
        kept, fixpoint = _simplify_cnf(list(clauses))
        if kept is None:
            return _FALSE
        if not kept:
            return _TRUE
        if len(kept) > MAX_CLAUSES or any(
            len(c) > MAX_ATOMS_PER_CLAUSE for c in kept
        ):
            return _UNKNOWN
        return cls(_Kind.CNF, frozenset(kept), fixpoint and _one_domain_units(kept))

    # -- convenience relational constructors -------------------------------------

    @classmethod
    def le(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.le(a, b, integer))

    @classmethod
    def lt(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.lt(a, b, integer))

    @classmethod
    def ge(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.ge(a, b, integer))

    @classmethod
    def gt(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.gt(a, b, integer))

    @classmethod
    def eq(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.eq(a, b, integer))

    @classmethod
    def ne(cls, a, b, integer: bool = True) -> "Predicate":
        return cls.of_atom(Relation.ne(a, b, integer))

    @classmethod
    def boolvar(cls, name: str, value: bool = True) -> "Predicate":
        return cls.of_atom(BoolAtom(name, value))

    # -- tests ----------------------------------------------------------------------

    def is_true(self) -> bool:
        """Is this the TRUE predicate?"""
        return self._kind is _Kind.TRUE

    def is_false(self) -> bool:
        """True for the unsatisfiable empty clause."""
        return self._kind is _Kind.FALSE

    def is_unknown(self) -> bool:
        """Is this the unknown predicate Δ?"""
        return self._kind is _Kind.UNKNOWN

    def is_cnf(self) -> bool:
        """Is this a genuine clause set (not a constant)?"""
        return self._kind is _Kind.CNF

    # -- logical operations --------------------------------------------------------

    def conj(self, other: "Predicate") -> "Predicate":
        """AND.  ``FALSE`` dominates; Δ AND P is Δ unless P is FALSE."""
        # kinds, not identity with _TRUE/_FALSE: an unpickled predicate
        # is a different object
        kind, other_kind = self._kind, other._kind
        if kind is _Kind.FALSE or other_kind is _Kind.FALSE:
            return _FALSE
        if kind is _Kind.TRUE:
            return other
        if other_kind is _Kind.TRUE:
            return self
        if kind is _Kind.UNKNOWN or other_kind is _Kind.UNKNOWN:
            return _UNKNOWN
        key = (self, other)
        cached = _CONJ_CACHE.get(key)
        if cached is not MISS:
            return cached
        if self._settled and other._settled:
            out = _conj_settled(self, other)
        else:
            out = Predicate.of_clauses(list(self.clauses) + list(other.clauses))
        return _CONJ_CACHE.put(key, out)

    def disj(self, other: "Predicate") -> "Predicate":
        """OR.  ``TRUE`` dominates; Δ OR P is Δ unless P is TRUE."""
        if self.is_true() or other.is_true():
            return _TRUE
        if self.is_false():
            return other
        if other.is_false():
            return self
        if self.is_unknown() or other.is_unknown():
            return _UNKNOWN
        if len(self.clauses) * len(other.clauses) > MAX_CLAUSES:
            return _UNKNOWN
        key = (self, other)
        cached = _DISJ_CACHE.get(key)
        if cached is not MISS:
            return cached
        merged = [
            Disjunction(list(c1.atoms) + list(c2.atoms))
            for c1 in self.clauses
            for c2 in other.clauses
        ]
        return _DISJ_CACHE.put(key, Predicate.of_clauses(merged))

    def negate(self) -> "Predicate":
        """De Morgan negation, redistributed to CNF (Δ on blow-up)."""
        if self.is_true():
            return _FALSE
        if self.is_false():
            return _TRUE
        if self.is_unknown():
            return _UNKNOWN
        cached = _NEG_CACHE.get(self)
        if cached is not MISS:
            return cached
        # not(AND of clauses) = OR over clauses of (AND of negated atoms):
        # distribute to CNF by taking one atom from each clause.
        sizes = 1
        for c in self.clauses:
            sizes *= max(len(c), 1)
            if sizes > MAX_CLAUSES:
                return _UNKNOWN
        picks = [c.sorted_atoms() for c in self.clauses]
        new_clauses = [
            Disjunction(a.negate() for a in combo)
            for combo in itertools.product(*picks)
        ]
        return _NEG_CACHE.put(self, Predicate.of_clauses(new_clauses))

    __and__ = conj
    __or__ = disj
    __invert__ = negate

    def implies(self, other: "Predicate") -> Optional[bool]:
        """Syntactic implication test; ``None`` when it cannot tell."""
        if self.is_false() or other.is_true():
            return True
        if self.is_unknown() or other.is_unknown():
            return None
        if self.is_true():
            # TRUE => other only if other is TRUE (handled) — cannot tell
            # otherwise unless other simplifies; report None/False by kind.
            return None if other.is_cnf() else other.is_true()
        if other.is_false():
            return None  # would require proving self unsatisfiable
        return (
            all(
                any(cp.subsumes(cq) for cp in self.clauses)
                for cq in other.clauses
            )
            or None
        )

    # -- data plumbing ------------------------------------------------------------------

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "Predicate":
        """Value substitution over every clause (Δ if unrepresentable)."""
        if not self.is_cnf():
            return self
        new_clauses = []
        for clause in self.clauses:
            replaced = clause.substitute(bindings)
            if replaced is None:
                return _UNKNOWN
            new_clauses.append(replaced)
        return Predicate.of_clauses(new_clauses)

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """Variable renaming over all atoms."""
        if not self.is_cnf():
            return self
        return Predicate.of_clauses(c.rename(mapping) for c in self.clauses)

    def free_vars(self) -> frozenset[str]:
        """Variables occurring in any atom."""
        out: set[str] = set()
        for c in self.clauses:
            out |= c.free_vars()
        return frozenset(out)

    def contains(self, name: str) -> bool:
        """Does *name* occur free in the predicate?"""
        return name in self.free_vars()

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Concrete truth under *env*.  Raises on UNKNOWN: Δ has no value."""
        if self.is_true():
            return True
        if self.is_false():
            return False
        if self.is_unknown():
            raise ValueError("cannot evaluate an unknown predicate (Delta)")
        return all(c.evaluate(env) for c in self.clauses)

    def unit_atoms(self) -> list[Atom]:
        """Atoms of all unit clauses — the conjunction context they define."""
        if not self.is_cnf():
            return []
        return [c.unit_atom() for c in self.clauses if c.is_unit()]

    # -- identity ---------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Predicate)
            and self._hash == other._hash
            and self._kind is other._kind
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Predicate<{self}>"

    def __str__(self) -> str:
        if self.is_true():
            return "True"
        if self.is_false():
            return "False"
        if self.is_unknown():
            return "Delta"
        parts = sorted((str(c) for c in self.clauses))
        if len(parts) == 1:
            return parts[0]
        return " .AND. ".join(f"({p})" if " .OR. " in p else p for p in parts)


def _simplify_cnf(
    clauses: list[Disjunction],
) -> tuple[Optional[list[Disjunction]], bool]:
    """Simplify a clause list; ``None`` means provably FALSE, ``[]`` TRUE.

    Implements the paper's pairwise strategy: unit-vs-atom propagation,
    unit-vs-unit contradiction, and clause subsumption, iterated to a
    (bounded) fixpoint.  The flag says whether the last pass changed
    nothing, i.e. the fixpoint was reached within the bound.
    """
    work = [c for c in clauses if not c.always_true]
    if any(c.is_false() for c in work):
        return None, True
    for _ in range(8):  # bounded fixpoint
        changed = False
        units = [c.unit_atom() for c in work if c.is_unit()]
        # unit-vs-unit contradiction
        for a, b in itertools.combinations(units, 2):
            if a.conflicts(b):
                return None, True
        # unit propagation into other clauses
        new_work: list[Disjunction] = []
        for clause in work:
            if clause.is_unit():
                new_work.append(clause)
                continue
            atoms = list(clause.atoms)
            satisfied = False
            pruned: list[Atom] = []
            for atom in atoms:
                if any(u.implies(atom) is True for u in units):
                    satisfied = True  # clause guaranteed by a unit
                    break
                if any(u.conflicts(atom) for u in units):
                    changed = True
                    continue  # atom can never hold; drop it
                pruned.append(atom)
            if satisfied:
                changed = True
                continue
            if len(pruned) != len(atoms):
                clause = Disjunction(pruned)
                if clause.always_true:
                    changed = True
                    continue
            if clause.is_false():
                return None, True
            new_work.append(clause)
        work = new_work
        # subsumption: drop clause q when some other clause p subsumes it
        kept: list[Disjunction] = []
        removed: set[int] = set()
        for i, q in enumerate(work):
            drop = False
            for j, p in enumerate(work):
                if i == j or j in removed:
                    continue
                if p.subsumes(q) and not (q.subsumes(p) and j > i):
                    drop = True
                    break
            if drop:
                removed.add(i)
                changed = True
            else:
                kept.append(q)
        work = kept
        if not changed:
            break
    return work, not changed


def _one_domain_units(clauses: list[Disjunction]) -> bool:
    """Are all clauses unit clauses, with every relation atom in one
    integer domain?  For such atoms ``conflicts`` is symmetric."""
    domains = set()
    for clause in clauses:
        if len(clause.atoms) != 1:
            return False
        for atom in clause.atoms:
            if isinstance(atom, Relation):
                domains.add(atom.integer)
    return len(domains) <= 1


def _conj_settled(p: Predicate, q: Predicate) -> Predicate:
    """``Predicate.of_clauses(list(p.clauses) + list(q.clauses))`` for two
    settled predicates, testing only the pairs that cross operands.

    A settled predicate's own atoms neither conflict, in either order,
    nor imply one another (its last simplifier pass dropped nothing).  So
    on the concatenation :func:`_simplify_cnf` can act only on cross
    pairs, and a second pass changes nothing.  This is its first pass on
    the cross pairs, with the same order, conflict rule and subsumption
    tie-break; the result is settled again when it keeps one domain.
    """
    clauses = list(p.clauses) + list(q.clauses)
    atoms = [c.unit_atom() for c in clauses]
    split = len(p.clauses)
    for a in atoms[:split]:
        for b in atoms[split:]:
            if a.conflicts(b):
                return _FALSE
    first, second = range(split), range(split, len(atoms))
    removed: set[int] = set()
    for i, a in enumerate(atoms):
        for j in second if i < split else first:
            if j in removed:
                continue
            b = atoms[j]
            if b.implies(a) is True and not (a.implies(b) is True and j > i):
                removed.add(i)
                break
    kept = [c for i, c in enumerate(clauses) if i not in removed]
    if len(kept) > MAX_CLAUSES:
        return _UNKNOWN
    return Predicate(_Kind.CNF, frozenset(kept), _one_domain_units(kept))


def _rebuild_disjunction(always_true: bool, atoms: frozenset) -> Disjunction:
    """A clause from its already-simplified parts (unpickling)."""
    clause = Disjunction.__new__(Disjunction)
    clause.always_true = always_true
    clause.atoms = atoms
    clause._hash = hash((always_true, atoms))
    return clause


_TRUE = Predicate(_Kind.TRUE)
_FALSE = Predicate(_Kind.FALSE)
_UNKNOWN = Predicate(_Kind.UNKNOWN)

TRUE = _TRUE
FALSE = _FALSE
UNKNOWN = _UNKNOWN
