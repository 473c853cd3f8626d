"""Guarded array regions (GARs) and GAR lists (paper section 3).

A GAR ``[P, R]`` pairs a guard predicate ``P`` with a regular array region
``R``: the set of elements of ``R`` accessed *when* ``P`` holds.  Following
the paper, the constructor always conjoins the region's per-dimension
``lo <= hi`` conditions into the guard, so emptiness of a GAR can be
detected by examining the guard alone.

A :class:`GARList` is a finite union of GARs — the representation used for
the ``MOD``/``UE`` summary sets.

Exactness.  The paper states the summary sets are exact "unless the GAR's
contain unknown components".  We track this explicitly: ``exact=False``
marks a GAR that may *over-approximate* its true set (unknown guard Δ,
Ω dimensions, or information lost in an operation).  Over-approximations
are safe for proving dependence *absence* (an empty over-approximation is
truly empty) but must never be used to kill upward-exposed uses; the
subtraction operator in :mod:`repro.regions.gar_ops` enforces that.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Tuple

from ..symbolic import Predicate, SymExpr, predicate_unsat, predicate_unsat_many
from .region import RegularRegion


class GAR:
    """An immutable guarded array region ``[P, R]``."""

    __slots__ = ("guard", "region", "exact", "array", "_hash", "_free")

    def __init__(
        self, guard: Predicate, region: RegularRegion, exact: bool = True
    ) -> None:
        guard = guard & region.nonempty_pred()
        if guard.is_unknown() or not region.is_fully_known():
            exact = False
        self.guard = guard
        self.region = region
        self.exact = exact
        #: the region's array, read on every pairwise simplifier test
        self.array = region.array
        self._hash = hash((self.guard, self.region, self.exact))
        self._free = None

    def __reduce__(self):
        # rebuilt so the hash is the loading process's own; not through
        # __init__, which would conjoin the region's lo <= hi again
        return (_rebuild_gar, (self.guard, self.region, self.exact))

    # -- constructors --------------------------------------------------------

    @classmethod
    def of_reference(
        cls, array: str, subscripts: Sequence[SymExpr], guard: Predicate | None = None
    ) -> "GAR":
        """The GAR of a single array reference ``A(e1, ..., em)``."""
        return cls(
            guard if guard is not None else Predicate.true(),
            RegularRegion.point(array, subscripts),
        )

    @classmethod
    def omega(cls, array: str, rank: int) -> "GAR":
        """Wholly unknown access of *array* — guard Δ, region Ω."""
        return cls(Predicate.unknown(), RegularRegion.omega(array, rank), exact=False)

    # -- tests --------------------------------------------------------------------

    def is_empty(self) -> bool:
        """Statically empty (guard already normalized to False)."""
        return self.guard.is_false()

    def provably_empty(self, use_fm: bool = True) -> bool:
        """Is the guard provably unsatisfiable?"""
        return predicate_unsat(self.guard, use_fm=use_fm)

    def is_omega(self) -> bool:
        """Wholly unknown GAR (guard Δ, region Ω)?"""
        return self.guard.is_unknown() and self.region.is_omega()

    def free_vars(self) -> frozenset[str]:
        """Variables in the guard and region (computed once: ``substitute``
        and the renaming of served summaries ask it of the same GARs)."""
        free = self._free
        if free is None:
            free = self._free = self.guard.free_vars() | self.region.free_vars()
        return free

    def contains_var(self, name: str) -> bool:
        """Does *name* occur in the guard or region?"""
        return self.guard.contains(name) or self.region.contains_var(name)

    # -- rewriting --------------------------------------------------------------------

    def and_guard(self, extra: Predicate) -> "GAR":
        """Further qualify this GAR by an additional condition."""
        if extra.is_true():
            return self
        exact = self.exact and not extra.is_unknown()
        # the guard already holds the region's lo <= hi conjuncts
        return _rebuild_gar(self.guard & extra, self.region, exact)

    def inexact(self) -> "GAR":
        """A copy marked as a (possible) over-approximation."""
        if not self.exact:
            return self
        return _rebuild_gar(self.guard, self.region, False)

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "GAR":
        """Value substitution into guard and region."""
        if self.free_vars().isdisjoint(bindings):
            return self
        return GAR(
            self.guard.substitute(bindings),
            self.region.substitute(bindings),
            self.exact,
        )

    def rename(self, mapping: Mapping[str, str]) -> "GAR":
        """Variable renaming in guard and region."""
        return GAR(
            self.guard.rename(mapping), self.region.rename(mapping), self.exact
        )

    def with_array(self, array: str) -> "GAR":
        """A copy attached to another array."""
        return GAR(self.guard, self.region.with_array(array), self.exact)

    # -- concrete oracle -----------------------------------------------------------------

    def enumerate(self, env: Mapping[str, int]) -> set[tuple[int, ...]]:
        """Concrete element set under *env* (test oracle, exact GARs only)."""
        if self.guard.is_unknown():
            raise ValueError("cannot enumerate a GAR with unknown guard")
        if not self.guard.evaluate(env):
            return set()
        return self.region.enumerate(env)

    # -- identity ----------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GAR)
            and self.guard == other.guard
            and self.region == other.region
            and self.exact == other.exact
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GAR<{self}>"

    def __str__(self) -> str:
        marker = "" if self.exact else "~"
        return f"{marker}[{self.guard}, {self.region}]"


class GARList:
    """A finite union of GARs — the ``MOD`` / ``UE`` summary representation."""

    __slots__ = ("gars", "_hash")

    def __init__(self, gars: Iterable[GAR] = ()) -> None:
        self.gars: Tuple[GAR, ...] = tuple(g for g in gars if not g.is_empty())
        # hashing builds a frozenset (order-insensitive, matching __eq__);
        # most lists are never used as keys, so defer it
        self._hash = None

    def __reduce__(self):
        # without the cached hash, which is the writing process's
        return (GARList, (self.gars,))

    @classmethod
    def empty(cls) -> "GARList":
        return _EMPTY

    @classmethod
    def of(cls, *gars: GAR) -> "GARList":
        return cls(gars)

    # -- tests ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """Statically empty list (no members)?"""
        return not self.gars

    def provably_empty(self, use_fm: bool = True) -> bool:
        """Is the guard provably unsatisfiable?

        All member guards go to the constraint core as one batch.
        """
        if not self.gars:
            return True
        return all(
            predicate_unsat_many([g.guard for g in self.gars], use_fm=use_fm)
        )

    def is_exact(self) -> bool:
        """Are all members exact?"""
        return all(g.exact for g in self.gars)

    def arrays(self) -> frozenset[str]:
        """Names of all arrays mentioned."""
        return frozenset(g.array for g in self.gars)

    def for_array(self, array: str) -> "GARList":
        """The sub-list for one array."""
        return GARList(g for g in self.gars if g.array == array)

    def free_vars(self) -> frozenset[str]:
        """Variables in the guard and region."""
        out: set[str] = set()
        for g in self.gars:
            out |= g.free_vars()
        return frozenset(out)

    def contains_var(self, name: str) -> bool:
        """Does *name* occur in the guard or region?"""
        return any(g.contains_var(name) for g in self.gars)

    # -- building ------------------------------------------------------------------

    def union(self, other: "GARList") -> "GARList":
        """Concatenation (union semantics; no simplification)."""
        if not other.gars:
            return self
        if not self.gars:
            return other
        # both operands were filtered when built: nothing left to drop
        out = GARList.__new__(GARList)
        out.gars = self.gars + other.gars
        out._hash = None
        return out

    def add(self, gar: GAR) -> "GARList":
        """The list with one more GAR."""
        return GARList(self.gars + (gar,))

    def map(self, fn) -> "GARList":
        """A new list with *fn* applied to every member."""
        return GARList(fn(g) for g in self.gars)

    def and_guard(self, extra: Predicate) -> "GARList":
        """Every member further qualified by *extra*."""
        return self.map(lambda g: g.and_guard(extra))

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "GARList":
        """Value substitution into guard and region."""
        return self.map(lambda g: g.substitute(bindings))

    def rename(self, mapping: Mapping[str, str]) -> "GARList":
        """Variable renaming in guard and region."""
        return self.map(lambda g: g.rename(mapping))

    def inexact(self) -> "GARList":
        """A copy marked as a (possible) over-approximation."""
        return self.map(lambda g: g.inexact())

    # -- concrete oracle -----------------------------------------------------------------

    def enumerate(self, env: Mapping[str, int]) -> set[tuple[int, ...]]:
        """Concrete element set under an environment (oracle)."""
        out: set[tuple[int, ...]] = set()
        for g in self.gars:
            out |= g.enumerate(env)
        return out

    # -- identity ----------------------------------------------------------------------------

    def __iter__(self) -> Iterator[GAR]:
        return iter(self.gars)

    def __len__(self) -> int:
        return len(self.gars)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GARList) and set(self.gars) == set(other.gars)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(frozenset(self.gars))
        return cached

    def __repr__(self) -> str:
        return f"GARList<{self}>"

    def __str__(self) -> str:
        if not self.gars:
            return "{}"
        return " U ".join(str(g) for g in self.gars)


def _rebuild_gar(guard: Predicate, region: RegularRegion, exact: bool) -> GAR:
    """A GAR from a guard that already holds the region's ``lo <= hi``
    conjuncts (unpickling, and rewrites of an existing GAR's guard)."""
    gar = GAR.__new__(GAR)
    gar.guard = guard
    gar.region = region
    gar.exact = exact and not guard.is_unknown() and region.is_fully_known()
    gar.array = region.array
    gar._hash = hash((guard, region, gar.exact))
    gar._free = None
    return gar


_EMPTY = GARList(())
