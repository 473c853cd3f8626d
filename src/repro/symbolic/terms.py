"""Monomials: the product part of an ordered sum-of-products.

The paper (section 3.1) normalizes integer symbolic expressions to an
*ordered sum of products*.  A :class:`Monomial` is one product of symbolic
variables raised to positive integer powers; the empty monomial is the
constant term.  Monomials are immutable, hashable, and totally ordered so
that expressions have a canonical printed form and deterministic iteration
order.

Monomials are **hash-consed**: construction interns instances in a
bounded table keyed by the canonical factor tuple, so repeated
construction of the same monomial is a dict hit returning the existing
object and equality can short-circuit on identity.  Eviction only drops
the canonical-representative status — a re-created monomial is a new but
structurally equal object, and every consumer falls back to structural
equality, so bounded interning is invisible to results.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Mapping, Tuple

from ..perf.profiler import MISS, BoundedCache

_Factor = Tuple[str, int]

#: canonical factor tuple → the interned instance
_INTERN = BoundedCache("monomial.intern", maxsize=16384)
#: (m1, m2) → m1 * m2 (skips the merge-and-sort on repeats)
_MUL_CACHE = BoundedCache("monomial.mul", maxsize=16384)


@total_ordering
class Monomial:
    """An immutable product of variables, e.g. ``x**2 * y``.

    Internally a sorted tuple of ``(name, power)`` pairs with all powers
    positive.  ``Monomial(())`` is the unit monomial (constant term).
    """

    __slots__ = ("_factors", "_hash", "_sort_key")

    def __new__(cls, factors: Iterable[_Factor] = ()) -> "Monomial":
        merged: dict[str, int] = {}
        for name, power in factors:
            if power < 0:
                raise ValueError(f"negative power for {name!r}")
            if power:
                merged[name] = merged.get(name, 0) + power
        key: Tuple[_Factor, ...] = tuple(sorted(merged.items()))
        cached = _INTERN.get(key)
        if cached is not MISS:
            return cached
        self = object.__new__(cls)
        self._factors = key
        self._hash = hash(key)
        # the canonical order is asked for on every expression build, so
        # it is computed once per interned monomial (see sort_key)
        self._sort_key = (
            (sum(p for _, p in key), key) if key else (float("inf"),)
        )
        _INTERN.put(key, self)
        return self

    def __reduce__(self):
        # Route unpickling through __new__ so deserialized monomials are
        # interned too (default slot-state pickling would mutate whatever
        # instance __new__ returned — never acceptable on shared objects).
        return (Monomial, (self._factors,))

    @classmethod
    def unit(cls) -> "Monomial":
        """The empty monomial (multiplicative identity / constant term)."""
        return _UNIT

    @classmethod
    def var(cls, name: str, power: int = 1) -> "Monomial":
        """Monomial consisting of a single variable."""
        return cls(((name, power),))

    # -- structure --------------------------------------------------------

    @property
    def factors(self) -> Tuple[_Factor, ...]:
        return self._factors

    def is_unit(self) -> bool:
        """True for the empty (constant) monomial."""
        return not self._factors

    def degree(self) -> int:
        """Total degree (sum of powers); 0 for the unit monomial."""
        return sum(p for _, p in self._factors)

    def variables(self) -> frozenset[str]:
        """The set of variable names in the monomial."""
        return frozenset(name for name, _ in self._factors)

    def power_of(self, name: str) -> int:
        """The power of *name* (0 if absent)."""
        for n, p in self._factors:
            if n == name:
                return p
        return 0

    def contains(self, name: str) -> bool:
        """Does *name* occur in the monomial?"""
        return any(n == name for n, _ in self._factors)

    def is_linear_var(self) -> bool:
        """True when the monomial is exactly one variable to the power 1."""
        return len(self._factors) == 1 and self._factors[0][1] == 1

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if not self._factors:
            return other
        if not other._factors:
            return self
        key = (self, other)
        cached = _MUL_CACHE.get(key)
        if cached is not MISS:
            return cached
        return _MUL_CACHE.put(key, Monomial(self._factors + other._factors))

    def divide_by_var(self, name: str) -> "Monomial":
        """Divide out one power of *name*; raises if absent."""
        out = []
        found = False
        for n, p in self._factors:
            if n == name:
                found = True
                if p > 1:
                    out.append((n, p - 1))
            else:
                out.append((n, p))
        if not found:
            raise KeyError(name)
        return Monomial(out)

    # -- ordering / hashing -------------------------------------------------

    def sort_key(self) -> tuple:
        """Canonical ordering: by total degree, then lexicographic factors.

        The unit monomial sorts *last* so the constant term prints at the
        end of an expression (``i + 3`` rather than ``3 + i``), matching
        the paper's presentation of symbolic bounds.
        """
        return self._sort_key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Monomial) and self._factors == other._factors

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._sort_key < other._sort_key

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[_Factor]:
        return iter(self._factors)

    def __repr__(self) -> str:
        return f"Monomial({self._factors!r})"

    def __str__(self) -> str:
        if self.is_unit():
            return "1"
        parts = []
        for name, power in self._factors:
            parts.append(name if power == 1 else f"{name}**{power}")
        return "*".join(parts)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a concrete integer environment."""
        value = 1
        for name, power in self._factors:
            value *= env[name] ** power
        return value


_UNIT = Monomial(())
