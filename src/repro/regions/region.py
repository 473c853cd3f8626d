"""Regular array regions: rectangular, per-dimension range triples.

``A(r1, r2, ..., rm)`` where each ``ri`` is a :class:`~repro.regions.ranges.Range`
or the per-dimension unknown marker Ω (:data:`OMEGA_DIM`).  A region with an
Ω dimension over-approximates along that dimension (it stands for the whole
extent); a region can also be wholly unknown (:func:`RegularRegion.omega`).

Regions are pure data — the set operations live in
:mod:`repro.regions.region_ops` because their results are guarded lists.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple, Union

from ..errors import RegionError
from ..symbolic import Predicate, SymExpr
from .ranges import Range


class _OmegaDim:
    """Singleton marker for an unknown dimension (paper's Ω per dimension)."""

    _instance: Optional["_OmegaDim"] = None

    def __new__(cls) -> "_OmegaDim":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMEGA"

    def __str__(self) -> str:
        return "*"


OMEGA_DIM = _OmegaDim()
Dim = Union[Range, _OmegaDim]


class RegularRegion:
    """An immutable rectangular region of a named array."""

    __slots__ = ("array", "dims", "_hash", "_nonempty")

    def __init__(self, array: str, dims: Sequence[Dim]) -> None:
        if not dims:
            raise RegionError(f"region of {array!r} needs at least one dimension")
        self.array = array
        self.dims: Tuple[Dim, ...] = tuple(dims)
        self._hash = hash((self.array, self.dims))
        self._nonempty = None

    def __reduce__(self):
        # rebuilt so the hash is the loading process's own
        return (RegularRegion, (self.array, self.dims))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def point(cls, array: str, subscripts: Sequence[SymExpr]) -> "RegularRegion":
        """The single-element region of one array reference."""
        return cls(array, [Range.point(s) for s in subscripts])

    @classmethod
    def omega(cls, array: str, rank: int) -> "RegularRegion":
        """The wholly unknown region of the paper (Ω)."""
        return cls(array, [OMEGA_DIM] * max(rank, 1))

    # -- structure ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dims)

    def is_fully_known(self) -> bool:
        """True when no dimension is Ω."""
        return all(isinstance(d, Range) for d in self.dims)

    def is_omega(self) -> bool:
        """True when every dimension is Ω."""
        return all(d is OMEGA_DIM for d in self.dims)

    def known_dims(self) -> list[tuple[int, Range]]:
        """The (index, Range) pairs of the non-Ω dimensions."""
        return [(i, d) for i, d in enumerate(self.dims) if isinstance(d, Range)]

    def nonempty_pred(self) -> Predicate:
        """Conjunction of per-dimension ``lo <= hi`` conditions.

        Computed once per region — every GAR construction conjoins it.
        """
        cached = self._nonempty
        if cached is not None:
            return cached
        pred = Predicate.true()
        for d in self.dims:
            if isinstance(d, Range):
                pred = pred & d.nonempty_pred()
        self._nonempty = pred
        return pred

    def free_vars(self) -> frozenset[str]:
        """Variables occurring in any dimension."""
        out: set[str] = set()
        for d in self.dims:
            if isinstance(d, Range):
                out |= d.free_vars()
        return frozenset(out)

    def contains_var(self, name: str) -> bool:
        """Does *name* occur in any dimension?"""
        return any(
            isinstance(d, Range) and d.contains_var(name) for d in self.dims
        )

    def dims_containing(self, name: str) -> list[int]:
        """Indices of the dimensions mentioning *name*."""
        return [
            i
            for i, d in enumerate(self.dims)
            if isinstance(d, Range) and d.contains_var(name)
        ]

    # -- rewriting ------------------------------------------------------------------

    def with_dim(self, index: int, dim: Dim) -> "RegularRegion":
        """A copy with one dimension replaced."""
        dims = list(self.dims)
        dims[index] = dim
        return RegularRegion(self.array, dims)

    def with_array(self, array: str) -> "RegularRegion":
        """A copy renamed to another array."""
        return RegularRegion(array, self.dims)

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "RegularRegion":
        """Value substitution into every dimension."""
        return RegularRegion(
            self.array,
            [d.substitute(bindings) if isinstance(d, Range) else d for d in self.dims],
        )

    def rename(self, mapping: Mapping[str, str]) -> "RegularRegion":
        """Variable renaming in every dimension."""
        return RegularRegion(
            self.array,
            [d.rename(mapping) if isinstance(d, Range) else d for d in self.dims],
        )

    # -- concrete oracle ---------------------------------------------------------------

    def enumerate(self, env: Mapping[str, int]) -> set[tuple[int, ...]]:
        """All concrete index tuples (test oracle; Ω dims are not allowed)."""
        if not self.is_fully_known():
            raise RegionError(f"cannot enumerate region with unknown dims: {self}")
        axes = [d.enumerate(env) for d in self.dims if isinstance(d, Range)]
        out: set[tuple[int, ...]] = set()

        def rec(prefix: tuple[int, ...], rest: list[list[int]]) -> None:
            if not rest:
                out.add(prefix)
                return
            for v in rest[0]:
                rec(prefix + (v,), rest[1:])

        rec((), axes)
        return out

    # -- identity -----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RegularRegion)
            and self.array == other.array
            and self.dims == other.dims
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RegularRegion<{self}>"

    def __str__(self) -> str:
        inner = ", ".join(str(d) for d in self.dims)
        return f"{self.array}({inner})"
