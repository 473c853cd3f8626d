"""Integer symbolic expressions as an ordered sum of products.

This is the "general expression operation library" of the paper's Figure 2:
addition, subtraction, multiplication, and division by an integer constant,
over expressions normalized to an ordered sum of products.  Coefficients are
exact: an integral coefficient is stored as an ``int``, any other as a
:class:`fractions.Fraction`, so constant division never loses information
while the common integer case skips rational arithmetic.  Every division
of two coefficients must therefore build a ``Fraction`` (``/`` on two
``int`` values yields a float).  Expressions that appear in array
subscripts are integer valued in well-formed programs.

Expressions are immutable and hashable, so they can be used as dictionary
keys throughout the region and predicate layers.

Expressions are **hash-consed** like monomials: construction interns the
canonical term tuple in a bounded table, and the arithmetic operations
carry memoized binary-op caches keyed by the (interned) operands — the
dominant kernel cost of re-sorting and re-hashing terms on every op
collapses to a dict hit on repeats.  Bounded eviction only loses
sharing, never changes a value, so equality tests identity first and
falls back to structure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

from ..errors import SymbolicError
from ..perf.profiler import MISS, BoundedCache
from .terms import Monomial

Number = Union[int, Fraction]
ExprLike = Union["SymExpr", int, Fraction, str]

#: canonical term tuple → the interned instance
_INTERN = BoundedCache("symexpr.intern", maxsize=16384)
#: binary/unary op memo tables, keyed by interned operands
_ADD_CACHE = BoundedCache("symexpr.add", maxsize=16384)
_SUB_CACHE = BoundedCache("symexpr.sub", maxsize=16384)
_MUL_CACHE = BoundedCache("symexpr.mul", maxsize=16384)
_NEG_CACHE = BoundedCache("symexpr.neg", maxsize=16384)
_SCALE_CACHE = BoundedCache("symexpr.scale", maxsize=16384)
#: tiny constructor memos (constants and variables recur constantly)
_ATOM_CACHE = BoundedCache("symexpr.atom", maxsize=4096)


def _number(value: Number) -> Number:
    """*value* as an ``int`` when integral, else as a ``Fraction``."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _term_order(term: Tuple[Monomial, Number]) -> tuple:
    return term[0]._sort_key


class SymExpr:
    """An immutable symbolic integer expression.

    Stored as a mapping from :class:`Monomial` to a nonzero coefficient:
    an ``int`` when integral, a ``Fraction`` otherwise.  The zero
    expression has an empty mapping.
    """

    __slots__ = ("_terms", "_hash", "_ncp")

    def __new__(cls, terms: Mapping[Monomial, Number] | None = None) -> "SymExpr":
        clean: dict[Monomial, Number] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = _number(coeff)
                if coeff:
                    clean[mono] = coeff
        key: Tuple[Tuple[Monomial, Number], ...] = (
            tuple(sorted(clean.items(), key=_term_order))
            if len(clean) > 1
            else tuple(clean.items())
        )
        cached = _INTERN.get(key)
        if cached is not MISS:
            return cached
        self = object.__new__(cls)
        self._terms = key
        self._hash = hash(key)
        self._ncp = None
        _INTERN.put(key, self)
        return self

    def __reduce__(self):
        # Unpickle through the interning constructor (see Monomial).
        return (SymExpr, (dict(self._terms),))

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, value: Number) -> "SymExpr":
        key = ("const", value)
        cached = _ATOM_CACHE.get(key)
        if cached is not MISS:
            return cached
        return _ATOM_CACHE.put(key, cls({Monomial.unit(): value}))

    @classmethod
    def var(cls, name: str) -> "SymExpr":
        key = ("var", name)
        cached = _ATOM_CACHE.get(key)
        if cached is not MISS:
            return cached
        return _ATOM_CACHE.put(key, cls({Monomial.var(name): 1}))

    @classmethod
    def coerce(cls, value: ExprLike) -> "SymExpr":
        """Accept an expression, a number, or a variable name."""
        if type(value) is SymExpr:
            return value
        if isinstance(value, (int, Fraction)):
            return cls.const(value)
        if isinstance(value, str):
            return cls.var(value)
        raise TypeError(f"cannot coerce {value!r} to SymExpr")

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[Monomial, Number], ...]:
        return self._terms

    def is_zero(self) -> bool:
        """True for the zero expression."""
        return not self._terms

    def is_constant(self) -> bool:
        """True when no symbolic variables occur."""
        return all(m.is_unit() for m, _ in self._terms)

    def constant_value(self) -> Optional[Number]:
        """The value if constant, else ``None``."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and self._terms[0][0].is_unit():
            return self._terms[0][1]
        return None

    def constant_term(self) -> Number:
        """Coefficient of the unit monomial (0 if absent)."""
        for mono, coeff in self._terms:
            if mono.is_unit():
                return coeff
        return 0

    def non_constant_part(self) -> "SymExpr":
        """The expression minus its constant term (computed once per
        interned expression — ``Relation.implies`` asks constantly)."""
        cached = self._ncp
        if cached is None:
            cached = SymExpr({m: c for m, c in self._terms if not m.is_unit()})
            self._ncp = cached
        return cached

    def free_vars(self) -> frozenset[str]:
        """All symbolic variable names occurring in the expression."""
        out: set[str] = set()
        for mono, _ in self._terms:
            out |= mono.variables()
        return frozenset(out)

    def contains(self, name: str) -> bool:
        """Does the variable *name* occur anywhere?"""
        return any(mono.contains(name) for mono, _ in self._terms)

    def degree(self) -> int:
        """Maximum total degree over the monomials."""
        return max((m.degree() for m, _ in self._terms), default=0)

    def is_linear(self) -> bool:
        """Degree at most 1: affine in the symbolic variables."""
        return self.degree() <= 1

    def is_linear_in(self, name: str) -> bool:
        """Every monomial containing *name* is exactly that variable."""
        for mono, _ in self._terms:
            if mono.contains(name) and not (
                mono.is_linear_var() and mono.power_of(name) == 1
            ):
                return False
        return True

    def coeff_of_var(self, name: str) -> Number:
        """Coefficient of the plain variable *name* (degree-1 monomial)."""
        target = Monomial.var(name)
        for mono, coeff in self._terms:
            if mono == target:
                return coeff
        return 0

    def coeff_of(self, mono: Monomial) -> Number:
        """Coefficient of an arbitrary monomial (0 if absent)."""
        for m, c in self._terms:
            if m == mono:
                return c
        return 0

    def monomials(self) -> Tuple[Monomial, ...]:
        """The monomials in canonical order."""
        return tuple(m for m, _ in self._terms)

    def has_integer_coeffs(self) -> bool:
        """Are all coefficients integers?"""
        return all(c.denominator == 1 for _, c in self._terms)

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: ExprLike) -> "SymExpr":
        if type(other) is not SymExpr:
            other = SymExpr.coerce(other)
        key = (self, other)
        cached = _ADD_CACHE.get(key)
        if cached is not MISS:
            return cached
        merged = dict(self._terms)
        for mono, coeff in other._terms:
            merged[mono] = merged.get(mono, 0) + coeff
        return _ADD_CACHE.put(key, SymExpr(merged))

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        cached = _NEG_CACHE.get(self)
        if cached is not MISS:
            return cached
        return _NEG_CACHE.put(self, SymExpr({m: -c for m, c in self._terms}))

    def __sub__(self, other: ExprLike) -> "SymExpr":
        if type(other) is not SymExpr:
            other = SymExpr.coerce(other)
        key = (self, other)
        cached = _SUB_CACHE.get(key)
        if cached is not MISS:
            return cached
        merged = dict(self._terms)
        for mono, coeff in other._terms:
            merged[mono] = merged.get(mono, 0) - coeff
        return _SUB_CACHE.put(key, SymExpr(merged))

    def __rsub__(self, other: ExprLike) -> "SymExpr":
        return SymExpr.coerce(other) - self

    def __mul__(self, other: ExprLike) -> "SymExpr":
        if type(other) is not SymExpr:
            other = SymExpr.coerce(other)
        key = (self, other)
        cached = _MUL_CACHE.get(key)
        if cached is not MISS:
            return cached
        out: dict[Monomial, Number] = {}
        for m1, c1 in self._terms:
            for m2, c2 in other._terms:
                mono = m1 * m2
                out[mono] = out.get(mono, 0) + c1 * c2
        return _MUL_CACHE.put(key, SymExpr(out))

    __rmul__ = __mul__

    def div_const(self, divisor: Number) -> "SymExpr":
        """Division by a nonzero integer (or rational) constant.

        This is the only division the paper's expression library supports.
        """
        d = Fraction(divisor)
        if not d:
            raise SymbolicError("division of symbolic expression by zero")
        key = (self, "/", d)
        cached = _SCALE_CACHE.get(key)
        if cached is not MISS:
            return cached
        return _SCALE_CACHE.put(key, SymExpr({m: c / d for m, c in self._terms}))

    def scaled(self, factor: Number) -> "SymExpr":
        """The expression multiplied by a rational constant."""
        f = factor if type(factor) is int else _number(factor)
        key = (self, "*", f)
        cached = _SCALE_CACHE.get(key)
        if cached is not MISS:
            return cached
        return _SCALE_CACHE.put(key, SymExpr({m: c * f for m, c in self._terms}))

    # -- substitution / evaluation ---------------------------------------------

    def substitute(self, bindings: Mapping[str, "SymExpr"]) -> "SymExpr":
        """Simultaneous substitution of variables by expressions."""
        if not bindings or not (self.free_vars() & set(bindings)):
            return self
        result = SymExpr()
        for mono, coeff in self._terms:
            piece = SymExpr.const(coeff)
            for name, power in mono:
                repl = bindings.get(name)
                base = repl if repl is not None else SymExpr.var(name)
                for _ in range(power):
                    piece = piece * base
            result = result + piece
        return result

    def rename(self, mapping: Mapping[str, str]) -> "SymExpr":
        """Variable-for-variable renaming."""
        return self.substitute({old: SymExpr.var(new) for old, new in mapping.items()})

    def evaluate(self, env: Mapping[str, int]) -> Fraction:
        """Evaluate under a concrete integer environment.

        Raises ``KeyError`` when a free variable is unbound.
        """
        total = Fraction(0)
        for mono, coeff in self._terms:
            total += coeff * mono.evaluate(env)
        return total

    def evaluate_int(self, env: Mapping[str, int]) -> int:
        """Evaluate and require an integer result."""
        value = self.evaluate(env)
        if value.denominator != 1:
            raise SymbolicError(f"{self} evaluates to non-integer {value}")
        return value.numerator

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # identity first, but never identity alone: bounded interning can
        # leave two equal expressions alive after an eviction
        if self is other:
            return True
        if not isinstance(other, SymExpr):
            if not isinstance(other, (int, Fraction)):
                return False
            other = SymExpr.const(other)
        return self._hash == other._hash and self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SymExpr<{self}>"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self._terms:
            if mono.is_unit():
                text = str(coeff)
            elif coeff == 1:
                text = str(mono)
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts)


ZERO = SymExpr()
ONE = SymExpr.const(1)


def sym(value: ExprLike) -> SymExpr:
    """Convenience coercion used pervasively in tests and examples."""
    return SymExpr.coerce(value)
