"""Atomic predicates: relational expressions and logical variables.

The paper (section 5.2) represents each relational expression as
``(e op 0)`` with ``op`` one of ``<``, ``=``, ``!=`` — every other Fortran
relational operator is rewritten into these.  We keep four canonical kinds:

* ``LE``: ``e <= 0``
* ``LT``: ``e < 0``   (needed for *real*-typed conditions, where the
  integer rewriting ``e < 0  <=>  e + 1 <= 0`` is unsound)
* ``EQ``: ``e == 0``
* ``NE``: ``e != 0``

Each relation carries an ``integer`` flag: when True the free variables
range over integers and the usual integer tightenings apply (strict
inequalities are absorbed into ``LE``, gcd bounds are ceiling-tightened);
when False (some operand is REAL) only field-valid reasoning is used.
The paper's remark that "integer conditions are handled more thoroughly
than floating point ones" corresponds exactly to this flag.

Logical scalar variables appearing in IF conditions (like ``p`` in the
paper's Figure 1(b)) become :class:`BoolAtom` instances.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Mapping, Optional, Union

from ..perf.profiler import MISS, BoundedCache
from .expr import ExprLike, SymExpr

#: canonical (expr, op, integer) triple → the interned instance
_INTERN = BoundedCache("relation.intern", maxsize=16384)
#: (self, other) → three-valued implication verdict.  The pairwise
#: simplifier passes in the predicate and GAR layers re-ask the same
#: atom pairs thousands of times per sweep; implication over interned
#: relations is pure, so the memo is invisible to results.
_IMPLIES_CACHE = BoundedCache("relation.implies", maxsize=32768)


class RelOp(enum.Enum):
    """The canonical relational operators against zero."""

    LE = "<="
    LT = "<"
    EQ = "=="
    NE = "!="


def _normalize(expr: SymExpr, op: RelOp, integer: bool) -> tuple[SymExpr, RelOp]:
    """Scale to integer coefficients; divide out gcd; canonical sign for EQ/NE.

    Integer-domain rewritings (only when ``integer``):

    * ``e < 0`` becomes ``e + 1 <= 0``;
    * ``g*x + c <= 0`` becomes ``x + ceil(c/g) <= 0``;
    * an equation whose non-constant gcd does not divide its constant term
      becomes the canonical false equation ``1 == 0``.
    """
    if integer and op is RelOp.LT:
        expr = expr + 1
        op = RelOp.LE
    denoms = [c.denominator for _, c in expr.terms]
    if denoms:
        lcm = reduce(lambda a, b: a * b // gcd(a, b), denoms, 1)
        if lcm != 1:
            expr = expr.scaled(lcm)
    const = expr.constant_term()
    rest = expr - const
    g_rest = reduce(gcd, (abs(c.numerator) for _, c in rest.terms), 0)
    if g_rest > 1:
        if op in (RelOp.LE, RelOp.LT):
            if integer and op is RelOp.LE:
                ceil_cg = -((-const.numerator) // g_rest)
                expr = rest.div_const(g_rest) + ceil_cg
            else:
                expr = rest.div_const(g_rest) + Fraction(const, g_rest)
        elif (not integer) or const.numerator % g_rest == 0:
            expr = rest.div_const(g_rest) + Fraction(const, g_rest)
        else:
            # no integer solution to g*x + c == 0: canonical False / True
            expr = SymExpr.const(1)
    if op in (RelOp.EQ, RelOp.NE) and expr.terms:
        # canonical sign: first (smallest) monomial coefficient positive
        if expr.terms[0][1] < 0:
            expr = -expr
    return expr, op


class Relation:
    """A canonical relational atom ``expr op 0``.

    Relations are hash-consed like expressions: construction normalizes,
    then interns on the canonical ``(expr, op, integer)`` triple, so the
    predicate layer's pairwise passes mostly compare identical objects
    and :meth:`negate` is computed once per distinct relation.
    """

    __slots__ = ("expr", "op", "integer", "_hash", "_negated")

    def __new__(cls, expr: ExprLike, op: RelOp, integer: bool = True) -> "Relation":
        e = SymExpr.coerce(expr)
        # two-level intern: the raw (pre-normalization) triple is keyed
        # too, so repeated construction from the same source expression
        # skips _normalize entirely (gcd/lcm reductions are not cheap)
        raw = (e, op, integer)
        cached = _INTERN.get(raw)
        if cached is not MISS:
            return cached
        e, op = _normalize(e, op, integer)
        key = (e, op, integer)
        if key != raw:
            cached = _INTERN.get(key)
            if cached is not MISS:
                _INTERN.put(raw, cached)
                return cached
        self = object.__new__(cls)
        self.expr = e
        self.op = op
        self.integer = integer
        self._hash = hash(key)
        self._negated = None
        _INTERN.put(key, self)
        if key != raw:
            _INTERN.put(raw, self)
        return self

    def __reduce__(self):
        # _normalize is idempotent, so round-tripping the canonical triple
        # through the interning constructor reproduces the same relation
        # (and never mutates a shared interned instance, which the default
        # slot-state protocol would).
        return (Relation, (self.expr, self.op, self.integer))

    # -- constructors (a op b forms) -------------------------------------------

    @classmethod
    def le(cls, a: ExprLike, b: ExprLike, integer: bool = True) -> "Relation":
        return cls(SymExpr.coerce(a) - SymExpr.coerce(b), RelOp.LE, integer)

    @classmethod
    def lt(cls, a: ExprLike, b: ExprLike, integer: bool = True) -> "Relation":
        return cls(SymExpr.coerce(a) - SymExpr.coerce(b), RelOp.LT, integer)

    @classmethod
    def ge(cls, a: ExprLike, b: ExprLike, integer: bool = True) -> "Relation":
        return cls.le(b, a, integer)

    @classmethod
    def gt(cls, a: ExprLike, b: ExprLike, integer: bool = True) -> "Relation":
        return cls.lt(b, a, integer)

    @classmethod
    def eq(cls, a: ExprLike, b: ExprLike, integer: bool = True) -> "Relation":
        return cls(SymExpr.coerce(a) - SymExpr.coerce(b), RelOp.EQ, integer)

    @classmethod
    def ne(cls, a: ExprLike, b: ExprLike, integer: bool = True) -> "Relation":
        return cls(SymExpr.coerce(a) - SymExpr.coerce(b), RelOp.NE, integer)

    # -- logic -------------------------------------------------------------------

    def truth(self) -> Optional[bool]:
        """Constant truth value, or ``None`` when genuinely symbolic."""
        value = self.expr.constant_value()
        if value is None:
            return None
        if self.op is RelOp.LE:
            return value <= 0
        if self.op is RelOp.LT:
            return value < 0
        if self.op is RelOp.EQ:
            return value == 0
        return value != 0

    def negate(self) -> "Relation":
        """The exact complement relation (cached)."""
        cached = self._negated
        if cached is not None:
            return cached
        if self.op is RelOp.LE:
            # not(e <= 0)  <=>  e > 0  <=>  -e < 0
            out = Relation(-self.expr, RelOp.LT, self.integer)
        elif self.op is RelOp.LT:
            out = Relation(-self.expr, RelOp.LE, self.integer)
        elif self.op is RelOp.EQ:
            out = Relation(self.expr, RelOp.NE, self.integer)
        else:
            out = Relation(self.expr, RelOp.EQ, self.integer)
        self._negated = out
        return out

    def implies(self, other: "Atom") -> Optional[bool]:
        """Syntactic single-pair implication test (paper's limited simplifier).

        Returns ``True`` when provably ``self => other``, ``False`` when
        provably ``self => not other``, ``None`` when this cheap check
        cannot tell.  Verdicts are memoized pairwise (relations are
        interned, implication is pure).
        """
        if not isinstance(other, Relation):
            return None
        if self == other:
            return True
        key = (self, other)
        cached = _IMPLIES_CACHE.get(key)
        if cached is not MISS:
            return cached
        return _IMPLIES_CACHE.put(key, self._implies_uncached(other))

    def _implies_uncached(self, other: "Relation") -> Optional[bool]:
        t = other.truth()
        if t is not None:
            return t
        a, b = self.expr, other.expr
        ineq = (RelOp.LE, RelOp.LT)
        if self.op in ineq and other.op in ineq:
            # (nc + c1 <OP1> 0) => (nc + c2 <OP2> 0) for identical nc parts:
            # value bound: nc <= -c1 (or < -c1); needs nc <= -c2 (or < -c2).
            if a.non_constant_part() != b.non_constant_part():
                return None
            c1, c2 = a.constant_term(), b.constant_term()
            if self.op is RelOp.LE and other.op is RelOp.LE:
                return c2 <= c1 or None
            if self.op is RelOp.LT and other.op is RelOp.LT:
                return c2 <= c1 or None
            if self.op is RelOp.LT and other.op is RelOp.LE:
                return c2 <= c1 or None
            # LE => LT: nc <= -c1 guarantees nc < -c2 iff -c1 < -c2
            return c2 < c1 or None
        if self.op is RelOp.EQ and other.op in ineq:
            # nc == -c1 (after orientation): check -c1 satisfies other
            for sign in (1, -1):
                if a.non_constant_part() == b.non_constant_part().scaled(sign):
                    value = b.constant_term() - a.constant_term() * sign
                    if other.op is RelOp.LE and value <= 0:
                        return True
                    if other.op is RelOp.LT and value < 0:
                        return True
                    if other.op is RelOp.LE and value > 0:
                        return False
                    if other.op is RelOp.LT and value >= 0:
                        return False
            return None
        if self.op is RelOp.EQ and other.op is RelOp.NE:
            if a == b:
                return False
            if a.non_constant_part() == b.non_constant_part():
                return a.constant_term() != b.constant_term() or None
            return None
        if self.op is RelOp.EQ and other.op is RelOp.EQ:
            if a == b:
                return True
            if a.non_constant_part() == b.non_constant_part():
                return None if a.constant_term() == b.constant_term() else False
            return None
        if self.op in ineq and other.op is RelOp.NE:
            # (nc + c1 <= 0) means nc <= -c1; then nc + c2 != 0 is guaranteed
            # iff -c2 is outside that range: -c2 > -c1, i.e. c2 < c1
            # (for strict <: iff c2 <= c1).
            strict = self.op is RelOp.LT
            if a.non_constant_part() == b.non_constant_part():
                c1, c2 = a.constant_term(), b.constant_term()
                ok = c2 <= c1 if strict else c2 < c1
                return ok or None
            neg = -b
            if a.non_constant_part() == neg.non_constant_part():
                c1, c2 = a.constant_term(), neg.constant_term()
                ok = c2 <= c1 if strict else c2 < c1
                return ok or None
            return None
        if self.op in ineq and other.op is RelOp.EQ:
            # an inequality can refute an equation: nc <= -c1 and -c2 > -c1
            # means nc != -c2
            r = self.implies(Relation(other.expr, RelOp.NE, other.integer))
            return False if r is True else None
        return None

    def conflicts(self, other: "Atom") -> bool:
        """Provably ``self AND other`` is unsatisfiable (cheap pair check)."""
        if not isinstance(other, Relation):
            return False
        return self.implies(other.negate()) is True

    # -- substitution / evaluation --------------------------------------------------

    def substitute(self, bindings: Mapping[str, SymExpr]) -> "Relation":
        """Value substitution into the expression."""
        return Relation(self.expr.substitute(bindings), self.op, self.integer)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Variable renaming in the expression."""
        return Relation(self.expr.rename(mapping), self.op, self.integer)

    def free_vars(self) -> frozenset[str]:
        """Variables occurring in the expression."""
        return self.expr.free_vars()

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Concrete truth value under an environment."""
        value = self.expr.evaluate(env)
        if self.op is RelOp.LE:
            return value <= 0
        if self.op is RelOp.LT:
            return value < 0
        if self.op is RelOp.EQ:
            return value == 0
        return value != 0

    # -- identity ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Relation)
            and self.op is other.op
            and self.expr == other.expr
            and self.integer == other.integer
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Relation<{self}>"

    def __str__(self) -> str:
        return f"{self.expr} {self.op.value} 0"

    def sort_key(self) -> tuple:
        """Canonical ordering key."""
        return (0, self.op.value, str(self.expr))


class BoolAtom:
    """A logical scalar variable atom ``(lvar = True/False)`` (paper 5.2)."""

    __slots__ = ("name", "value", "_hash")

    def __init__(self, name: str, value: bool = True) -> None:
        self.name = name
        self.value = bool(value)
        self._hash = hash((name, self.value))

    def __reduce__(self):
        # rebuilt rather than restored: the hash of the name differs from
        # process to process
        return (BoolAtom, (self.name, self.value))

    def truth(self) -> Optional[bool]:
        """Logical variables never fold to a constant."""
        return None

    def negate(self) -> "BoolAtom":
        """The exact complement relation (cached)."""
        return BoolAtom(self.name, not self.value)

    def implies(self, other: "Atom") -> Optional[bool]:
        """Implication against another atom of the same variable."""
        if isinstance(other, BoolAtom) and other.name == self.name:
            return self.value == other.value
        return None

    def conflicts(self, other: "Atom") -> bool:
        """Contradiction against the complementary atom."""
        return (
            isinstance(other, BoolAtom)
            and other.name == self.name
            and other.value != self.value
        )

    def substitute(self, bindings: Mapping[str, SymExpr]) -> Optional["Atom"]:
        """Value substitution for a logical variable.

        A binding to a plain variable renames the atom (the new variable
        holds the truth value); any other binding is unrepresentable and
        returns ``None`` — the containing predicate degrades to Δ.
        """
        repl = bindings.get(self.name)
        if repl is None:
            return self
        terms = repl.terms
        if len(terms) == 1 and terms[0][0].is_linear_var() and terms[0][1] == 1:
            (target,) = terms[0][0].variables()
            return BoolAtom(target, self.value)
        return None

    def rename(self, mapping: Mapping[str, str]) -> "BoolAtom":
        """Variable renaming in the expression."""
        return BoolAtom(mapping.get(self.name, self.name), self.value)

    def free_vars(self) -> frozenset[str]:
        """Variables occurring in the expression."""
        return frozenset((self.name,))

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Concrete truth value under an environment."""
        return bool(env[self.name]) == self.value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoolAtom)
            and self.name == other.name
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BoolAtom<{self}>"

    def __str__(self) -> str:
        return self.name if self.value else f".NOT.{self.name}"

    def sort_key(self) -> tuple:
        """Canonical ordering key."""
        return (1, self.name, self.value)


Atom = Union[Relation, BoolAtom]
