"""Property tests: symbolic expressions form a commutative ring and
evaluation is a homomorphism."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import SymExpr, sym

from .strategies import envs, small_ints, sym_exprs, var_names


@given(sym_exprs(), sym_exprs(), envs())
def test_addition_homomorphism(a, b, env):
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


@given(sym_exprs(), sym_exprs(), envs())
def test_multiplication_homomorphism(a, b, env):
    assert (a * b).evaluate(env) == a.evaluate(env) * b.evaluate(env)


@given(sym_exprs(), envs())
def test_negation_homomorphism(a, env):
    assert (-a).evaluate(env) == -a.evaluate(env)


@given(sym_exprs(), sym_exprs())
def test_addition_commutative(a, b):
    assert a + b == b + a


@given(sym_exprs(), sym_exprs())
def test_multiplication_commutative(a, b):
    assert a * b == b * a


@given(sym_exprs(), sym_exprs(), sym_exprs())
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(sym_exprs(), sym_exprs(), sym_exprs())
@settings(max_examples=50)
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(sym_exprs(), sym_exprs(), sym_exprs())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(sym_exprs())
def test_additive_identity_and_inverse(a):
    assert a + SymExpr() == a
    assert (a - a).is_zero()


@given(sym_exprs())
def test_multiplicative_identity(a):
    assert a * SymExpr.const(1) == a
    assert (a * SymExpr()).is_zero()


@given(sym_exprs(), small_ints, envs())
def test_scaling_consistent(a, k, env):
    assert (a * k).evaluate(env) == k * a.evaluate(env)


@given(sym_exprs(), var_names, sym_exprs(), envs())
def test_substitution_semantics(a, name, replacement, env):
    """Substituting then evaluating == evaluating with the bound value."""
    substituted = a.substitute({name: replacement})
    extended = dict(env)
    extended[name] = replacement.evaluate(env)
    assert substituted.evaluate(env) == a.evaluate(extended)


@given(sym_exprs())
def test_substitution_identity(a):
    renames = {n: sym(n) for n in a.free_vars()}
    assert a.substitute(renames) == a


@given(sym_exprs(), envs())
def test_constant_detection_consistent(a, env):
    value = a.constant_value()
    if value is not None:
        assert a.evaluate(env) == value


@given(sym_exprs())
def test_hash_equal_for_equal(a):
    b = SymExpr(dict(a.terms))
    assert a == b and hash(a) == hash(b)


@given(sym_exprs(), envs())
def test_non_constant_plus_constant_partition(a, env):
    assert a.non_constant_part().evaluate(env) + a.constant_term() == a.evaluate(
        env
    )


def _canonical_coefficients(expr: SymExpr) -> bool:
    """Every coefficient an ``int`` when integral, a ``Fraction`` otherwise."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for _, c in expr.terms
    )


@given(
    sym_exprs(),
    sym_exprs(),
    var_names,
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
def test_integral_coefficients_stay_int(a, b, name, d, f):
    """Rational steps that land on integers must give ``int`` back, or
    every later operation pays for ``Fraction`` arithmetic."""
    half = a.div_const(d)
    results = [
        a + b,
        a - b,
        a * b,
        -a,
        a.scaled(f),
        half,
        half.scaled(d),
        half + half - a.div_const(d).scaled(-1),
        half * sym(d),
        a.substitute({name: b.div_const(d)}),
        a.substitute({name: half.scaled(d)}),
    ]
    for expr in results:
        assert _canonical_coefficients(expr), expr
    assert type(half.scaled(d).constant_term()) is int
