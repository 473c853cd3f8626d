"""Property tests: the matrix constraint core is verdict-identical to the
object-layer Fourier–Motzkin reference.

Each case builds a randomized atom system (including NE case-splits,
strict real atoms, nonlinear monomials, and coefficients far beyond 64
bits) and checks that ``definitely_unsat`` / ``implied_by`` agree
bit-for-bit with the object reference, called directly.  Soundness is
cross-checked against brute-force evaluation on small integer
environments: a provably-unsat system must have no model.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import profiler
from repro.symbolic import Relation, RelOp, SymExpr, sym
from repro.symbolic import fourier_motzkin as fm

from .strategies import VAR_NAMES, envs, linear_exprs, relations

#: coefficients far beyond 64 bits: the exact path must never wrap
huge_ints = st.integers(min_value=2**63, max_value=2**70)


@st.composite
def strict_relations(draw):
    """Real-typed atoms, including strict ``<`` (never normalized away)."""
    expr = draw(linear_exprs())
    op = draw(st.sampled_from([RelOp.LE, RelOp.LT, RelOp.NE]))
    return Relation(expr, op, integer=False)


@st.composite
def atom_systems(draw, max_atoms: int = 5):
    """A random conjunction mixing integer, strict, and nonlinear atoms."""
    kinds = st.one_of(relations(), strict_relations())
    return [draw(kinds) for _ in range(draw(st.integers(1, max_atoms)))]


@st.composite
def huge_systems(draw, max_atoms: int = 4):
    """Systems whose coefficients exceed 64 bits."""
    out = []
    for _ in range(draw(st.integers(1, max_atoms))):
        expr = SymExpr.const(draw(huge_ints) * draw(st.sampled_from([-1, 1])))
        for name in VAR_NAMES:
            if draw(st.booleans()):
                expr = expr + sym(name) * draw(huge_ints)
        out.append(Relation(expr, draw(st.sampled_from([RelOp.LE, RelOp.EQ]))))
    return out


def _unsat(atoms) -> bool:
    """The production verdict, decided afresh (memo cleared)."""
    fm._UNSAT_CACHE._data.clear()
    return fm.definitely_unsat(atoms)


@given(atom_systems())
@settings(max_examples=150, deadline=None)
def test_unsat_matches_oracle(atoms):
    assert _unsat(atoms) == fm._unsat_object(atoms)


@given(atom_systems(), relations())
@settings(max_examples=100, deadline=None)
def test_implied_by_matches_oracle(atoms, conclusion):
    fm._UNSAT_CACHE._data.clear()
    fm._IMPLIED_CACHE._data.clear()
    assert fm.implied_by(atoms, conclusion) == fm._unsat_object(
        atoms + [conclusion.negate()]
    )


def test_overflow_promotion_is_counted():
    """A non-reducible huge system takes the exact path and says so.

    Real-typed atoms: integer tightening would legally shrink these
    coefficients during normalization.  x <= -1/2**63 and x >= 1/2**63
    is unsat only if nothing wraps; the elimination that proves it is
    counted.
    """
    x = sym("x")
    big = 2**63
    atoms = [
        Relation(x * big + 1, RelOp.LE, integer=False),  # x <= -1/big
        Relation(1 - x * big, RelOp.LE, integer=False),  # x >= +1/big
    ]
    before = profiler.COUNTERS.fm_eliminations
    assert _unsat(atoms) is True
    assert profiler.COUNTERS.fm_eliminations > before
    assert fm._unsat_object(atoms) is True


@given(huge_systems())
@settings(max_examples=50, deadline=None)
def test_overflow_systems_match_oracle(atoms):
    """Coefficients beyond 64 bits stay exact, never silently wrap."""
    assert _unsat(atoms) == fm._unsat_object(atoms)


@given(atom_systems(max_atoms=4), envs())
@settings(max_examples=150, deadline=None)
def test_unsat_is_sound(atoms, env):
    """A provably-unsat system has no model (spot-checked per env)."""
    if _unsat(atoms):
        assert not all(a.evaluate(env) for a in atoms)


@given(st.lists(atom_systems(max_atoms=3), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_batch_entry_matches_single(systems):
    """definitely_unsat_many == [definitely_unsat(s) for s in systems]."""
    fm._UNSAT_CACHE._data.clear()
    batched = fm.definitely_unsat_many(systems)
    singles = [fm.definitely_unsat(s) for s in systems]
    assert batched == singles


def test_ne_case_split_parity():
    """NE splits (and the drop beyond the cap) behave identically."""
    x, y, z, w = sym("x"), sym("y"), sym("z"), sym("w")
    atoms = [
        Relation.eq(x, y),
        Relation.ne(x, y),  # split: contradiction found in both branches
    ]
    assert _unsat(atoms) is fm._unsat_object(atoms) is True
    # more NE atoms than MAX_NE_SPLITS: extras dropped on both paths
    many_ne = [
        Relation.ne(x, 0),
        Relation.ne(y, 0),
        Relation.ne(z, 0),
        Relation.ne(w, 0),
        Relation.ne(x + y, 0),
    ]
    assert _unsat(many_ne) is fm._unsat_object(many_ne)


def test_strict_real_atoms_parity():
    """Real strict bounds: x < y and y < x is unsat, x < y alone is not."""
    x, y = sym("x"), sym("y")
    lt_xy = Relation(x - y, RelOp.LT, integer=False)
    lt_yx = Relation(y - x, RelOp.LT, integer=False)
    assert _unsat([lt_xy, lt_yx]) is True
    assert _unsat([lt_xy]) is False
    # the real strict chain x < y < x+1 is satisfiable over the rationals
    chain = [lt_xy, Relation(y - x - 1, RelOp.LT, integer=False)]
    assert _unsat(chain) is fm._unsat_object(chain) is False
