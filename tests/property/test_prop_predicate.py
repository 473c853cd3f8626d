"""Property tests: relations, CNF predicates, and the pairwise simplifier
agree with brute-force boolean semantics."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.symbolic import (
    BoolAtom,
    Disjunction,
    Predicate,
    Relation,
    RelOp,
    definitely_unsat,
    implied_by,
    sym,
)
from repro.symbolic.predicate import _conj_settled

from .strategies import atoms, envs, predicates, relations


@st.composite
def domain_atoms(draw, integer: bool | None = None):
    """An atom of the given integer domain (of either when ``None``),
    often sharing its variable part with others so that pairs imply or
    refute each other."""
    if integer is None:
        integer = draw(st.booleans())
    if draw(st.integers(0, 5)) == 0:
        return BoolAtom(draw(st.sampled_from(["p", "q"])), draw(st.booleans()))
    expr = sym(draw(st.integers(-4, 4)))
    for name in draw(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=2)):
        expr = expr + sym(name) * draw(st.sampled_from([-2, -1, 1, 2, 3]))
    op = draw(st.sampled_from([RelOp.LE, RelOp.LT, RelOp.EQ, RelOp.NE]))
    return Relation(expr, op, integer)


@st.composite
def settled_predicates(draw):
    """A settled all-unit CNF: the operand shape of the conjunction fast
    path.  Mixed-domain draws must come out unsettled."""
    integer = draw(st.sampled_from([True, False, None]))
    units = draw(st.lists(domain_atoms(integer), min_size=1, max_size=5))
    pred = Predicate.of_clauses([Disjunction([a]) for a in units])
    assume(pred._settled)
    return pred


@given(atoms(), envs())
def test_negation_complements(atom, env):
    assert atom.negate().evaluate(env) == (not atom.evaluate(env))


@given(relations(), envs())
def test_double_negation_semantics(rel, env):
    assert rel.negate().negate().evaluate(env) == rel.evaluate(env)


@given(atoms(), atoms(), envs())
def test_implies_sound(a, b, env):
    """If the pairwise test claims a => b, no env may witness a and not b."""
    verdict = a.implies(b)
    if verdict is True and a.evaluate(env):
        assert b.evaluate(env)
    if verdict is False and a.evaluate(env):
        assert not b.evaluate(env)


@given(atoms(), atoms(), envs())
def test_conflicts_sound(a, b, env):
    if a.conflicts(b):
        assert not (a.evaluate(env) and b.evaluate(env))


@given(relations(), envs())
def test_truth_constant_folding_sound(rel, env):
    t = rel.truth()
    if t is not None:
        assert rel.evaluate(env) == t


@given(predicates(), predicates(), envs())
def test_conjunction_semantics(p, q, env):
    if p.is_unknown() or q.is_unknown():
        return
    combined = p & q
    if combined.is_unknown():
        return  # complexity cap: allowed to give up
    assert combined.evaluate(env) == (p.evaluate(env) and q.evaluate(env))


@given(predicates(), predicates(), envs())
def test_disjunction_semantics(p, q, env):
    if p.is_unknown() or q.is_unknown():
        return
    combined = p | q
    if combined.is_unknown():
        return
    assert combined.evaluate(env) == (p.evaluate(env) or q.evaluate(env))


@given(predicates(), envs())
def test_negation_semantics(p, env):
    if p.is_unknown():
        return
    negated = p.negate()
    if negated.is_unknown():
        return
    assert negated.evaluate(env) == (not p.evaluate(env))


@given(predicates(), envs())
def test_simplifier_never_changes_value(p, env):
    """Rebuilding a CNF through of_clauses preserves semantics."""
    if not p.is_cnf():
        return
    rebuilt = Predicate.of_clauses(p.clauses)
    if rebuilt.is_unknown():
        return
    assert rebuilt.evaluate(env) == p.evaluate(env)


@given(predicates(), predicates(), envs())
def test_predicate_implies_sound(p, q, env):
    if p.implies(q) is True and not p.is_unknown() and not q.is_unknown():
        if p.evaluate(env):
            assert q.evaluate(env)


@settings(max_examples=200)
@given(predicates(), envs())
def test_false_predicates_have_no_models(p, env):
    if p.is_false():
        return  # nothing to check: constructor already folded it
    # a CNF that evaluates True under some env must not be is_false()
    if p.is_cnf():
        assert not p.is_false()


# --- Fourier-Motzkin soundness ------------------------------------------------


@given(atoms(linear=True), atoms(linear=True), atoms(linear=True), envs())
def test_fm_unsat_sound(a, b, c, env):
    """If FM claims unsatisfiable, no environment satisfies all atoms."""
    if definitely_unsat([a, b, c]):
        assert not (a.evaluate(env) and b.evaluate(env) and c.evaluate(env))


@given(atoms(linear=True), atoms(linear=True), atoms(linear=True), envs())
def test_fm_implication_sound(a, b, c, env):
    if implied_by([a, b], c):
        if a.evaluate(env) and b.evaluate(env):
            assert c.evaluate(env)


@given(atoms(), atoms(), envs())
def test_fm_nonlinear_still_sound(a, b, env):
    """Linearized (nonlinear) atoms keep the one-sided guarantee."""
    if definitely_unsat([a, b]):
        assert not (a.evaluate(env) and b.evaluate(env))


@given(st.booleans(), st.data())
def test_conflicts_symmetric_within_one_domain(integer, data):
    """The conjunction fast path relies on it: a settled operand's own
    atoms were checked for conflicts in one order only.  (Clauses never
    hold constant atoms.)"""
    a = data.draw(domain_atoms(integer))
    b = data.draw(domain_atoms(integer))
    assume(a.truth() is None and b.truth() is None)
    assert a.conflicts(b) == b.conflicts(a)


@settings(max_examples=200)
@given(settled_predicates(), settled_predicates())
def test_settled_conjunction_matches_of_clauses(p, q):
    reference = Predicate.of_clauses(list(p.clauses) + list(q.clauses))
    for fast in (_conj_settled(p, q), p & q):
        assert fast == reference
        assert fast._kind is reference._kind
        assert fast._settled == reference._settled


@given(atoms())
def test_of_atom_matches_of_clauses(atom):
    reference = Predicate.of_clauses([Disjunction([atom])])
    got = Predicate.of_atom(atom)
    assert got == reference
    assert got._kind is reference._kind
    assert got._settled == reference._settled
