"""Unit tests for the Fourier–Motzkin engine."""

from repro.symbolic import (
    BoolAtom,
    Relation,
    definitely_unsat,
    implied_by,
    sym,
)


class TestUnsat:
    def test_empty_is_sat(self):
        assert not definitely_unsat([])

    def test_simple_conflict(self):
        assert definitely_unsat([Relation.le("i", 3), Relation.ge("i", 5)])

    def test_simple_satisfiable(self):
        assert not definitely_unsat([Relation.le("i", 3), Relation.ge("i", 1)])

    def test_transitive_conflict(self):
        # i <= j, j <= k, k <= i - 1
        atoms = [
            Relation.le("i", "j"),
            Relation.le("j", "k"),
            Relation.le("k", sym("i") - 1),
        ]
        assert definitely_unsat(atoms)

    def test_transitive_satisfiable(self):
        atoms = [
            Relation.le("i", "j"),
            Relation.le("j", "k"),
            Relation.le("k", "i"),
        ]
        assert not definitely_unsat(atoms)

    def test_equality_expansion(self):
        assert definitely_unsat([Relation.eq("i", 3), Relation.ge("i", 4)])
        assert not definitely_unsat([Relation.eq("i", 3), Relation.ge("i", 3)])

    def test_ne_split_integer(self):
        # i != 3 with 3 <= i <= 3 forces contradiction
        atoms = [
            Relation.ne("i", 3),
            Relation.ge("i", 3),
            Relation.le("i", 3),
        ]
        assert definitely_unsat(atoms)

    def test_ne_split_satisfiable(self):
        atoms = [Relation.ne("i", 3), Relation.ge("i", 3), Relation.le("i", 4)]
        assert not definitely_unsat(atoms)

    def test_strict_real_conflict(self):
        # x < y and y < x
        atoms = [
            Relation.lt("x", "y", integer=False),
            Relation.lt("y", "x", integer=False),
        ]
        assert definitely_unsat(atoms)

    def test_strict_boundary(self):
        # x < y and y <= x is unsat; x <= y and y <= x is sat (x == y)
        assert definitely_unsat(
            [
                Relation.lt("x", "y", integer=False),
                Relation.le("y", "x", integer=False),
            ]
        )
        assert not definitely_unsat(
            [
                Relation.le("x", "y", integer=False),
                Relation.le("y", "x", integer=False),
            ]
        )

    def test_bool_conflict(self):
        assert definitely_unsat([BoolAtom("p"), BoolAtom("p", False)])
        assert not definitely_unsat([BoolAtom("p"), BoolAtom("q", False)])

    def test_constant_false_atom(self):
        assert definitely_unsat([Relation.le(5, 3)])

    def test_nonlinear_linearization_sound(self):
        # i*i <= 3 and i*i >= 5: the shared monomial conflicts
        sq = sym("i") * sym("i")
        assert definitely_unsat([Relation.le(sq, 3), Relation.ge(sq, 5)])

    def test_nonlinear_distinct_monomials_not_proven(self):
        # i*j >= 5 and i <= 0: genuinely unsat over positive reasoning but
        # the linearization treats i*j as independent; must NOT claim unsat
        atoms = [Relation.ge(sym("i") * sym("j"), 5), Relation.le("i", 0)]
        assert not definitely_unsat(atoms)

    def test_scaled_conflict(self):
        # 2i <= 5 (=> i <= 2) and 3i >= 9 (=> i >= 3)
        assert definitely_unsat(
            [Relation.le(sym("i") * 2, 5), Relation.ge(sym("i") * 3, 9)]
        )


class TestImpliedBy:
    def test_direct(self):
        assert implied_by([Relation.le("i", 3)], Relation.le("i", 5))

    def test_chain(self):
        context = [Relation.le("i", "j"), Relation.le("j", "n")]
        assert implied_by(context, Relation.le("i", "n"))
        assert not implied_by(context, Relation.le("n", "i"))

    def test_equality_context(self):
        assert implied_by([Relation.eq("i", "j")], Relation.le("i", "j"))
        assert implied_by([Relation.eq("i", "j")], Relation.ge("i", "j"))

    def test_integer_gap(self):
        # i <= 3 implies i != 4 (integers)
        assert implied_by([Relation.le("i", 3)], Relation.ne("i", 4))

    def test_not_implied(self):
        assert not implied_by([Relation.le("i", 5)], Relation.le("i", 3))

    def test_empty_context_tautology(self):
        assert implied_by([], Relation.le("i", sym("i") + 1))


class TestEffortCaps:
    """Satellite contract (docs/robustness.md): when a system exceeds the
    elimination effort caps, FM gives up *soundly* — ``definitely_unsat``
    answers False ("could not prove"), never wrong or hung — and the
    bail-out is counted so ``--profile``/``--stats-json`` surface it.

    Every test uses fresh variable names: verdicts are memoized on the
    atom set, and counters only move on a cache miss.
    """

    def test_variable_limit_bails_out_and_counts(self):
        from repro.perf.profiler import COUNTERS
        from repro.symbolic.fourier_motzkin import MAX_VARIABLES

        n = MAX_VARIABLES + 2
        # v0 <= v1 <= ... <= v{n-1} <= v0 - 1: infeasible, but the proof
        # needs elimination over n > MAX_VARIABLES variables
        atoms = [
            Relation.le(f"vcap{k}", f"vcap{k + 1}") for k in range(n - 1)
        ]
        atoms.append(Relation.le(f"vcap{n - 1}", sym("vcap0") - 1))
        before = COUNTERS.fm_var_limit_bailouts
        assert not definitely_unsat(atoms)  # gave up, did not prove
        assert COUNTERS.fm_var_limit_bailouts == before + 1

    def test_constraint_limit_bails_out_and_counts(self):
        from repro.perf.profiler import COUNTERS
        from repro.symbolic.fourier_motzkin import MAX_CONSTRAINTS

        import itertools

        from repro.symbolic.fourier_motzkin import MAX_VARIABLES

        # stay under the variable cap but flood the constraint cap:
        # every ordered pair at three slack levels, all satisfiable
        names = [f"ccap{k}" for k in range(MAX_VARIABLES)]
        atoms = [
            Relation.le(a, sym(b) + c)
            for a, b in itertools.combinations(names, 2)
            for c in range(3)
        ]
        assert len(atoms) > MAX_CONSTRAINTS
        before = COUNTERS.fm_constraint_limit_bailouts
        assert not definitely_unsat(atoms)
        assert COUNTERS.fm_constraint_limit_bailouts == before + 1

    def test_excess_ne_splits_are_dropped_and_counted(self):
        from repro.perf.profiler import COUNTERS
        from repro.symbolic.fourier_motzkin import MAX_NE_SPLITS

        # MAX_NE_SPLITS + 2 disequalities: the extras are dropped (sound
        # weakening), so the squeezed contradiction is no longer provable
        atoms = [
            Relation.ne("necap", k) for k in range(MAX_NE_SPLITS + 2)
        ]
        atoms.append(Relation.ge("necap", 0))
        atoms.append(Relation.le("necap", MAX_NE_SPLITS + 1))
        before = COUNTERS.fm_ne_splits_dropped
        definitely_unsat(atoms)
        assert COUNTERS.fm_ne_splits_dropped == before + 2

    def test_dropped_ne_splits_give_one_verdict_in_every_process(self):
        """Which disequalities the split cap keeps must not follow the
        string hashes that order a frozenset: ``ld != 0`` decides this
        set, so a process that kept it proved what another did not."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "from repro.symbolic import Relation, definitely_unsat\n"
            "atoms = {Relation.ne(n, 0) for n in ('ia', 'jb', 'kc', 'ld')}\n"
            "print(definitely_unsat(atoms | {Relation.eq('ld', 0)}))\n"
        )
        verdicts = set()
        for seed in ("0", "3"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=str(Path(repro.__file__).parents[1]),
            )
            verdicts.add(subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True, timeout=60,
            ).stdout.strip())
        assert len(verdicts) == 1, verdicts

    def test_reference_decides_the_atom_set(self):
        """The object-layer reference, like ``definitely_unsat``, counts a
        repeated disequality once, whatever order the atoms come in."""
        import itertools

        from repro.symbolic import fourier_motzkin as fm

        atoms = [Relation.ne("x", 0)] * 3 + [Relation.eq("z", 0),
                                             Relation.ne("z", 0)]
        verdicts = {
            fm._unsat_object(list(order))
            for order in itertools.permutations(atoms)
        }
        assert verdicts == {True}

    def test_bailout_counters_reach_profile_snapshot(self):
        from repro.perf import profiler

        snap = profiler.snapshot()
        for key in (
            "counter.fm_var_limit_bailouts",
            "counter.fm_constraint_limit_bailouts",
            "counter.fm_ne_splits_dropped",
            "counter.budget_fallbacks",
        ):
            assert key in snap and isinstance(snap[key], int)


class TestBatchEntries:
    def test_batch_matches_singles(self):
        from repro.symbolic import SymExpr, definitely_unsat_many
        from repro.symbolic import fourier_motzkin as fm

        x, y = sym("x"), sym("y")
        systems = [
            [Relation.le(x, 0), Relation.le(SymExpr.const(1), x)],
            [Relation.le(x, y)],
            [Relation.eq(x, 0), Relation.ne(x, 0)],
        ]
        fm._UNSAT_CACHE._data.clear()
        batched = definitely_unsat_many(systems)
        assert batched == [definitely_unsat(s) for s in systems]

    def test_predicate_unsat_many_matches_scalar(self):
        from repro.symbolic import Predicate, predicate_unsat, predicate_unsat_many

        x = sym("x")
        preds = [
            Predicate.false(),
            Predicate.le(x, 0) & Predicate.ge(x, 1),
            Predicate.le(x, 0),
            Predicate.true(),
        ]
        assert predicate_unsat_many(preds) == [
            predicate_unsat(p) for p in preds
        ]
        assert predicate_unsat_many(preds, use_fm=False) == [
            predicate_unsat(p, use_fm=False) for p in preds
        ]


class TestOneConstraintPath:
    def test_format_perf_names_backend(self):
        from repro.driver.report import format_perf
        from repro.symbolic.matrix import backend_name

        assert backend_name() == "python"
        assert format_perf({}).startswith("constraint backend: python")

    def test_entry_points_never_import_numpy(self):
        """Every CLI entry point runs on the standard library alone."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        modules = (
            "repro.driver.cli",
            "repro.engine.cli",
            "repro.engine.campaign",
            "repro.server.cli",
        )
        code = (
            "import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
