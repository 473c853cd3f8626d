"""Unit tests for the profiling substrate (repro.perf.profiler)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.perf import profiler
from repro.perf.profiler import MISS, BoundedCache
from repro.symbolic import Monomial, Predicate, Relation, RelOp, SymExpr


def _other_hash_seed() -> int:
    seed = os.environ.get("PYTHONHASHSEED", "")
    return 2 if seed == "1" else 1


def _pickled_in_other_process(code: str):
    """Unpickle what *code* writes to stdout under another hash seed."""
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(_other_hash_seed()),
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        check=True, timeout=60,
    ).stdout
    return pickle.loads(out)


#: binds ``mod_i``, the MOD_i of Figure 1(b)'s outer loop
_FIGURE_1B_MOD_I = (
    "from repro.dataflow import SummaryAnalyzer\n"
    "from repro.fortran import analyze, parse_program\n"
    "from repro.hsg import build_hsg\n"
    "from repro.kernels.figure1 import FIGURE_1B\n"
    "hsg = build_hsg(analyze(parse_program(FIGURE_1B)))\n"
    "unit, loop = hsg.all_loops()[0]\n"
    "mod_i = SummaryAnalyzer(hsg).loop_record(unit, loop).mod_i\n"
)


def _cache(name: str, maxsize: int = 4) -> BoundedCache:
    # unregistered so tests cannot pollute the global registry
    return BoundedCache(name, maxsize=maxsize, register=False)


class TestBoundedCache:
    def test_miss_then_hit(self):
        c = _cache("t")
        assert c.get("k") is MISS
        c.put("k", 42)
        assert c.get("k") == 42
        assert (c.hits, c.misses) == (1, 1)

    def test_none_is_a_legitimate_value(self):
        c = _cache("t")
        c.put("k", None)
        assert c.get("k") is None
        assert c.hits == 1

    def test_put_returns_value(self):
        c = _cache("t")
        assert c.put("k", "v") == "v"

    def test_fifo_eviction_order(self):
        c = _cache("t", maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # a hit does not refresh: a is still the oldest
        c.put("a", 10)  # neither does an overwrite
        c.put("c", 3)
        assert c.get("a") is MISS
        assert c.get("b") == 2
        assert c.get("c") == 3
        assert c.evictions == 1

    def test_clear_keeps_counters(self):
        c = _cache("t")
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0
        assert c.hits == 1
        assert c.get("a") is MISS

    def test_resize_evicts_down(self):
        c = _cache("t", maxsize=4)
        for i in range(4):
            c.put(i, i)
        c.resize(2)
        assert len(c) == 2
        assert c.evictions == 2
        # the most recently inserted entries survive
        assert c.get(3) == 3 and c.get(2) == 2


class TestRegistryAndSnapshot:
    def test_symbolic_caches_registered(self):
        names = set(profiler.caches())
        # the tentpole tables must all report through the registry
        for expected in (
            "monomial.intern",
            "symexpr.intern",
            "relation.intern",
            "comparer.prove",
            "fm.unsat",
            "predicate.conj",
        ):
            assert expected in names

    def test_snapshot_delta_is_flat_and_numeric(self):
        before = profiler.snapshot()
        # force some traffic
        SymExpr.var("snapshot_test") + 1
        after = profiler.snapshot()
        d = profiler.delta(before, after)
        assert all(isinstance(v, (int, float)) for v in d.values())
        assert all(isinstance(k, str) for k in d)
        # delta drops zero entries
        assert profiler.delta(after, after) == {}

    def test_counters_reset(self):
        profiler.COUNTERS.prove_calls += 5
        profiler.reset()
        assert profiler.COUNTERS.prove_calls == 0


class TestMerge:
    def test_numbers_add_and_peaks_max(self):
        into = {"gar_ops": 2, "peak_gar_list": 7, "counter.prove_calls": 1.5}
        out = profiler.merge(
            into, {"gar_ops": 3, "peak_gar_list": 4, "fresh": 1}
        )
        assert out is into
        assert into == {
            "gar_ops": 5, "peak_gar_list": 7, "counter.prove_calls": 1.5,
            "fresh": 1,
        }
        profiler.merge(into, {"peak_gar_list": 9})
        assert into["peak_gar_list"] == 9

    def test_merge_inverts_delta(self):
        before = profiler.snapshot()
        SymExpr.var("merge_traffic") * 3 + 2
        after = profiler.snapshot()
        assert profiler.merge(dict(before), profiler.delta(before, after)) == after


class TestHitRate:
    def test_empty_slice_is_none_not_zero(self):
        assert profiler.hit_rate({}) is None
        assert profiler.hit_rate({"counter.prove_calls": 5}) is None

    def test_aggregates_across_caches(self):
        snap = {
            "cache.a.hits": 3.0,
            "cache.a.misses": 1.0,
            "cache.b.hits": 1.0,
            "cache.b.misses": 3.0,
            "cache.a.evictions": 99.0,  # not a lookup, ignored
            "counter.prove_calls": 7.0,  # wrong prefix, ignored
        }
        assert profiler.hit_rate(snap) == 0.5

    def test_prefix_narrows_the_slice(self):
        snap = {
            "cache.a.hits": 1.0,
            "cache.a.misses": 0.0,
            "cache.b.hits": 0.0,
            "cache.b.misses": 1.0,
        }
        assert profiler.hit_rate(snap, prefix="cache.a.") == 1.0
        assert profiler.hit_rate(snap, prefix="cache.b.") == 0.0

    def test_accepts_live_snapshot(self):
        SymExpr.var("hit_rate_traffic") + 1
        rate = profiler.hit_rate(profiler.snapshot())
        assert rate is not None and 0.0 <= rate <= 1.0


class TestInternedPickling:
    """Interned symbolic objects must unpickle through their interning
    constructors — never by mutating a shared instance's slots."""

    def test_monomial_roundtrip_is_interned(self):
        m = Monomial.var("i", 2) * Monomial.var("j")
        clone = pickle.loads(pickle.dumps(m))
        assert clone == m
        # same process, live intern table: identical object
        assert clone is Monomial(m.factors)

    def test_unit_monomial_not_corrupted(self):
        unit = Monomial.unit()
        factors_before = unit.factors
        pickle.loads(pickle.dumps(Monomial.var("k")))
        assert Monomial.unit().factors == factors_before == ()

    def test_symexpr_roundtrip(self):
        e = SymExpr.var("i") * 3 + SymExpr.var("j") - 7
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e and hash(clone) == hash(e)

    def test_relation_roundtrip(self):
        r = Relation(SymExpr.var("i") - SymExpr.var("n"), RelOp.LE)
        clone = pickle.loads(pickle.dumps(r))
        assert clone == r and clone.op is r.op

    def test_predicate_roundtrip(self):
        p = Predicate.le("i", "n") & Predicate.ge("i", 1)
        clone = pickle.loads(pickle.dumps(p))
        assert clone == p

    def test_predicates_from_another_process_compare_equal(self):
        """Cached summaries are written by other processes, whose string
        hashes differ; equality tests hashes, so unpickled clauses and
        predicates must carry this process's hashes."""
        code = (
            "import pickle, sys\n"
            "from repro.symbolic import Predicate\n"
            "p = Predicate.le('i', 'n') & Predicate.boolvar('p')\n"
            "sys.stdout.buffer.write(pickle.dumps("
            "[p, next(iter(p.clauses)), Predicate.true()]))\n"
        )
        pred, clause, true = _pickled_in_other_process(code)
        local = Predicate.le("i", "n") & Predicate.boolvar("p")
        assert pred == local and hash(pred) == hash(local)
        assert clause in local.clauses
        assert true == Predicate.true() and true.is_true()

    def test_gars_from_another_process_compare_equal(self):
        """Loop summaries loaded from another process's cache: every
        GAR, region and range carries this process's hash, and a GAR
        list hashed before pickling does not keep that hash."""
        loaded = _pickled_in_other_process(
            "import pickle, sys\n" + _FIGURE_1B_MOD_I + "hash(mod_i)\n"
            "sys.stdout.buffer.write(pickle.dumps(mod_i))\n"
        )
        scope: dict = {}
        exec(_FIGURE_1B_MOD_I, scope)
        fresh = scope["mod_i"]
        assert len(loaded) == len(fresh) > 1
        for gar in loaded:
            (twin,) = [g for g in fresh if g == gar]
            assert hash(gar) == hash(twin)
            assert hash(gar.region) == hash(twin.region)
            assert list(map(hash, gar.region.dims)) == list(
                map(hash, twin.region.dims)
            )
            assert gar in set(fresh)
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert loaded in {fresh}
