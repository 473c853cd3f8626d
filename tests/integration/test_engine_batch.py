"""Integration tests: the batch engine over the five Perfect programs.

The load-bearing guarantee: a warm-cache run is *observationally
identical* to a cold run — every serialized loop verdict matches — while
actually hitting the cache: an identical resubmission is served whole
from the result tier, and a comment-only edit from the routine summaries.
"""

import dataclasses

import pytest

from repro.dataflow import AnalysisOptions
from repro.engine import (
    BatchEngine,
    BatchItem,
    SummaryCache,
    compile_item,
    diff_revisions,
    items_from_kernel_registry,
)
from repro.driver.report import result_to_dict
from repro.perf import profiler


@pytest.fixture(scope="module")
def kernel_items():
    items = items_from_kernel_registry()
    assert sorted(i.name for i in items) == [
        "ARC2D", "MDG", "OCEAN", "TRACK", "TRFD",
    ]
    return items


def comment_edited(items):
    """The items with one comment line appended: a new result key, the
    same routine fingerprints."""
    return [
        dataclasses.replace(i, source=i.source + "C comment-only edit\n")
        for i in items
    ]


def symbolic_hit_rate(report):
    return profiler.hit_rate(report.telemetry.symbolic)


def assert_served_whole(warm, cold, items):
    """Every identical item came from the result tier, nothing was
    stored, and the verdicts are bit-identical, program by program."""
    assert warm.ok
    assert warm.telemetry.cache.result_hits == len(items)
    assert warm.telemetry.cache.stores == 0
    assert warm.verdict_rows() == cold.verdict_rows()


def assert_routines_served(edited, cold, warmer=True):
    """A comment-only edit misses the result tier but hits every routine
    summary the cold run stored, so (in the cold run's process) its
    symbolic memos run warmer."""
    assert edited.ok
    assert edited.telemetry.cache.result_hits == 0
    assert edited.telemetry.cache.hits == cold.telemetry.cache.stores
    assert edited.telemetry.cache.stores == 0
    if warmer:
        assert symbolic_hit_rate(edited) > symbolic_hit_rate(cold)
    assert edited.verdict_rows() == cold.verdict_rows()


class TestBatchWarmCold:
    def test_warm_rerun_identical_and_hits(self, kernel_items, tmp_path):
        profiler.clear_caches()  # cold symbolic memos for the cold run
        cold_engine = BatchEngine(cache_dir=tmp_path, jobs=1)
        cold = cold_engine.run(kernel_items)
        assert cold.ok, [r.error for r in cold.results if not r.ok]
        assert cold.telemetry.cache.hits == 0
        assert cold.telemetry.cache.result_hits == 0
        assert cold.telemetry.cache.stores > 0

        warm = BatchEngine(cache_dir=tmp_path, jobs=1).run(kernel_items)
        assert_served_whole(warm, cold, kernel_items)

        edited = BatchEngine(cache_dir=tmp_path, jobs=1).run(
            comment_edited(kernel_items)
        )
        assert_routines_served(edited, cold)

    def test_results_in_input_order(self, kernel_items):
        report = BatchEngine(jobs=1).run(kernel_items)
        assert [r.name for r in report.results] == [
            i.name for i in kernel_items
        ]

    def test_parse_error_is_contained(self, tmp_path):
        items = [
            BatchItem(name="bad", source="      this is not fortran\n"),
            BatchItem(
                name="good",
                source=(
                    "      SUBROUTINE s(a, n)\n      REAL a(100)\n"
                    "      INTEGER n, i\n      DO i = 1, n\n"
                    "        a(i) = 1.0\n      ENDDO\n      END\n"
                ),
            ),
        ]
        report = BatchEngine(cache_dir=tmp_path, jobs=1).run(items)
        assert not report.ok
        assert report.result("bad").error is not None
        assert report.result("good").ok
        assert report.telemetry.errors == 1
        assert len(report.result("good").rows()) == 1

    def test_ablated_options_use_disjoint_cache_keys(self, tmp_path):
        items = items_from_kernel_registry()[:1]
        BatchEngine(cache_dir=tmp_path, jobs=1).run(items)
        ablated = BatchEngine(
            AnalysisOptions(symbolic=False), cache_dir=tmp_path, jobs=1
        ).run(items)
        # a run with different techniques must not be served T1 summaries
        # nor T1 results
        assert ablated.telemetry.cache.hits == 0
        assert ablated.telemetry.cache.result_hits == 0


class TestBatchPool:
    def test_pool_matches_sequential(self, kernel_items, tmp_path):
        seq = BatchEngine(jobs=1).run(kernel_items)
        pool = BatchEngine(cache_dir=tmp_path, jobs=2).run(kernel_items)
        assert pool.ok, [r.error for r in pool.results if not r.ok]
        assert pool.verdict_rows() == seq.verdict_rows()
        assert len(pool.results) == len(kernel_items)
        assert pool.telemetry.jobs == 2

    def test_worker_stores_serve_the_next_run(self, kernel_items, tmp_path):
        profiler.clear_caches()  # the forked workers start cold
        cold = BatchEngine(cache_dir=tmp_path, jobs=2).run(kernel_items)
        assert cold.ok
        # the parent stored each finalized item's result for the next run
        warm = BatchEngine(cache_dir=tmp_path, jobs=1).run(kernel_items)
        assert_served_whole(warm, cold, kernel_items)

        # the workers' routine summaries are in the durable tier; the
        # symbolic memos they warmed died with them
        edited = BatchEngine(cache_dir=tmp_path, jobs=1).run(
            comment_edited(kernel_items)
        )
        assert_routines_served(edited, cold, warmer=False)


TWO_ROUTINES = (
    "      SUBROUTINE top(a, n)\n"
    "      REAL a(100)\n"
    "      INTEGER n, i\n"
    "      REAL t(100)\n"
    "      DO i = 1, n\n"
    "        CALL fill(t, i)\n"
    "        a(i) = t(1)\n"
    "      ENDDO\n"
    "      END\n"
    "      SUBROUTINE fill(t, i)\n"
    "      REAL t(100)\n"
    "      INTEGER i\n"
    "      t(1) = {value} * i\n"
    "      END\n"
    "      SUBROUTINE bystander(b, m)\n"
    "      REAL b(100)\n"
    "      INTEGER m, k, j\n"
    "      REAL t(50)\n"
    "      DO k = 1, m\n"
    "        DO j = 1, 10\n"
    "          t(j) = b(j) + k\n"
    "        ENDDO\n"
    "        b(k) = t(1)\n"
    "      ENDDO\n"
    "      END\n"
)


def revise(cache, source, previous):
    """One watch revision: compile against *cache*, then diff the unit
    hashes of the *previous* revision; returns (result, report, hashes)."""
    result, _, hooks = compile_item(
        BatchItem("prog", source), AnalysisOptions(), cache,
        machine=True, audit=False,
    )
    report = diff_revisions("prog", previous, hooks)
    return result, report, dict(hooks.unit_hashes)


class TestIncremental:
    def test_callee_edit_reanalyzes_only_the_chain(self):
        cache = SummaryCache()
        _, first, hashes = revise(cache, TWO_ROUTINES.format(value="2.0"), {})
        assert sorted(first.changed) == ["bystander", "fill", "top"]
        assert first.reused == []

        _, second, _ = revise(cache, TWO_ROUTINES.format(value="3.0"), hashes)
        assert second.changed == ["fill"]
        assert second.invalidated == ["top"]
        assert "bystander" in second.reused

    def test_unchanged_rerun_reuses_everything(self):
        cache = SummaryCache()
        src = TWO_ROUTINES.format(value="2.0")
        _, _, hashes = revise(cache, src, {})
        _, again, _ = revise(cache, src, hashes)
        assert again.changed == []
        assert again.invalidated == []
        assert len(again.reused) > 0

    def test_verdicts_survive_the_cache(self):
        cache = SummaryCache()
        src = TWO_ROUTINES.format(value="2.0")
        first, _, hashes = revise(cache, src, {})
        second, _, _ = revise(cache, src, hashes)
        cold = result_to_dict(first)
        warm = result_to_dict(second)
        # timings and work counters legitimately shrink when warm; the
        # verdicts themselves must not move at all
        assert cold["loops"] == warm["loops"]
        assert warm["parallel_loops"] == cold["parallel_loops"]
