"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.dataflow import AnalysisOptions, SummaryAnalyzer
from repro.fortran import analyze, parse_program
from repro.hsg import build_hsg
from repro.parallelize import classify_all_loops
from repro.perf import profiler
from repro.symbolic import Comparer


def _cache_bounds() -> dict[str, int]:
    return {name: cache.maxsize for name, cache in profiler.caches().items()}


@contextmanager
def all_caches_bounded(maxsize: int):
    """Every registered memo table bounded at *maxsize*; on exit each
    gets its own bound back."""
    bounds = _cache_bounds()
    profiler.resize_caches(maxsize)
    try:
        yield
    finally:
        for name, cache in profiler.caches().items():
            cache.resize(bounds.get(name, cache.maxsize))


@pytest.fixture(autouse=True)
def _cache_bounds_restored():
    """Fail a test that leaves a memo table's bound changed: the tables
    live for the whole process, so a leaked bound changes every later
    test."""
    before = _cache_bounds()
    yield
    after = _cache_bounds()
    changed = {
        name: (bound, after[name])
        for name, bound in before.items()
        if after.get(name, bound) != bound
    }
    if changed:
        pytest.fail(f"cache bounds left changed (before, after): {changed}")


def compile_source(source: str, options: AnalysisOptions | None = None):
    """source -> (hsg, analyzer)."""
    hsg = build_hsg(analyze(parse_program(source)))
    return hsg, SummaryAnalyzer(hsg, options)


def loop_verdicts(source: str, options: AnalysisOptions | None = None):
    """source -> {(routine, source_label or None): LoopVerdict}, plus
    (routine, var) keys for label-less loops."""
    hsg, analyzer = compile_source(source, options)
    out = {}
    for verdict in classify_all_loops(analyzer):
        out[(verdict.routine, verdict.source_label)] = verdict
        out.setdefault((verdict.routine, verdict.var), verdict)
    return out


def loop_record(source: str, routine: str, var: str, options=None):
    """Summary record of the first loop with the given index variable."""
    hsg, analyzer = compile_source(source, options)
    for unit, loop in hsg.all_loops():
        if unit == routine and loop.var == var:
            return analyzer.loop_record(unit, loop)
    raise AssertionError(f"no loop {routine}/{var}")


@pytest.fixture
def cmp() -> Comparer:
    return Comparer()


@pytest.fixture
def cmp_nofm() -> Comparer:
    return Comparer(use_fm=False)
