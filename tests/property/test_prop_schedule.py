"""Property test: schedule order never changes verdicts.

The topology-aware scheduler is a pure performance lever — it reorders
item dispatch so callee-providing items warm the cache before their
callers run.  Whatever corpus the generator draws and whatever budget
pressure is applied, the verdict rows of a topo-scheduled batch must be
bit-identical to an arbitrary-scheduled batch of the same items.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow import AnalysisOptions
from repro.engine import BatchEngine, BatchItem
from repro.engine.campaign import generate_campaign


def _verdict_rows(report):
    rows = []
    for res in sorted(report.results, key=lambda r: r.name):
        if res.ok:
            rows.append((res.name, tuple(map(tuple, (r.items() for r in
                                                     res.rows())))))
        else:
            rows.append((res.name, ("ERROR", res.error_kind)))
    return rows


def _run(items, options, schedule, cache_dir=None):
    engine = BatchEngine(options, cache_dir=cache_dir, jobs=1,
                         run_machine_model=False, schedule=schedule)
    report = engine.run(items)
    engine.cache.close()
    return report


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=2, max_value=10))
def test_topo_and_arbitrary_verdicts_bit_identical(tmp_path_factory, seed,
                                                   count):
    items = [BatchItem(c.name, c.source)
             for c in generate_campaign(count, seed=seed)]
    options = AnalysisOptions()
    cold = _run(list(items), options, "arbitrary")
    warm_dir = tmp_path_factory.mktemp("sched")
    warm = _run(list(items), options, "topo", cache_dir=str(warm_dir))
    assert _verdict_rows(warm) == _verdict_rows(cold)
    assert warm.telemetry.sched["mode"] == "topo"


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
# seeds whose budgeted verdicts once drifted with warm symbolic memos
@example(seed=2201)
@example(seed=7993)
def test_order_invariance_survives_budget_degradation(tmp_path_factory, seed):
    """Under a step budget some loops degrade to 'unknown (budget)';
    the degraded rows must still not depend on dispatch order."""
    items = [BatchItem(c.name, c.source)
             for c in generate_campaign(4, seed=seed)]
    options = AnalysisOptions(budget_steps=40)
    cold = _run(list(items), options, "arbitrary")
    warm_dir = tmp_path_factory.mktemp("budget")
    warm = _run(list(items), options, "topo", cache_dir=str(warm_dir))
    assert _verdict_rows(warm) == _verdict_rows(cold)
