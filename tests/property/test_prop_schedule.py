"""Property test: dispatch order never changes verdicts.

Routine summaries are context-independent and keyed by content, so
the order a batch runs its items in only decides which item computes a
shared summary and which items are served it.  Whatever corpus the
generator draws and whatever budget pressure is applied, the verdict
rows of a batch run in reversed order over a durable tier must be
bit-identical to the same batch run in input order on the memory tier.
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


def _run(items, options, cache_dir=None):
    engine = BatchEngine(options, cache_dir=cache_dir, jobs=1,
                         run_machine_model=False)
    report = engine.run(items)
    engine.cache.close()
    return report


def _forward_and_reversed(tmp_path_factory, items, options):
    forward = _run(list(items), options)
    tier = tmp_path_factory.mktemp("order")
    backward = _run(list(reversed(items)), options, cache_dir=str(tier))
    return forward, backward


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=2, max_value=10))
def test_input_and_reversed_order_verdicts_bit_identical(tmp_path_factory,
                                                         seed, count):
    items = [BatchItem(c.name, c.source)
             for c in generate_campaign(count, seed=seed)]
    forward, backward = _forward_and_reversed(
        tmp_path_factory, items, AnalysisOptions()
    )
    assert _verdict_rows(backward) == _verdict_rows(forward)


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
    forward, backward = _forward_and_reversed(
        tmp_path_factory, items, AnalysisOptions(budget_steps=40)
    )
    assert _verdict_rows(backward) == _verdict_rows(forward)
