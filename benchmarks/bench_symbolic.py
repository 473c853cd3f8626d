"""Symbolic-kernel fast-path benchmark: warm-vs-cold proof caches.

Two workloads, both verdict-checked:

* a repeated-comparison microbenchmark — one :class:`Comparer` context
  asked the same family of ordered-comparison questions over and over,
  the shape the region operations produce during propagation.  Warm
  (populated memo tables) must beat cold (tables cleared every round)
  by at least 2x, with identical three-valued verdicts.
* an end-to-end sweep over the Perfect-kernel registry — a second
  compile sweep with warm interning/proof caches must not be slower
  than the cold sweep, and the per-loop verdict rows must be
  bit-identical (the caches are invisible to results by construction).

Runs two ways::

    pytest benchmarks/bench_symbolic.py --benchmark-only -s   # timed
    python benchmarks/bench_symbolic.py --smoke               # CI check

``--smoke`` asserts only verdict identity and cache effectiveness (hits
observed), never wall-clock — so the CI job cannot flake on a loaded
runner while still catching any cache that changes results.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro import Panorama
from repro.driver.report import format_table
from repro.driver.report import loop_report_row
from repro.kernels import KERNELS
from repro.perf import profiler
from repro.symbolic import Comparer, Predicate, Relation, SymExpr

from conftest import emit

#: microbenchmark rounds (cold pays full price each round)
ROUNDS = 30


# --------------------------------------------------------------------------- #
# repeated-comparison microbenchmark
# --------------------------------------------------------------------------- #


def _comparer_round() -> tuple:
    """One round of the repeated-comparison workload; returns verdicts."""
    n = SymExpr.var("n")
    m = SymExpr.var("m")
    i = SymExpr.var("i")
    j = SymExpr.var("j")
    context = (
        Predicate.ge(n, 1)
        & Predicate.le(i, n)
        & Predicate.ge(i, 1)
        & Predicate.le(j, m)
        & Predicate.ge(j, 1)
        & Predicate.le(m, n)
    )
    cmp = Comparer(context)
    exprs = [i, j, n, m, i + j, i + 1, n - i, m - j, i * 2, n + m]
    verdicts = []
    for a in exprs:
        for b in exprs:
            verdicts.append(cmp.le(a, b))
            verdicts.append(cmp.lt(a, b))
            verdicts.append(cmp.eq(a, b))
    # refinement chain: the guard-algebra shape from the region layers
    refined = cmp.refine(Predicate.le(i + 1, j))
    for a in exprs:
        verdicts.append(refined.le(a, n))
        verdicts.append(refined.prove(Relation.lt(i, j)))
    return tuple(verdicts)


def _time_comparer(warm: bool) -> tuple[float, tuple]:
    """Seconds for ROUNDS rounds; cold clears every cache each round."""
    profiler.clear_caches()
    if warm:
        _comparer_round()  # prime the tables outside the timed region
    verdicts = None
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        if not warm:
            profiler.clear_caches()
        verdicts = _comparer_round()
    return time.perf_counter() - t0, verdicts


# --------------------------------------------------------------------------- #
# end-to-end kernel sweep
# --------------------------------------------------------------------------- #


def _kernel_sweep() -> tuple[float, list[dict]]:
    """Compile every distinct kernel source; wall seconds + verdict rows."""
    seen: set[str] = set()
    rows: list[dict] = []
    t0 = time.perf_counter()
    for kernel in KERNELS:
        if kernel.source in seen:
            continue
        seen.add(kernel.source)
        result = Panorama(sizes=kernel.sizes).compile(kernel.source)
        rows.extend(loop_report_row(r) for r in result.loops)
    return time.perf_counter() - t0, rows


def _run_benchmark() -> dict:
    cold_s, cold_verdicts = _time_comparer(warm=False)
    warm_s, warm_verdicts = _time_comparer(warm=True)

    profiler.clear_caches()
    before = profiler.snapshot()
    sweep_cold_s, sweep_cold_rows = _kernel_sweep()
    sweep_warm_s, sweep_warm_rows = _kernel_sweep()
    cache_delta = profiler.delta(before, profiler.snapshot())
    hits = sum(
        v for k, v in cache_delta.items()
        if k.startswith("cache.") and k.endswith(".hits")
    )
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / max(warm_s, 1e-9),
        "verdicts_identical": cold_verdicts == warm_verdicts,
        "sweep_cold_s": sweep_cold_s,
        "sweep_warm_s": sweep_warm_s,
        "sweep_speedup": sweep_cold_s / max(sweep_warm_s, 1e-9),
        "sweep_identical": json.dumps(sweep_cold_rows, sort_keys=True)
        == json.dumps(sweep_warm_rows, sort_keys=True),
        "loops": len(sweep_cold_rows),
        "cache_hits": int(hits),
    }


def _format(report: dict) -> str:
    rows = [
        [
            "Comparer microbenchmark",
            f"{report['cold_s'] * 1000:.1f}",
            f"{report['warm_s'] * 1000:.1f}",
            f"{report['speedup']:.2f}x",
            "yes" if report["verdicts_identical"] else "NO",
        ],
        [
            f"kernel sweep ({report['loops']} loops)",
            f"{report['sweep_cold_s'] * 1000:.1f}",
            f"{report['sweep_warm_s'] * 1000:.1f}",
            f"{report['sweep_speedup']:.2f}x",
            "yes" if report["sweep_identical"] else "NO",
        ],
    ]
    return format_table(
        ["workload", "cold ms", "warm ms", "speedup", "verdicts identical"],
        rows,
        title="Symbolic fast path: warm vs. cold proof/interning caches",
    )


def test_symbolic_fast_path(benchmark):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    table = _format(report)
    emit("symbolic", table)
    assert report["verdicts_identical"], table
    assert report["sweep_identical"], table
    assert report["cache_hits"] > 0, table
    # the acceptance bar: repeated comparisons at least 2x faster warm
    assert report["speedup"] >= 2.0, table
    # end-to-end: a warm sweep must not lose to a cold one
    assert report["sweep_warm_s"] <= report["sweep_cold_s"] * 1.10, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="check-only mode: assert verdict identity and cache hits, "
        "never wall-clock (CI-safe)",
    )
    args = parser.parse_args(argv)
    report = _run_benchmark()
    print(_format(report))
    ok = (
        report["verdicts_identical"]
        and report["sweep_identical"]
        and report["cache_hits"] > 0
    )
    if not args.smoke:
        ok = ok and report["speedup"] >= 2.0
    print(
        "smoke OK" if args.smoke and ok else
        ("OK" if ok else "FAILED"),
        file=sys.stderr,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
