"""Fleet-scale campaign benchmark: shared and private cache tiers.

Two configurations on a seeded caller-heavy campaign corpus (a routine
pool repeated across many driver programs — the workload where warm
summaries matter):

1. **Shared vs private tiers.** Two concurrent engine instances
   (threads, one corpus shard each) run against one shared SQLite tier,
   then against per-shard private disk caches.  The shared fleet must
   compute each pool routine once — fewer stores, cross-shard hits —
   and, when timed, finish faster.

2. **A worker pool.** A pool over the shared tier analyzes the corpus
   in its callers-first input order, the only dispatch order the engine
   has (docs/engine.md, "Dispatch order").

Verdicts must be bit-identical across every configuration, always.
Run modes::

    pytest benchmarks/bench_campaign.py --benchmark-only -s
    python benchmarks/bench_campaign.py --smoke               # CI check

``--smoke`` (and ``PANORAMA_BENCH_CHECK_ONLY=1``) shrink the corpus and
assert only verdict identity and cache-traffic shape, never wall-clock.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.dataflow import AnalysisOptions
from repro.driver.report import format_table
from repro.engine import BatchEngine, BatchItem
from repro.engine.campaign import generate_campaign, shard_items
from repro.kernels.synthetic import (
    make_call_chain,
    make_driver,
    make_heavy_routine,
)

CHECK_ONLY = bool(os.environ.get("PANORAMA_BENCH_CHECK_ONLY"))

SEED = 7
SHARDS = 2
POOL_JOBS = 4


def _corpus(count: int, families: int, apps_per_family: int, depth: int):
    """Caller-heavy corpus in adversarial callers-first order.

    The expensive providers are *call-chain families*
    (:func:`make_call_chain`): summarizing a chain head walks every
    link, so a caller that misses the warm tier pays the whole walk.
    Each family's apps are contiguous in the order, so a pool
    dispatches a whole wave of same-family callers cold.  A
    :func:`make_heavy_routine` cluster (loop-record-heavy rather than
    summary-heavy entries) and a seeded campaign corpus ride along for
    breadth.  Every consumer precedes every provider in the returned
    order.
    """
    consumers: list[BatchItem] = []
    providers: list[BatchItem] = []
    for f in range(families):
        prefix = f"CH{f:02d}X"
        src = make_call_chain(prefix, depth)
        providers.append(BatchItem(name=f"clib-{f:02d}", source=src))
        consumers += [
            BatchItem(
                name=f"capp-{f:02d}-{a}",
                source=make_driver(
                    f"CAPP{f}A{a}", [f"{prefix}0"], span=500, trips=20 + a
                )
                + src,
            )
            for a in range(apps_per_family)
        ]
    heavy = [
        (f"HVY{i}", make_heavy_routine(f"HVY{i}", blocks=max(2, depth - 2)))
        for i in range(2)
    ]
    heavy_src = "".join(s for _, s in heavy)
    providers += [BatchItem(name=f"hlib-{n}", source=s) for n, s in heavy]
    consumers += [
        BatchItem(
            name=f"happ-{k}",
            source=make_driver(
                f"HAPP{k}", [n for n, _ in heavy], trips=30 + k
            )
            + heavy_src,
        )
        for k in range(4)
    ]
    breadth = generate_campaign(count, seed=SEED, library_size=8)
    consumers += [i for i in breadth if not i.name.startswith("lib-")]
    providers = [
        i for i in breadth if i.name.startswith("lib-")
    ] + providers
    return consumers + providers


def _merged_verdicts(reports):
    merged: dict = {}
    for report in reports:
        merged.update(report.verdict_rows())
    return merged


def _run_fleet(items, cache_dirs, backend):
    """*SHARDS* concurrent engine instances, one per shard; returns
    (wall_ms, reports).  ``cache_dirs`` has one entry per shard (the
    same entry repeated = one shared tier)."""
    shards = [shard_items(items, i + 1, SHARDS) for i in range(SHARDS)]
    reports: list = [None] * SHARDS
    engines = [
        BatchEngine(
            AnalysisOptions(), cache_dir=cache_dirs[i], jobs=1,
            run_machine_model=False, cache_backend=backend,
        )
        for i in range(SHARDS)
    ]

    def work(i):
        reports[i] = engines[i].run(shards[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(SHARDS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    for engine in engines:
        engine.cache.close()
    return wall_ms, reports


def _run_pool(items, cache_dir):
    engine = BatchEngine(
        AnalysisOptions(), cache_dir=cache_dir, jobs=POOL_JOBS,
        run_machine_model=False, cache_backend="shared",
    )
    t0 = time.perf_counter()
    report = engine.run(items)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    engine.cache.close()
    return wall_ms, report


def _best_of(runs):
    """Min wall-clock over repeated fresh runs (noise suppression);
    reports come from the first repetition."""
    walls, first = [], None
    for run in runs:
        wall, result = run()
        walls.append(wall)
        if first is None:
            first = result
    return min(walls), first


def _run_benchmark(count: int | None = None) -> dict:
    if count is None:
        count = 12 if CHECK_ONLY else 24
    smoke = CHECK_ONLY or count <= 12
    if smoke:
        items = _corpus(count, families=4, apps_per_family=3, depth=6)
    else:
        items = _corpus(count, families=10, apps_per_family=5, depth=8)
    reps = 1 if smoke else 2
    root = tempfile.mkdtemp(prefix="panorama-bench-campaign-")
    try:
        # reference verdicts: plain sequential, no cache
        ref_engine = BatchEngine(
            AnalysisOptions(), jobs=1, run_machine_model=False
        )
        ref = ref_engine.run(list(items)).verdict_rows()

        # fresh cache directories per repetition: a rerun must be cold
        def fleet_shared(rep):
            return lambda: _run_fleet(
                items, [os.path.join(root, f"shared{rep}")] * SHARDS,
                "shared",
            )

        def fleet_private(rep):
            return lambda: _run_fleet(
                items,
                [os.path.join(root, f"priv{rep}-{i}")
                 for i in range(SHARDS)],
                "disk",
            )

        def pool(rep):
            return lambda: _run_pool(items, os.path.join(root, f"pool{rep}"))

        # --- comparison 1: shared tier vs per-shard private caches ----- #
        shared_ms, shared_reports = _best_of(
            [fleet_shared(r) for r in range(reps)]
        )
        private_ms, private_reports = _best_of(
            [fleet_private(r) for r in range(reps)]
        )

        # --- 2: a worker pool over the shared tier, in input order ---- #
        pool_ms, pool_report = _best_of([pool(r) for r in range(reps)])

        def fleet_cache(reports, attr):
            return sum(getattr(r.telemetry.cache, attr) for r in reports)

        return {
            "count": count,
            "ref": ref,
            "fleet": {
                "shared_ms": shared_ms,
                "private_ms": private_ms,
                "shared_verdicts": _merged_verdicts(shared_reports),
                "private_verdicts": _merged_verdicts(private_reports),
                "shared_stores": fleet_cache(shared_reports, "stores"),
                "private_stores": fleet_cache(private_reports, "stores"),
                "shared_hits": fleet_cache(shared_reports, "shared_hits"),
                "shared_ok": all(r.ok for r in shared_reports),
                "private_ok": all(r.ok for r in private_reports),
            },
            "pool": {
                "ms": pool_ms,
                "verdicts": pool_report.verdict_rows(),
                "stores": pool_report.telemetry.cache.stores,
                "shared_hits": pool_report.telemetry.cache.shared_hits,
                "ok": pool_report.ok,
            },
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _format(report: dict) -> str:
    fleet, pool = report["fleet"], report["pool"]
    rows = [
        [
            f"{SHARDS} engines, private disk tiers",
            f"{fleet['private_ms']:.0f}",
            str(fleet["private_stores"]),
            "-",
            "1.00x",
        ],
        [
            f"{SHARDS} engines, one shared tier",
            f"{fleet['shared_ms']:.0f}",
            str(fleet["shared_stores"]),
            str(fleet["shared_hits"]),
            f"{fleet['private_ms'] / max(fleet['shared_ms'], 1e-9):.2f}x",
        ],
        [
            f"pool x{POOL_JOBS}, shared tier (callers first)",
            f"{pool['ms']:.0f}",
            str(pool["stores"]),
            str(pool["shared_hits"]),
            "-",
        ],
    ]
    return format_table(
        ["configuration", "wall ms", "stores", "warm hits", "speedup"],
        rows,
        title=(
            f"Campaign fleet: {report['count']}-item caller-heavy corpus "
            f"(seed {SEED}), shared-vs-private tier and a worker pool"
        ),
    )


def _checks(report: dict, timed: bool) -> list[str]:
    """Failed-check messages (empty = pass)."""
    fleet, pool = report["fleet"], report["pool"]
    problems = []
    if not (fleet["shared_ok"] and fleet["private_ok"] and pool["ok"]):
        problems.append("a configuration reported item failures")
    for label, verdicts in (
        ("shared fleet", fleet["shared_verdicts"]),
        ("private fleet", fleet["private_verdicts"]),
        ("pool", pool["verdicts"]),
    ):
        if verdicts != report["ref"]:
            problems.append(f"{label}: verdicts differ from the reference")
    if fleet["shared_hits"] == 0:
        problems.append("shared tier never served a cross-engine hit")
    if fleet["shared_stores"] > fleet["private_stores"]:
        problems.append(
            "shared tier stored more than the private tiers "
            f"({fleet['shared_stores']} > {fleet['private_stores']})"
        )
    if timed:
        if fleet["shared_ms"] >= fleet["private_ms"]:
            problems.append(
                "shared tier not faster than private tiers "
                f"({fleet['shared_ms']:.0f}ms >= {fleet['private_ms']:.0f}ms)"
            )
    return problems


def test_campaign_fleet(benchmark):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    table = _format(report)
    from conftest import emit

    emit("campaign", table)
    problems = _checks(report, timed=False)
    assert not problems, table + "\n" + "\n".join(problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="check-only mode: assert verdict identity and cache-traffic "
        "shape on a small corpus, never wall-clock (CI-safe)",
    )
    parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="breadth-corpus size (default: 24, or 12 in smoke mode)",
    )
    args = parser.parse_args(argv)
    smoke = args.smoke or CHECK_ONLY
    count = args.count if args.count else (12 if smoke else 24)
    report = _run_benchmark(count)
    print(_format(report))
    problems = _checks(report, timed=not smoke)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print(
        ("smoke OK" if smoke else "OK") if not problems else "FAILED",
        file=sys.stderr,
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
