"""Constraint-core benchmark: the production FM path against its reference.

Two workloads, each decided by the production matrix path
(:mod:`repro.symbolic.matrix`, through ``definitely_unsat``) and by the
object-layer reference eliminator (``fourier_motzkin._unsat_object``),
with verdicts required to be identical:

* an FM-heavy microbenchmark — dense ordered systems whose elimination
  cost dwarfs expression plumbing, the shape the matrix core exists for;
* a batched-query workload through :func:`definitely_unsat_many` — the
  entry the region ops and the Comparer use.

Per-loop verdict rows of the Perfect registry are checked by the
``perfbench`` harness, not here.

Runs two ways::

    pytest benchmarks/bench_constraints.py --benchmark-only -s   # timed
    python benchmarks/bench_constraints.py --smoke               # CI check

``--smoke`` (and ``PANORAMA_BENCH_CHECK_ONLY=1``) assert only verdict
identity — never wall-clock — so the CI job cannot flake on a loaded
runner while still catching a production path that changes results.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.driver.report import format_table
from repro.symbolic import Relation, SymExpr, definitely_unsat_many
from repro.symbolic import fourier_motzkin as fm

CHECK_ONLY = bool(os.environ.get("PANORAMA_BENCH_CHECK_ONLY"))

#: FM-heavy rounds (distinct systems, so memo tables never help)
FM_ROUNDS = 12 if CHECK_ONLY else 40


def _dense_atoms(n: int, off: int) -> list:
    """A dense ordered system over n variables (all-pairs orderings,
    bounds, and a closing cycle making it infeasible)."""
    vs = [SymExpr.var(f"i{k}") for k in range(n)]
    atoms = []
    for k in range(n - 1):
        atoms.append(Relation.le(vs[k] + 1, vs[k + 1]))
    for k in range(n):
        atoms.append(Relation.le(SymExpr.const(off), vs[k]))
        atoms.append(Relation.le(vs[k], SymExpr.const(off + 100)))
    for a in range(n):
        for b in range(a + 1, n):
            atoms.append(Relation.le(vs[a], vs[b] + (b - a)))
    atoms.append(Relation.le(vs[-1] + 1, vs[0]))
    return atoms


def _production(atoms) -> bool:
    fm._UNSAT_CACHE._data.clear()
    return fm.definitely_unsat(atoms)


def _fm_heavy(decide) -> tuple[float, tuple]:
    """Seconds + verdicts for FM_ROUNDS dense eliminations (uncached)."""
    systems = [
        _dense_atoms(n, 1000 * n + rep)
        for rep in range(FM_ROUNDS)
        for n in (8, 12, 16)
    ]
    t0 = time.perf_counter()
    verdicts = tuple(decide(atoms) for atoms in systems)
    return time.perf_counter() - t0, verdicts


def _batched(decide_many) -> tuple[float, tuple]:
    """Seconds + verdicts for one batch submission of dense systems."""
    systems = [
        _dense_atoms(n, -1000 * n - rep)
        for rep in range(FM_ROUNDS)
        for n in (6, 9)
    ]
    fm._UNSAT_CACHE._data.clear()
    t0 = time.perf_counter()
    verdicts = tuple(decide_many(systems))
    return time.perf_counter() - t0, verdicts


def _run_path(name: str, decide, decide_many) -> dict:
    fm_s, fm_verdicts = _fm_heavy(decide)
    batch_s, batch_verdicts = _batched(decide_many)
    return {
        "path": name,
        "fm_s": fm_s,
        "fm_verdicts": fm_verdicts,
        "batch_s": batch_s,
        "batch_verdicts": batch_verdicts,
    }


def _run_benchmark() -> dict:
    production = _run_path("production", _production, definitely_unsat_many)
    reference = _run_path(
        "reference",
        fm._unsat_object,
        lambda systems: [fm._unsat_object(s) for s in systems],
    )
    identical = (
        production["fm_verdicts"] == reference["fm_verdicts"]
        and production["batch_verdicts"] == reference["batch_verdicts"]
    )
    return {"reports": [production, reference], "identical": identical}


def _format(report: dict) -> str:
    production, reference = report["reports"]
    rows = [
        [
            r["path"],
            f"{r['fm_s'] * 1000:.1f}",
            f"{reference['fm_s'] / max(r['fm_s'], 1e-9):.2f}x",
            f"{r['batch_s'] * 1000:.1f}",
        ]
        for r in report["reports"]
    ]
    return format_table(
        ["path", "fm-heavy ms", "vs reference", "batched ms"],
        rows,
        title=(
            f"Constraint core: {len(production['fm_verdicts'])} FM-heavy + "
            f"{len(production['batch_verdicts'])} batched systems, "
            f"verdicts identical: {'yes' if report['identical'] else 'NO'}"
        ),
    )


def _checks(report: dict, timed: bool) -> list[str]:
    """Failed-check messages (empty = pass)."""
    problems = []
    if not report["identical"]:
        problems.append("production verdicts differ from the reference")
    if timed:
        production, reference = report["reports"]
        if production["fm_s"] > reference["fm_s"]:
            problems.append("production path slower than the reference")
    return problems


def test_constraint_core(benchmark):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    table = _format(report)
    from conftest import emit

    emit("constraints", table)
    problems = _checks(report, timed=False)
    assert not problems, table + "\n" + "\n".join(problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="check-only mode: assert production/reference verdict "
        "identity, never wall-clock (CI-safe)",
    )
    args = parser.parse_args(argv)
    report = _run_benchmark()
    print(_format(report))
    problems = _checks(report, timed=not (args.smoke or CHECK_ONLY))
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print(
        ("smoke OK" if args.smoke or CHECK_ONLY else "OK")
        if not problems
        else "FAILED",
        file=sys.stderr,
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
