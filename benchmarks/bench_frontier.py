"""Frontier-pass benchmark: upgrades, audit replay, and off-mode parity.

Three workloads (docs/frontier.md):

* the **frontier kernel scoreboard** — every `FRONTIER_KERNELS` loop
  must upgrade from its serial off-verdict to its parallel on-verdict,
  carry at least one evidence record, and audit clean (zero `PAN105`
  replay failures, zero `PAN305` unsupported records);
* **off-mode parity** — with the pass disabled the kernel verdicts fall
  back exactly, and two off-runs serialize bit-identically (nothing
  about the pass leaks into off-mode rows);
* a **Perfect-registry sweep** on and off — the paper kernels must be
  untouched by the toggle (identical per-loop rows), bounding the
  pass's analysis-time overhead on sources it cannot help.

Runs two ways::

    pytest benchmarks/bench_frontier.py --benchmark-only -s   # timed
    python benchmarks/bench_frontier.py --smoke               # CI check

``--smoke`` (and ``PANORAMA_BENCH_CHECK_ONLY=1``) assert only verdicts,
evidence, and audit cleanliness — never wall-clock — so the CI job
cannot flake on a loaded runner while still catching any change that
breaks an upgrade or its evidence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro import Panorama
from repro.audit import audit_compilation
from repro.dataflow import AnalysisOptions
from repro.driver.report import format_table
from repro.driver.report import loop_report_row
from repro.kernels import FRONTIER_KERNELS, KERNELS

CHECK_ONLY = bool(os.environ.get("PANORAMA_BENCH_CHECK_ONLY"))

ON = AnalysisOptions(frontier=True)
OFF = AnalysisOptions(frontier=False)


def _kernel_rows() -> tuple[float, list[dict]]:
    """Per-kernel scoreboard rows + wall seconds for the on+off compiles."""
    rows = []
    t0 = time.perf_counter()
    for kernel in FRONTIER_KERNELS:
        on = Panorama(ON, run_machine_model=False).compile(kernel.source)
        off = Panorama(OFF, run_machine_model=False).compile(kernel.source)
        on_report = kernel.target_report(on)
        off_report = kernel.target_report(off)
        audit = audit_compilation(on, kernel.name, source=kernel.source)
        counts = audit.counts()
        off_rows_a = [loop_report_row(r) for r in off.loops]
        off_rows_b = [
            loop_report_row(r)
            for r in Panorama(OFF, run_machine_model=False)
            .compile(kernel.source)
            .loops
        ]
        rows.append(
            {
                "kernel": kernel.name,
                "off": off_report.status.value,
                "on": on_report.status.value,
                "expect_off": kernel.expect_off,
                "expect_on": kernel.expect_on,
                "evidence": len(on_report.evidence),
                "schedule": on_report.schedule or "-",
                "audit_errors": len(audit.errors()),
                "replay_failures": counts["evidence_replay"]
                + counts["evidence_unsupported"],
                "upgrades": on.analyzer.stats.frontier_upgrades,
                "off_stable": json.dumps(off_rows_a, sort_keys=True)
                == json.dumps(off_rows_b, sort_keys=True),
            }
        )
    return time.perf_counter() - t0, rows


def _registry_sweep(options: AnalysisOptions) -> tuple[float, list[dict]]:
    """Compile every distinct Perfect kernel; wall seconds + loop rows."""
    seen: set[str] = set()
    rows: list[dict] = []
    t0 = time.perf_counter()
    for kernel in KERNELS:
        if kernel.source in seen:
            continue
        seen.add(kernel.source)
        result = Panorama(options, run_machine_model=False).compile(
            kernel.source
        )
        rows.extend(loop_report_row(r) for r in result.loops)
    return time.perf_counter() - t0, rows


def _run_benchmark() -> dict:
    kernels_s, rows = _kernel_rows()
    reg_on_s, reg_on = _registry_sweep(ON)
    reg_off_s, reg_off = _registry_sweep(OFF)
    return {
        "rows": rows,
        "kernels_s": kernels_s,
        "registry_on_s": reg_on_s,
        "registry_off_s": reg_off_s,
        "registry_identical": json.dumps(reg_on, sort_keys=True)
        == json.dumps(reg_off, sort_keys=True),
        "registry_loops": len(reg_on),
    }


def _format(report: dict) -> str:
    rows = [
        [
            r["kernel"],
            r["off"],
            r["on"],
            str(r["evidence"]),
            r["schedule"],
            str(r["replay_failures"]),
        ]
        for r in report["rows"]
    ]
    upgraded = sum(1 for r in report["rows"] if r["on"] != r["off"])
    table = format_table(
        ["kernel", "frontier off", "frontier on", "evidence", "schedule",
         "replay failures"],
        rows,
        title=(
            f"Frontier scoreboard: {upgraded}/{len(rows)} upgraded; "
            f"registry untouched: "
            f"{'yes' if report['registry_identical'] else 'NO'} "
            f"({report['registry_loops']} loops, "
            f"on {report['registry_on_s'] * 1000:.0f} ms / "
            f"off {report['registry_off_s'] * 1000:.0f} ms)"
        ),
    )
    return table


def _checks(report: dict, timed: bool) -> list[str]:
    """Failed-check messages (empty = pass)."""
    problems = []
    for r in report["rows"]:
        if r["on"] != r["expect_on"]:
            problems.append(
                f"{r['kernel']}: frontier-on verdict {r['on']!r} != "
                f"expected {r['expect_on']!r}"
            )
        if r["off"] != r["expect_off"]:
            problems.append(
                f"{r['kernel']}: frontier-off verdict {r['off']!r} != "
                f"expected {r['expect_off']!r}"
            )
        if r["evidence"] < 1:
            problems.append(f"{r['kernel']}: upgraded without evidence")
        if r["audit_errors"] or r["replay_failures"]:
            problems.append(
                f"{r['kernel']}: audit not clean "
                f"({r['audit_errors']} errors, "
                f"{r['replay_failures']} replay failures)"
            )
        if not r["off_stable"]:
            problems.append(f"{r['kernel']}: off-mode rows not bit-stable")
    upgraded = sum(1 for r in report["rows"] if r["on"] != r["off"])
    if upgraded < 4:
        problems.append(f"only {upgraded} kernels upgraded (need >= 4)")
    if not report["registry_identical"]:
        problems.append("frontier toggle changed Perfect-registry rows")
    if timed:
        ratio = report["registry_on_s"] / max(report["registry_off_s"], 1e-9)
        if ratio > 5.0:
            problems.append(
                f"frontier overhead on the registry is {ratio:.1f}x "
                "(budget: 5x)"
            )
    return problems


def test_frontier(benchmark):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    table = _format(report)
    from conftest import emit

    emit("frontier", table)
    problems = _checks(report, timed=False)
    assert not problems, table + "\n" + "\n".join(problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="check-only mode: assert upgrades, evidence, audit "
        "cleanliness, and off-mode parity, never wall-clock (CI-safe)",
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
