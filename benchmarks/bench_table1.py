"""Table 1 reproduction: loops parallelized by array privatization.

Regenerates every column of the paper's Table 1 for the twelve
Perfect-loop kernels:

* loop speedup (our machine model vs the paper's Alliant FX/8 numbers),
* percent of sequential execution time,
* the T1/T2/T3 technique requirements (by ablation).

The timed portion is the full analysis of all five kernel programs.
"""

from __future__ import annotations

import pytest

from repro import AnalysisOptions, Panorama
from repro.driver.report import format_table
from repro.kernels import KERNELS
from repro.parallelize import LoopStatus

from conftest import emit


def _compile_all():
    results = {}
    for kernel in KERNELS:
        if kernel.source not in results:
            results[kernel.source] = Panorama(sizes=kernel.sizes).compile(
                kernel.source
            )
    return results


def _techniques_needed(kernel) -> list[str]:
    needed = []
    for technique in ("T1", "T2", "T3"):
        result = Panorama(
            AnalysisOptions.from_flags(ablate=[technique]), run_machine_model=False
        ).compile(kernel.source)
        report = result.loop(kernel.routine, kernel.loop_label)
        priv = report.verdict.privatization if report.verdict else None
        ok = bool(priv) and all(
            any(v.name == n and v.privatizable for v in priv.verdicts)
            for n in kernel.privatizable
        )
        needed.append("No" if ok else "Yes")
    return needed


def test_table1(benchmark):
    results = benchmark(_compile_all)
    from repro.machine import MachineModel

    machine = MachineModel()
    rows = []
    matches = 0
    for kernel in KERNELS:
        result = results[kernel.source]
        report = result.loop(kernel.routine, kernel.loop_label)
        status = report.verdict.status_modulo(
            frozenset(kernel.not_privatizable)
        )
        t1, t2, t3 = _techniques_needed(kernel)
        expected = ["Yes" if t in kernel.techniques else "No"
                    for t in ("T1", "T2", "T3")]
        ok = [t1, t2, t3] == expected and status is not LoopStatus.SERIAL
        matches += ok
        # speedup of the loop once its designated arrays are privatized
        # (MDG interf needs RL privatized by hand, as in the paper)
        speedup = report.speedup
        if status is not LoopStatus.SERIAL and report.cost is not None:
            speedup = machine.loop_speedup(report.cost)
        rows.append(
            [
                kernel.program,
                kernel.loop_id,
                f"{speedup:.1f}",
                f"{kernel.paper_speedup:.1f}"
                + ("*" if kernel.speedup_estimated else ""),
                f"{report.pct_sequential:.0f}%",
                f"{kernel.paper_pct_seq:.0f}%",
                t1,
                t2,
                t3,
                "/".join(expected),
                "ok" if ok else "MISMATCH",
            ]
        )
    table = format_table(
        ["program", "loop", "spdup", "paper", "%seq", "paper",
         "T1", "T2", "T3", "paper T1/T2/T3", ""],
        rows,
        title="Table 1: loops parallel after privatization "
        "(speedups: 8-CPU machine model; * = paper value is an estimate)",
    )
    emit("table1", table)
    assert matches == len(KERNELS), table


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.full_id)
def test_loop_analysis_time(benchmark, kernel):
    """Per-kernel analysis cost (parse + HSG + dataflow + verdicts)."""
    panorama = Panorama(sizes=kernel.sizes, run_machine_model=False)
    result = benchmark(panorama.compile, kernel.source)
    report = result.loop(kernel.routine, kernel.loop_label)
    assert report.verdict is not None
