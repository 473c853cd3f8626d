"""Integration test: memo-table bounds never change a verdict.

Every symbolic memo table is evicted in insertion order, and equality
falls back to structure when eviction leaves two equal objects alive.
Bounding every table at 64 entries makes the registry and frontier
sweeps evict thousands of times; their verdict rows must not move.
"""

from __future__ import annotations

from repro import Panorama
from repro.driver.report import loop_report_row
from repro.kernels import FRONTIER_KERNELS, KERNELS
from repro.perf import profiler

from tests.conftest import all_caches_bounded


def _inputs():
    programs = {}
    for kernel in KERNELS:
        programs.setdefault(kernel.program, (kernel.source, kernel.sizes))
    for kernel in FRONTIER_KERNELS:
        programs[kernel.name] = (kernel.source, {})
    return programs


def _rows() -> dict[str, list[dict]]:
    profiler.clear_caches()
    return {
        name: [
            loop_report_row(r)
            for r in Panorama(sizes=sizes).compile(source).loops
        ]
        for name, (source, sizes) in _inputs().items()
    }


def test_tiny_cache_bounds_keep_verdict_rows():
    reference = _rows()
    with all_caches_bounded(64):
        before = profiler.snapshot()
        bounded = _rows()
        moved = profiler.delta(before, profiler.snapshot())
    evictions = sum(v for k, v in moved.items() if k.endswith(".evictions"))
    assert evictions > 1000
    assert bounded == reference
