"""Parallel speedup estimation — an Alliant FX/8-like machine model.

The paper measures (or, for ARC2D, estimates) per-loop speedups on an
8-processor Alliant FX/8 whose CPUs carry vector units.  This model
reproduces the *shape* of those numbers:

* a parallelized loop spreads its iterations over ``processors`` CPUs;
* an iteration whose body is a vectorizable inner loop (straight-line
  array operations) gains an extra ``vector_factor`` on each CPU — this is
  how the paper's TRFD loops exceed the processor count (16.4 on 8 CPUs);
* per-invocation startup and per-iteration synchronization overheads bound
  the achievable speedup for small loops (ARC2D's 3.0–4.0 figures).
"""

from __future__ import annotations

from dataclasses import dataclass

from .costmodel import LoopCost


@dataclass(frozen=True)
class MachineModel:
    """An idealized bus-based shared-memory multiprocessor."""

    processors: int = 8
    #: extra per-CPU speedup when the parallel iteration body vectorizes
    vector_factor: float = 2.6
    #: fraction of each iteration that resists vectorization
    vector_serial_fraction: float = 0.08
    #: cost of forking/joining a parallel loop, in model cost units
    startup_cost: float = 120.0
    #: per-iteration scheduling overhead
    sync_cost: float = 0.6
    #: memory-bus contention efficiency per added processor
    efficiency: float = 0.97

    def effective_processors(self, trips: float) -> float:
        """Usable parallelism for a given trip count."""
        p = min(float(self.processors), max(trips, 1.0))
        # bus contention: each additional CPU contributes a bit less
        total = 0.0
        gain = 1.0
        for _ in range(int(p)):
            total += gain
            gain *= self.efficiency
        frac = p - int(p)
        total += gain * frac
        return max(total, 1.0)

    def vector_gain(self, loop: LoopCost) -> float:
        """Per-CPU gain from the vector units, when eligible."""
        if not loop.vectorizable_inner:
            return 1.0
        f = self.vector_serial_fraction
        return 1.0 / (f + (1.0 - f) / self.vector_factor)

    def loop_speedup(self, loop: LoopCost) -> float:
        """Estimated speedup of the parallelized loop over its serial run."""
        serial = loop.total_cost
        if serial <= 0:
            return 1.0
        p_eff = self.effective_processors(loop.trips)
        v = self.vector_gain(loop)
        parallel_compute = serial / (p_eff * v)
        parallel = parallel_compute + self.startup_cost + self.sync_cost * (
            loop.trips / max(p_eff, 1.0)
        )
        return max(serial / parallel, 1.0)

    def scan_speedup(self, loop: LoopCost) -> float:
        """Estimated speedup of a loop run under the two-pass scan
        schedule (chunk partials, then finalize with incoming prefixes).

        Each element is touched twice, the inter-chunk combine is a
        second fork/join, and the combine itself is a short serial
        ladder over the chunk summaries — so the scan ceiling is about
        half the plain parallel-DO ceiling, matching the classic
        ``2n/p + p`` work bound of block-wise prefix computation.
        """
        serial = loop.total_cost
        if serial <= 0:
            return 1.0
        p_eff = self.effective_processors(loop.trips)
        v = self.vector_gain(loop)
        two_pass_compute = 2.0 * serial / (p_eff * v)
        combine = self.sync_cost * p_eff  # serial chunk-summary ladder
        parallel = (
            two_pass_compute
            + 2.0 * self.startup_cost
            + combine
            + self.sync_cost * (loop.trips / max(p_eff, 1.0))
        )
        return max(serial / parallel, 1.0)
