"""The engine's roll-up of analysis cost.

:class:`EngineTelemetry` aggregates per-file
:class:`~repro.driver.hooks.StageTimings`,
:class:`~repro.dataflow.options.AnalysisStats`, and
:class:`~repro.engine.cache.CacheStats` into the ``--stats-json`` export
(the Figure 4 "analysis costs little" claim, at batch scale).

The JSON serializers of a verdict live in :mod:`repro.driver.report`;
this module keeps their names only because the benchmark harness
(``perfbench/``) wraps and imports them here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any

from ..dataflow.options import AnalysisStats
from ..driver.hooks import StageTimings
from ..driver.report import loop_report_row, result_to_dict
from ..perf import profiler
from .cache import CacheStats

#: the batch supervisor's counters (``BatchEngine.supervision``), the
#: first five of :attr:`EngineTelemetry.resilience`
SUPERVISION_COUNTERS = (
    "retries",
    "timeouts",
    "worker_crashes",
    "pool_rebuilds",
    "quarantined",
)


@dataclass
class EngineTelemetry:
    """Aggregated counters for one engine run (``panorama-batch``,
    ``panorama-campaign``, or the daemon's lifetime)."""

    files: int = 0
    errors: int = 0
    loops: int = 0
    parallel_loops: int = 0
    timings: dict[str, float] = field(
        default_factory=lambda: StageTimings().as_dict()
    )
    stats: dict[str, int] = field(
        default_factory=lambda: AnalysisStats().as_dict()
    )
    #: resilience counters (batch-engine supervision, section
    #: "degradation ladder" of docs/robustness.md)
    resilience: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            SUPERVISION_COUNTERS
            + ("degraded_items", "degraded_loops", "resumed_items"),
            0,
        )
    )
    #: static-audit counters (docs/auditing.md), folded from per-item
    #: ``"audit"`` payloads; all zero when the audit did not run
    audit: dict[str, int] = field(
        default_factory=lambda: {
            "audited_files": 0,
            "loops_audited": 0,
            "pairs_checked": 0,
            "confirmed": 0,
            "guarded": 0,
            "undecided": 0,
            "skipped": 0,
            "evidence_replay": 0,
            "evidence_unsupported": 0,
            "oracle_conflicts": 0,
            "lint": 0,
            "sanitizer": 0,
        }
    )
    cache: CacheStats = field(default_factory=CacheStats)
    #: symbolic-kernel counter/cache deltas summed across results (flat
    #: ``repro.perf`` snapshot keys → numbers)
    symbolic: dict[str, float] = field(default_factory=dict)
    #: wall-clock seconds of the whole batch (not the sum of workers)
    wall_seconds: float = 0.0
    jobs: int = 1
    #: durable cache tier this run wrote through ("memory"/"disk"/"shared")
    cache_backend: str = "memory"
    #: campaign provenance (seed, generator version, shard) — empty for
    #: plain batch runs; filled by repro.engine.campaign
    campaign: dict[str, Any] = field(default_factory=dict)
    #: verdict histogram: per-loop status values → counts
    verdicts: dict[str, int] = field(default_factory=dict)
    #: True when a drain request or interrupt stopped the run early
    #: (exit code 5; see docs/robustness.md "Crash safety & resume")
    interrupted: bool = False

    def note_result(self, payload: dict[str, Any]) -> None:
        """Fold one serialized compilation result into the roll-up."""
        self.files += 1
        rows = payload.get("loops", [])
        self.loops += len(rows)
        self.parallel_loops += sum(1 for r in rows if r.get("parallel"))
        for r in rows:
            status = r.get("status", "unknown")
            self.verdicts[status] = self.verdicts.get(status, 0) + 1
        self.resilience["degraded_loops"] += sum(
            1 for r in rows if r.get("degraded")
        )
        profiler.merge(self.timings, payload.get("timings", {}))
        profiler.merge(self.stats, payload.get("stats", {}))
        profiler.merge(self.symbolic, payload.get("symbolic", {}))
        audit = payload.get("audit")
        if audit is not None:
            self.audit["audited_files"] += 1
            profiler.merge(self.audit, audit.get("counts", {}))

    def note_cache(self, stats: CacheStats) -> None:
        """Fold one worker's cache counters into the roll-up."""
        self.cache.merge(stats)

    def as_dict(self) -> dict[str, Any]:
        """The ``--stats-json`` export: every field (dicts copied, the
        cache counters as a dict) plus the constraint backend."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        out["cache"] = self.cache.as_dict()
        out["constraint_backend"] = profiler.CONSTRAINT_BACKEND
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write_json(self, path) -> None:
        """Write the ``--stats-json`` export."""
        from pathlib import Path

        Path(path).write_text(self.to_json() + "\n")

    def summary_line(self) -> str:
        """One-line human-readable roll-up."""
        c = self.cache
        return (
            f"{self.files} file(s), {self.loops} loops "
            f"({self.parallel_loops} parallel) in {self.wall_seconds:.2f}s "
            f"wall [{self.jobs} job(s)]; cache[{self.cache_backend}]: "
            f"{c.result_hits} item(s) served whole, "
            f"{c.hits} hit(s), {c.misses} miss(es), "
            f"{c.evictions} eviction(s)"
        )
