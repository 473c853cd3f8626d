"""Structured counters and the JSON serializers shared by the CLIs.

Two jobs:

* serialize pipeline results — :func:`loop_report_row` /
  :func:`result_to_dict` are the *single* machine-readable form of a
  verdict, used by ``panorama --json``, by ``panorama-batch``, and by
  the batch workers to ship results across process boundaries (dicts of
  primitives travel cheaply and diff cleanly, unlike pickled ASTs);
* roll analysis cost up — :class:`EngineTelemetry` aggregates per-file
  :class:`~repro.driver.panorama.StageTimings`,
  :class:`~repro.dataflow.context.AnalysisStats`, and
  :class:`~repro.engine.cache.CacheStats` into the ``--stats-json``
  export (the Figure 4 "analysis costs little" claim, at batch scale).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any

from ..dataflow.context import AnalysisStats
from ..driver.panorama import CompilationResult, LoopReport, StageTimings
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


def _constraint_backend() -> str:
    from ..symbolic.matrix import backend_name

    return backend_name()


# --------------------------------------------------------------------------- #
# serializers (shared by `panorama --json` and the batch engine)
# --------------------------------------------------------------------------- #


def loop_report_row(report: LoopReport) -> dict[str, Any]:
    """One loop verdict as a flat JSON-ready dict."""
    verdict = report.verdict
    row: dict[str, Any] = {
        "loop": report.loop_id(),
        "routine": report.routine,
        "var": report.var,
        "label": report.source_label,
        "lineno": report.lineno,
        "status": report.status.value,
        "parallel": report.parallel,
        "degraded": report.degraded,
        "used_dataflow": report.used_dataflow,
        "screen": report.screen.verdict.value,
        "privatized": list(verdict.privatized) if verdict else [],
        "reductions": list(verdict.reductions) if verdict else [],
        "inductions": list(verdict.inductions) if verdict else [],
        "scans": list(verdict.scans) if verdict else [],
        "serial_reasons": list(verdict.serial_reasons) if verdict else [],
        "schedule": report.schedule,
        "evidence": [dict(e) for e in report.evidence],
        # the privatizer's offending intersections for candidates that
        # failed the MOD_<i ∩ UE_i test (empty when nothing failed)
        "conflicts": verdict.conflicts() if verdict else {},
        "speedup": round(report.speedup, 4),
        "pct_sequential": round(report.pct_sequential, 4),
        "copy_out": [
            {"name": d.name, "needs_copy_out": d.needs_copy_out}
            for d in report.copy_out
        ],
    }
    return row


def result_to_dict(
    result: CompilationResult,
    name: str | None = None,
    audit: "Any | None" = None,
) -> dict[str, Any]:
    """A whole compilation result as a JSON-ready dict.

    *audit* is an optional :class:`~repro.audit.AuditReport`; when given
    its counters and diagnostics ride under the ``"audit"`` key (the
    form ``EngineTelemetry.note_result`` folds and the batch workers
    ship).
    """
    out: dict[str, Any] = {
        "loops": [loop_report_row(r) for r in result.loops],
        "parallel_loops": len(result.parallel_loops()),
        "timings": result.timings.as_dict(),
        "stats": result.analyzer.stats.as_dict(),
        # symbolic-kernel counter/cache deltas ride as their own key:
        # "stats" stays a flat int dict the roll-up can fold blindly
        "symbolic": dict(result.analyzer.stats.symbolic),
    }
    if audit is not None:
        out["audit"] = audit.to_payload()
    if name is not None:
        out["name"] = name
    return out


# --------------------------------------------------------------------------- #
# roll-ups
# --------------------------------------------------------------------------- #


@dataclass
class EngineTelemetry:
    """Aggregated counters for one batch/incremental engine run."""

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
    #: topology-scheduler counters (SchedulePlan.as_dict + topo_hits:
    #: cache hits landed by items that waited on a scheduled provider)
    sched: dict[str, Any] = field(
        default_factory=lambda: {
            "mode": "arbitrary",
            "edges": 0,
            "gated_items": 0,
            "cyclic_items": 0,
            "opaque_items": 0,
            "topo_hits": 0,
        }
    )
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
        out["constraint_backend"] = _constraint_backend()
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
