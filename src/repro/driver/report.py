"""The pipeline's output forms: plain-text tables and JSON rows.

:func:`loop_report_row` and :func:`result_to_dict` are the *single*
machine-readable form of a verdict: ``panorama --json`` prints it, the
batch workers ship it across process boundaries (dicts of primitives
travel cheaply and diff cleanly, unlike pickled ASTs), and the daemon
answers with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..perf import profiler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .panorama import CompilationResult, LoopReport


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Monospace table with auto-sized columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(
            " | ".join(
                cell.ljust(w) for cell, w in zip(row, widths)
            )
        )
    return "\n".join(lines)


def yes_no(flag: bool) -> str:
    """Render a flag as ``"Yes"``/``"No"``."""
    return "Yes" if flag else "No"


def format_stats(stats, timings=None, cache_backend=None) -> str:
    """One-line rendering of the analyzer's cost counters.

    *stats* is an :class:`~repro.dataflow.options.AnalysisStats`;
    *timings* (optional) a :class:`~repro.driver.hooks.StageTimings`
    whose dataflow share contextualizes the counters; *cache_backend*
    (optional) names the active durable summary tier, leading the line
    the same way ``--profile`` leads with the constraint backend.
    """
    line = "analysis cost: "
    if cache_backend:
        line = f"cache backend: {cache_backend}\n" + line
    line += (
        f"{stats.nodes_visited} HSG nodes visited, "
        f"peak GAR list {stats.peak_gar_list}, "
        f"{stats.routines_summarized} routine / "
        f"{stats.loops_summarized} loop summaries"
    )
    if timings is not None and timings.total > 0:
        share = timings.dataflow / timings.total * 100.0
        line += f" ({share:.0f}% of time in dataflow)"
    symbolic = getattr(stats, "symbolic", None)
    rate = profiler.hit_rate(symbolic) if symbolic else None
    if rate is not None:
        proves = symbolic.get("counter.prove_calls", 0)
        line += (
            f"; symbolic caches: {rate * 100.0:.0f}% hit rate, "
            f"{int(proves)} prove call(s)"
        )
    return line


def format_perf(symbolic: dict, timings=None) -> str:
    """Render one compile's metrics (``--profile`` output).

    Three sections after the constraint backend: the
    :class:`~repro.driver.hooks.StageTimings` stage table (when
    *timings* is given), the hot-path call counters and the per-cache
    hit/miss/eviction gauges of the ``repro.perf`` snapshot delta
    *symbolic*.
    """
    sections: list[str] = [f"constraint backend: {profiler.CONSTRAINT_BACKEND}"]
    if timings is not None:
        stages = timings.as_dict()
        total = stages["total"]
        rows = [
            (
                stage,
                f"{seconds * 1000:.1f}",
                f"{seconds / total * 100.0:.0f}%" if total else "-",
            )
            for stage, seconds in stages.items()
        ]
        sections.append(
            format_table(["stage", "ms", "share"], rows, title="stage timings")
        )
    counters = sorted(k for k in symbolic if k.startswith("counter."))
    if counters:
        rows = [(k.split(".", 1)[1], int(symbolic[k])) for k in counters]
        sections.append(
            format_table(["counter", "count"], rows, title="hot-path counters")
        )
    # cache names themselves contain dots ("monomial.intern"), so strip
    # the "cache." prefix and the final ".hits"/".misses"/… component
    names = sorted(
        {k[6:].rsplit(".", 1)[0] for k in symbolic if k.startswith("cache.")}
    )
    if names:
        rows = []
        for n in names:
            hits = int(symbolic.get(f"cache.{n}.hits", 0))
            misses = int(symbolic.get(f"cache.{n}.misses", 0))
            total = hits + misses
            rate = f"{hits / total * 100.0:.0f}%" if total else "-"
            rows.append(
                (n, hits, misses, int(symbolic.get(f"cache.{n}.evictions", 0)), rate)
            )
        sections.append(
            format_table(
                ["cache", "hits", "misses", "evictions", "hit rate"],
                rows,
                title="symbolic caches",
            )
        )
    if len(sections) == 1:
        return sections[0] + "\nno profiling data recorded"
    return "\n\n".join(sections)


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
