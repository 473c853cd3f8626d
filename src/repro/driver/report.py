"""Plain-text table formatting for the experiment harnesses."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..perf import profiler


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

    *stats* is an :class:`~repro.dataflow.context.AnalysisStats`;
    *timings* (optional) a :class:`~repro.driver.panorama.StageTimings`
    whose dataflow share contextualizes the counters; *cache_backend*
    (optional) names the active durable summary tier, leading the line
    the same way ``--profile`` leads with the constraint backend.
    """
    line = "analysis cost: "
    if cache_backend:
        line = f"cache backend: {cache_backend}\n" + line
    line += (
        f"{stats.nodes_visited} HSG nodes visited, "
        f"{stats.gar_ops} GAR ops, peak GAR list {stats.peak_gar_list}, "
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
    :class:`~repro.driver.panorama.StageTimings` stage table (when
    *timings* is given), the hot-path call counters and the per-cache
    hit/miss/eviction gauges of the ``repro.perf`` snapshot delta
    *symbolic*.
    """
    from ..symbolic.matrix import backend_name

    sections: list[str] = [f"constraint backend: {backend_name()}"]
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
