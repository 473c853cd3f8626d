"""The seams between the pipeline and the layers above it.

:class:`StageTimings` is the pipeline's per-stage clock reading, and
:class:`PipelineHooks` (with :class:`CompositeHooks`) is how the batch
engine and the daemon ride a compile.  They live apart from
:mod:`repro.driver.panorama` so that the engine can declare its hooks
and roll up timings without loading any analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.analyzer import SummaryAnalyzer
    from ..hsg.builder import HSG
    from .panorama import CompilationResult, LoopReport


@dataclass
class StageTimings:
    """Per-stage wall-clock seconds (Figure 4 instrumentation).

    The stages run back to back from parse to the machine model (see
    ``_LapClock`` in :mod:`repro.driver.panorama`); only pipeline hooks
    and the counter snapshots fall outside them.
    """

    parse: float = 0.0
    frontend: float = 0.0  # semantics + call graph + HSG
    #: per-loop context setup and the conventional dependence screen
    conventional: float = 0.0
    #: analyzer construction, content inference, SUM_*/classification
    #: and evidence attachment
    dataflow: float = 0.0
    machine: float = 0.0

    @property
    def total(self) -> float:
        return sum(getattr(self, name) for name in _STAGES)

    def as_dict(self) -> dict[str, float]:
        """The JSON view: every stage in seconds, plus ``total``."""
        out = {name: getattr(self, name) for name in _STAGES}
        out["total"] = self.total
        return out


#: the stage names, in pipeline order
_STAGES = tuple(f.name for f in fields(StageTimings))


class PipelineHooks:
    """Extension seam for layers above the pipeline (the batch engine).

    ``attach`` runs after the HSG and the analyzer exist but before any
    loop is analyzed — the place to install cached summary providers.
    ``finish`` runs after the verdicts (and machine model) are complete —
    the place to harvest freshly computed summaries into a cache.
    """

    def attach(self, analyzer: SummaryAnalyzer, hsg: HSG) -> None:
        """Called once per compile, before loop processing."""

    def loop_done(self, report: "LoopReport") -> None:
        """Called after each loop's verdict is appended to the result.

        The streaming seam: the analysis daemon turns these calls into
        NDJSON ``loop_verdict`` events while the compile is still
        running.  Fires in ``hsg.all_loops()`` order (outermost first,
        routines in program order), before the machine model runs, so
        ``report.speedup``/``report.cost`` are not final yet.
        """

    def finish(self, result: "CompilationResult") -> None:
        """Called once per compile, after the result is fully built."""


class CompositeHooks(PipelineHooks):
    """Fan one compile's hook events out to several hook objects.

    Lets a caller combine orthogonal hooks — e.g. the engine's
    ``CachingHooks`` plus the server's streaming event hooks — without
    either knowing about the other.  Hooks are called in the order
    given; ``None`` entries are dropped.
    """

    def __init__(self, *hooks: PipelineHooks | None) -> None:
        self.hooks = [h for h in hooks if h is not None]

    def attach(self, analyzer: SummaryAnalyzer, hsg: HSG) -> None:
        """Forward ``attach`` to every child hook in order."""
        for hook in self.hooks:
            hook.attach(analyzer, hsg)

    def loop_done(self, report: "LoopReport") -> None:
        """Forward ``loop_done`` to every child hook in order."""
        for hook in self.hooks:
            hook.loop_done(report)

    def finish(self, result: "CompilationResult") -> None:
        """Forward ``finish`` to every child hook in order."""
        for hook in self.hooks:
            hook.finish(result)
