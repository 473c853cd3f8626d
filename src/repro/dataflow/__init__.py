"""Symbolic array dataflow analysis (the paper's core, sections 3-4).

Guarded-array-region summaries (MOD, UE and the per-iteration /
prior-iteration variants) computed by backward propagation over the HSG,
with IF conditions attached as guards, scalars substituted on the fly,
and loop summaries obtained through the expansion function.

Each name loads its submodule on first use (:mod:`repro.lazy`), so
``from repro.dataflow import AnalysisOptions`` loads no analysis.
"""

from ..lazy import exports

__all__, __getattr__ = exports(__name__, {
    "analyzer": ("SummaryAnalyzer",),
    "context": ("LoopSummaryRecord",),
    "convert": ("ConversionContext", "to_predicate", "to_symexpr"),
    "expansion": ("expand_gar", "expand_gar_list"),
    "options": ("AnalysisOptions", "AnalysisStats"),
    "summary": (
        "Summary", "collect_uses", "reference_gar", "scalar_gar",
        "scalar_region",
    ),
})
