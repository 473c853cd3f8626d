"""Symbolic array dataflow analysis (the paper's core, sections 3-4).

Guarded-array-region summaries (MOD, UE and the per-iteration /
prior-iteration variants) computed by backward propagation over the HSG,
with IF conditions attached as guards, scalars substituted on the fly,
and loop summaries obtained through the expansion function.
"""

from .analyzer import SummaryAnalyzer
from .context import AnalysisOptions, AnalysisStats, LoopSummaryRecord
from .convert import (
    ConversionContext,
    reset_opaque_counter,
    to_predicate,
    to_symexpr,
)
from .expansion import expand_gar, expand_gar_list
from .summary import Summary, collect_uses, reference_gar, scalar_gar, scalar_region

__all__ = [
    "AnalysisOptions",
    "AnalysisStats",
    "ConversionContext",
    "LoopSummaryRecord",
    "Summary",
    "SummaryAnalyzer",
    "collect_uses",
    "expand_gar",
    "expand_gar_list",
    "reference_gar",
    "reset_opaque_counter",
    "scalar_gar",
    "scalar_region",
    "to_predicate",
    "to_symexpr",
]
