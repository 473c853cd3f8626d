"""Per-loop summary records: the section 3/4 sets of one DO loop.

The options and statistics the analyzer runs under live in
:mod:`repro.dataflow.options`, which the engine and the CLIs import
without loading the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..regions import GARList
from ..symbolic import SymExpr


@dataclass
class LoopSummaryRecord:
    """Everything the clients need about one DO loop (section 3/4 sets)."""

    routine: str
    var: str
    lo: SymExpr
    hi: SymExpr
    step: SymExpr
    #: per-iteration sets (in terms of the free index variable)
    mod_i: GARList = field(default_factory=GARList)
    ue_i: GARList = field(default_factory=GARList)
    #: prior/later iteration mods (free index = the current iteration)
    mod_lt: GARList = field(default_factory=GARList)
    mod_gt: GARList = field(default_factory=GARList)
    #: whole-loop sets (index eliminated)
    mod: GARList = field(default_factory=GARList)
    ue: GARList = field(default_factory=GARList)
    #: conservative flags
    has_premature_exit: bool = False
    negative_step: bool = False
    #: non-None when this record is a budget-exhaustion fallback: the
    #: reason string ("budget", "deadline", "steps") — the sets are the
    #: conservative declared-bounds over-approximation, not real analysis
    degraded: Optional[str] = None

    def __str__(self) -> str:
        return (
            f"loop {self.var}={self.lo},{self.hi},{self.step} in {self.routine}:\n"
            f"  MOD_i  = {self.mod_i}\n"
            f"  UE_i   = {self.ue_i}\n"
            f"  MOD_<i = {self.mod_lt}\n"
            f"  MOD_>i = {self.mod_gt}\n"
            f"  MOD    = {self.mod}\n"
            f"  UE     = {self.ue}"
        )
