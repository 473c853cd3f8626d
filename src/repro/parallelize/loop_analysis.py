"""Loop-carried dependence detection over GAR summaries (section 3.2.2).

For a DO loop with index ``i``:

1. flow dependences exist  iff ``UE_i ∩ MOD_{<i} ≠ ∅``
2. output dependences exist iff ``MOD_i ∩ (MOD_{<i} ∪ MOD_{>i}) ≠ ∅``
3. anti dependences exist  iff ``UE_i ∩ MOD_{>i} ≠ ∅`` (valid once 1 and 2
   are disproved, which is the order the classifier applies)

Because the summaries are flow-sensitive (uses already killed by
same-iteration writes are not in ``UE_i``), these tests are sharper than
the classical region-based formulas the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataflow.context import LoopSummaryRecord
from ..regions.gar_ops import lists_intersect_empty
from ..symbolic import Comparer


@dataclass(frozen=True)
class DependenceReport:
    """Per-variable carried-dependence verdict (True = cannot disprove)."""

    name: str
    flow: bool
    output: bool
    anti: bool

    @property
    def any(self) -> bool:
        return self.flow or self.output or self.anti

    def kinds(self) -> list[str]:
        """The carried dependence kinds as strings."""
        out = []
        if self.flow:
            out.append("flow")
        if self.output:
            out.append("output")
        if self.anti:
            out.append("anti")
        return out


def variable_dependences(
    name: str, record: LoopSummaryRecord, cmp: Comparer
) -> DependenceReport:
    """Carried-dependence report for one variable."""
    ue_i = record.ue_i.for_array(name)
    mod_i = record.mod_i.for_array(name)
    mod_lt = record.mod_lt.for_array(name)
    mod_gt = record.mod_gt.for_array(name)
    flow = not lists_intersect_empty(ue_i, mod_lt, cmp)
    output = not (
        lists_intersect_empty(mod_i, mod_lt, cmp)
        and lists_intersect_empty(mod_i, mod_gt, cmp)
    )
    anti = not lists_intersect_empty(ue_i, mod_gt, cmp)
    return DependenceReport(name, flow, output, anti)


def loop_dependences(
    record: LoopSummaryRecord, cmp: Comparer, skip: frozenset[str] = frozenset()
) -> dict[str, DependenceReport]:
    """Reports for every variable the loop touches (minus *skip*)."""
    names = sorted(
        (record.mod_i.arrays() | record.ue_i.arrays()) - skip - {record.var}
    )
    return {name: variable_dependences(name, record, cmp) for name in names}
