"""Analysis options, per-loop summary records, and statistics.

The three option toggles correspond to the technique columns of the
paper's Table 1:

* ``symbolic`` (T1) — symbolic expression analysis.  Off: only integer
  constants and enclosing loop indices are understood; all symbolic
  comparisons fail.
* ``if_conditions`` (T2) — IF condition analysis.  Off: branch
  contributions are merged under the unknown guard Δ (the traditional
  "conservative merge" of flow-sensitive analyses that ignore condition
  contents).
* ``interprocedural`` (T3) — interprocedural propagation through the HSG.
  Off: every CALL is opaque (arrays passed or in COMMON are Ω).

:meth:`AnalysisOptions.from_flags` is the one mapping from the settings
users spell (``--ablate T2``, ``--no-fm``, a daemon request's
``"no_frontier": true``, ...) to these fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from typing import Iterable, Optional, Tuple

from ..regions import GARList
from ..resilience.budget import AnalysisBudget
from ..symbolic import Comparer, SymExpr

#: Table 1 technique letter → the option ``--ablate`` switches off
TECHNIQUES = {"T1": "symbolic", "T2": "if_conditions", "T3": "interprocedural"}

#: the user-facing analysis settings, in ``from_flags`` order: the
#: argparse dests of the CLIs' analysis group and the daemon's request
#: option names
ANALYSIS_FLAGS = ("ablate", "no_fm", "no_frontier", "budget_ms", "budget_steps")


@dataclass(frozen=True)
class AnalysisOptions:
    symbolic: bool = True  # T1
    if_conditions: bool = True  # T2
    interprocedural: bool = True  # T3
    #: use the Fourier-Motzkin fallback prover (stronger simplifier)
    use_fm: bool = True
    #: frontier pass: array-content domain + recurrence/scan recognizer
    #: (docs/frontier.md); off reproduces pre-frontier verdicts exactly
    frontier: bool = True
    #: closed forms for subscript arrays (paper section 6): pairs of
    #: (array name, expression over convert.subscript_placeholder)
    index_array_forms: Tuple[Tuple[str, SymExpr], ...] = ()
    #: analysis budget: wall-clock deadline per compile (None = unlimited)
    budget_ms: Optional[float] = None
    #: analysis budget: abstract symbolic-kernel steps (None = unlimited)
    budget_steps: Optional[int] = None

    def comparer(self) -> Comparer:
        """A comparer configured per the option toggles."""
        return Comparer(use_fm=self.use_fm, symbolic=self.symbolic)

    def budget(self) -> Optional[AnalysisBudget]:
        """A fresh budget per the limits, or None when unlimited."""
        if self.budget_ms is None and self.budget_steps is None:
            return None
        return AnalysisBudget(
            budget_ms=self.budget_ms, max_steps=self.budget_steps
        )

    @classmethod
    def from_flags(
        cls,
        ablate: Iterable[str] = (),
        no_fm: bool = False,
        no_frontier: bool = False,
        budget_ms: Optional[float] = None,
        budget_steps: Optional[int] = None,
    ) -> "AnalysisOptions":
        """Options from the user-facing settings (:data:`ANALYSIS_FLAGS`).

        *ablate* names the techniques to disable (``T1``/``T2``/``T3``,
        see :data:`TECHNIQUES`); the rest mirror ``--no-fm``,
        ``--no-frontier``, ``--budget-ms`` and ``--budget-steps``.
        """
        return cls(
            use_fm=not no_fm,
            frontier=not no_frontier,
            budget_ms=budget_ms,
            budget_steps=budget_steps,
            **{TECHNIQUES[t]: False for t in ablate},
        )


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


@dataclass
class AnalysisStats:
    """Instrumentation used by the Figure-4 style cost reporting."""

    nodes_visited: int = 0
    gar_ops: int = 0
    loops_summarized: int = 0
    routines_summarized: int = 0
    peak_gar_list: int = 0
    #: budget-exhaustion fallbacks taken (loops/calls degraded to the
    #: conservative whole-array summary)
    budget_degradations: int = 0
    #: frontier pass (docs/frontier.md): content-domain facts inferred,
    #: recurrence/scan matches recognized, and loops whose verdict is
    #: backed by frontier evidence records
    content_facts: int = 0
    recurrence_matches: int = 0
    frontier_upgrades: int = 0
    #: symbolic-kernel counter/cache deltas attributed to this compile
    #: (flat ``repro.perf`` snapshot keys → numbers); filled by the
    #: pipeline driver so ``panorama --json`` can expose them
    symbolic: dict = field(default_factory=dict)

    def note_list(self, gars: GARList) -> None:
        """Record a GAR-list size for the peak statistic."""
        if len(gars) > self.peak_gar_list:
            self.peak_gar_list = len(gars)

    def as_dict(self) -> dict[str, int]:
        """The ``stats`` payload view: every int counter (``symbolic``
        rides under its own key)."""
        return {name: getattr(self, name) for name in _STAT_COUNTERS}


_STAT_COUNTERS = tuple(
    f.name for f in fields(AnalysisStats) if isinstance(f.default, int)
)
