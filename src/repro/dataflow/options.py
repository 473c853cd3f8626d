"""Analysis options and statistics: what the engine and the CLIs share
with the analyzer without loading it.

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
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from ..resilience.budget import AnalysisBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..regions import GARList
    from ..symbolic import SymExpr

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
class AnalysisStats:
    """Instrumentation used by the Figure-4 style cost reporting."""

    nodes_visited: int = 0
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
