"""The :class:`Diagnostic` record and the stable rule registry.

Every user-facing finding in the system — audit races (PAN1xx),
front-end lint warnings (PAN2xx), and internal-consistency violations
(PAN3xx) — is a :class:`Diagnostic`: a stable code, a severity, a
message, an optional source span, and a free-form structured payload.
The renderers in :mod:`repro.diagnostics.render` and
:mod:`repro.diagnostics.sarif` consume nothing else, so any subsystem
that can build a ``Diagnostic`` is automatically visible in text, JSON,
and SARIF output.

Codes are append-only: a published code never changes meaning, so CI
baselines and SARIF consumers can match on ``ruleId`` forever.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..fortran.source import normalize


class Severity(enum.Enum):
    """Diagnostic severity; values match SARIF 2.1.0 ``level`` strings."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


@dataclass(frozen=True)
class SourceSpan:
    """A location in a named source artifact (1-based line numbers)."""

    file: str
    lineno: int
    end_lineno: Optional[int] = None
    #: the statement text, when the caller resolved it (see resolve_span)
    snippet: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.file}:{self.lineno}"


@dataclass(frozen=True)
class Rule:
    """One stable diagnostic code and its default presentation."""

    code: str
    name: str
    short: str
    severity: Severity


#: the append-only rule registry (code → rule)
RULES: dict[str, Rule] = {
    r.code: r
    for r in (
        # -- PAN1xx: the static race auditor (src/repro/audit) -----------
        Rule(
            "PAN101",
            "audit/confirmed-race",
            "A loop reported parallel carries a provable cross-iteration "
            "dependence",
            Severity.ERROR,
        ),
        Rule(
            "PAN102",
            "audit/undecided-pair",
            "No dependence test could decide a cross-iteration reference "
            "pair in a parallel loop",
            Severity.NOTE,
        ),
        Rule(
            "PAN103",
            "audit/guarded-dependence",
            "A memory-level carried dependence exists under control guards "
            "the conventional tests cannot see",
            Severity.WARNING,
        ),
        Rule(
            "PAN104",
            "audit/skipped-loop",
            "A loop was skipped by the audit (degraded or unanalyzable "
            "verdict)",
            Severity.NOTE,
        ),
        Rule(
            "PAN105",
            "audit/evidence-replay",
            "A frontier evidence record behind a parallel verdict could "
            "not be independently re-derived from the source",
            Severity.ERROR,
        ),
        # -- PAN2xx: front-end lint (src/repro/audit/lint) ----------------
        Rule(
            "PAN201",
            "frontend/premature-exit",
            "A DO loop has a premature exit; it is handled conservatively "
            "and can never be parallel",
            Severity.WARNING,
        ),
        Rule(
            "PAN202",
            "frontend/goto-cycle",
            "A backward-GOTO cycle was condensed; its array accesses are "
            "summarized as wholly read and written",
            Severity.WARNING,
        ),
        Rule(
            "PAN203",
            "frontend/common-aliasing",
            "A CALL argument aliases COMMON storage (or another argument); "
            "interprocedural summaries may be imprecise",
            Severity.WARNING,
        ),
        # -- PAN3xx: internal consistency -----------------------------------
        Rule(
            "PAN301",
            "internal/gar-sanitizer",
            "A GAR set operation violated its algebraic contract under "
            "concrete sampling",
            Severity.ERROR,
        ),
        Rule(
            "PAN302",
            "internal/oracle-conflict",
            "Two dependence tests proved contradictory verdicts for the "
            "same reference pair",
            Severity.ERROR,
        ),
        Rule(
            "PAN305",
            "internal/evidence-unsupported",
            "An evidence record has a kind the auditor does not know how "
            "to replay",
            Severity.ERROR,
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, ready for any renderer."""

    code: str
    message: str
    span: Optional[SourceSpan] = None
    #: None = use the registry default for the code
    severity: Optional[Severity] = None
    #: structured payload (loop id, variable, per-test votes, ...);
    #: must be JSON-serializable primitives
    data: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    @property
    def level(self) -> Severity:
        """Effective severity (explicit, or the rule default)."""
        return self.severity if self.severity is not None else self.rule.severity


def resolve_span(
    file: str, lineno: int, source: Optional[str] = None
) -> SourceSpan:
    """Build a span, resolving the statement snippet via fortran/source.

    ``lineno`` is the physical 1-based line number the front end recorded;
    when *source* is given the matching logical statement's text becomes
    the snippet (a logical line may start earlier than ``lineno`` if the
    statement is a continuation — the nearest logical line at or before
    ``lineno`` wins).
    """
    snippet: Optional[str] = None
    if source is not None and lineno > 0:
        try:
            lines = normalize(source)
        except Exception:
            lines = []
        best = None
        for line in lines:
            if line.lineno <= lineno and (best is None or line.lineno > best.lineno):
                best = line
        if best is not None:
            snippet = best.text
    return SourceSpan(file=file, lineno=lineno, snippet=snippet)


def sort_key(diag: Diagnostic) -> tuple:
    """Stable presentation order: severity, then location, then code."""
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.NOTE: 2}
    span = diag.span
    return (
        order[diag.level],
        span.file if span else "",
        span.lineno if span else 0,
        diag.code,
        diag.message,
    )
