"""Exception hierarchy for the Panorama reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError`` etc.).  The frontend, symbolic engine, and analysis
layers each have their own subclass so test suites can assert on the layer
that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SourceError(ReproError):
    """Problem with raw Fortran source text (bad continuation, etc.)."""


class LexError(SourceError):
    """Tokenizer failure, carries the line/column of the offending text."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class ParseError(SourceError):
    """Parser failure, carries the line of the offending statement."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


class SemanticError(ReproError):
    """Symbol table / declaration inconsistency."""


class CallGraphError(SemanticError):
    """Recursive or unresolved call structure (the analysis requires an
    acyclic call graph, paper section 4)."""


class SymbolicError(ReproError):
    """Unsupported symbolic manipulation (e.g. division with remainder)."""


class RegionError(ReproError):
    """Ill-formed array region or region operation between different arrays."""


class HSGError(ReproError):
    """Hierarchical supergraph construction failure."""


class AnalysisError(ReproError):
    """Dataflow summary computation failure."""


class ResilienceError(ReproError):
    """Base class for the resilience layer's typed failures."""


class BudgetExceeded(ResilienceError):
    """An analysis budget (deadline or step count) ran out.

    Raised from the symbolic hot paths; the SUM_* algorithms catch it and
    degrade to the paper's conservative whole-array summary instead of
    dying — the loop verdict becomes "unknown (budget)", never a crash.
    """

    def __init__(self, message: str = "analysis budget exceeded",
                 reason: str = "budget") -> None:
        super().__init__(message)
        #: "deadline" | "steps" | "budget" — which limit was hit
        self.reason = reason


class WorkerCrash(ResilienceError):
    """A batch pool worker died (killed, OOM, segfault) mid-item."""


class ItemTimeout(ResilienceError):
    """A batch item exceeded its per-item wall-clock timeout."""


#: classification buckets for the batch engine's typed error field:
#: *hard* kinds indicate the item itself is bad (retrying cannot help),
#: *fault* kinds indicate infrastructure trouble (retry under supervision)
HARD_ERROR_KINDS = frozenset({"source", "analysis", "internal"})
FAULT_ERROR_KINDS = frozenset({"worker-crash", "timeout", "oom", "budget"})

#: process exit codes shared by every CLI (docs/robustness.md): clean,
#: hard failure (bad input / analysis bug / lost items), usage error,
#: degraded-but-complete, strict-audit finding, and interrupted-but-
#: consistent (a drain or Ctrl-C stopped the run; everything finalized
#: so far is flushed and a ledger resume continues where it left off)
EXIT_OK = 0
EXIT_HARD_FAILURE = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_AUDIT_FAILED = 4
EXIT_INTERRUPTED = 5


def classify_exception(exc: BaseException) -> str:
    """Map an exception to the batch engine's typed error taxonomy.

    Returns one of: ``source`` (bad input text), ``analysis`` (the
    library refused the program), ``budget``, ``oom``, ``worker-crash``,
    ``timeout``, or ``internal`` (a programming error — a traceback worth
    reading).  A program nested past the interpreter's recursion limit is
    refused like any other program the analyzer cannot take, so
    ``RecursionError`` is ``analysis``.  ``KeyboardInterrupt``/
    ``SystemExit`` are never classified; callers must re-raise them.
    """
    if isinstance(exc, BudgetExceeded):
        return "budget"
    if isinstance(exc, ItemTimeout):
        return "timeout"
    if isinstance(exc, WorkerCrash):
        return "worker-crash"
    if isinstance(exc, SourceError):
        return "source"
    if isinstance(exc, (ReproError, RecursionError)):
        return "analysis"
    if isinstance(exc, MemoryError):
        return "oom"
    return "internal"


def describe_failure(exc: BaseException) -> str:
    """The one-line message a daemon answer or the ``panorama`` CLI gives
    for a failed compile (the batch engine keeps the full traceback)."""
    if isinstance(exc, ReproError):
        return str(exc)
    if isinstance(exc, RecursionError):
        return "program nesting exceeds analyzer limits"
    if isinstance(exc, MemoryError):
        return "analysis ran out of memory"
    return f"{type(exc).__name__}: {exc}"
