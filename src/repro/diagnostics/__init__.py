"""Structured diagnostics: stable codes, severities, spans, renderers.

See docs/auditing.md for the code taxonomy:

* ``PAN1xx`` — static race auditor findings,
* ``PAN2xx`` — front-end lint warnings,
* ``PAN3xx`` — internal-consistency violations.
"""

from .diagnostic import (
    RULES,
    Diagnostic,
    Rule,
    Severity,
    SourceSpan,
    resolve_span,
    sort_key,
)
from .render import (
    diagnostic_from_dict,
    diagnostic_to_dict,
    render_diagnostic,
    render_text,
)
from .sarif import sarif_log, write_sarif

__all__ = [
    "RULES",
    "Diagnostic",
    "Rule",
    "Severity",
    "SourceSpan",
    "diagnostic_from_dict",
    "diagnostic_to_dict",
    "render_diagnostic",
    "render_text",
    "resolve_span",
    "sarif_log",
    "sort_key",
    "write_sarif",
]
