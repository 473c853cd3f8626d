"""Text and JSON renderers for :class:`~repro.diagnostics.Diagnostic`.

The text form is the familiar compiler shape —
``file:line: severity: message [CODE]`` — with an optional indented
source snippet, so audit output reads like gcc/flang diagnostics.  The
JSON form is the dict the CLIs embed under the ``"audit"`` key and the
SARIF builder consumes.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .diagnostic import Diagnostic, Severity, SourceSpan, sort_key


def render_diagnostic(diag: Diagnostic, show_snippet: bool = True) -> str:
    """One diagnostic in compiler-style text form."""
    where = f"{diag.span}: " if diag.span is not None else ""
    head = f"{where}{diag.level.value}: {diag.message} [{diag.code}]"
    if show_snippet and diag.span is not None and diag.span.snippet:
        return f"{head}\n    {diag.span.snippet}"
    return head


def render_text(
    diags: Iterable[Diagnostic], show_snippets: bool = True
) -> str:
    """All diagnostics, severity-major order, one block of text."""
    ordered = sorted(diags, key=sort_key)
    return "\n".join(render_diagnostic(d, show_snippets) for d in ordered)


def span_to_dict(span: SourceSpan) -> dict[str, Any]:
    out: dict[str, Any] = {"file": span.file, "lineno": span.lineno}
    if span.end_lineno is not None:
        out["end_lineno"] = span.end_lineno
    if span.snippet is not None:
        out["snippet"] = span.snippet
    return out


def diagnostic_to_dict(diag: Diagnostic) -> dict[str, Any]:
    """JSON-ready form of one diagnostic (round-trips via from_dict)."""
    out: dict[str, Any] = {
        "code": diag.code,
        "rule": diag.rule.name,
        "severity": diag.level.value,
        "message": diag.message,
    }
    if diag.span is not None:
        out["span"] = span_to_dict(diag.span)
    if diag.data:
        out["data"] = dict(diag.data)
    return out


def diagnostic_from_dict(payload: dict[str, Any]) -> Diagnostic:
    """Rehydrate a diagnostic shipped across a process boundary."""
    span: Optional[SourceSpan] = None
    if "span" in payload:
        s = payload["span"]
        span = SourceSpan(
            file=s["file"],
            lineno=s["lineno"],
            end_lineno=s.get("end_lineno"),
            snippet=s.get("snippet"),
        )
    return Diagnostic(
        code=payload["code"],
        message=payload["message"],
        span=span,
        severity=Severity(payload["severity"]),
        data=dict(payload.get("data", {})),
    )
