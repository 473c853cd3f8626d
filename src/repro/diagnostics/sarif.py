"""SARIF 2.1.0 export for diagnostics.

Emits the minimal-but-valid subset of the Static Analysis Results
Interchange Format every mainstream consumer (GitHub code scanning,
``sarif-tools``) accepts: one run, one tool driver with a ``rules``
array covering the codes actually used, and one ``result`` per
diagnostic with ``ruleId``/``ruleIndex``, a ``level``, a text message,
and a physical location when the diagnostic has a span.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .. import __version__
from .diagnostic import RULES, Diagnostic, sort_key

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "panorama"
TOOL_URI = "https://example.org/panorama"


def _rule_to_sarif(code: str) -> dict[str, Any]:
    rule = RULES[code]
    return {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.short},
        "defaultConfiguration": {"level": rule.severity.value},
    }


def _result_to_sarif(
    diag: Diagnostic, rule_index: dict[str, int]
) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": diag.code,
        "ruleIndex": rule_index[diag.code],
        "level": diag.level.value,
        "message": {"text": diag.message},
    }
    if diag.span is not None:
        region: dict[str, Any] = {"startLine": max(1, diag.span.lineno)}
        if diag.span.end_lineno is not None:
            region["endLine"] = diag.span.end_lineno
        if diag.span.snippet:
            region["snippet"] = {"text": diag.span.snippet}
        result["locations"] = [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": diag.span.file},
                    "region": region,
                }
            }
        ]
    if diag.data:
        result["properties"] = dict(diag.data)
    return result


def sarif_log(diags: Iterable[Diagnostic]) -> dict[str, Any]:
    """A complete SARIF 2.1.0 log as a JSON-ready dict."""
    ordered = sorted(diags, key=sort_key)
    used_codes = sorted({d.code for d in ordered})
    rule_index = {code: i for i, code in enumerate(used_codes)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": __version__,
                        "informationUri": TOOL_URI,
                        "rules": [_rule_to_sarif(c) for c in used_codes],
                    }
                },
                "results": [_result_to_sarif(d, rule_index) for d in ordered],
            }
        ],
    }


def write_sarif(diags: Iterable[Diagnostic], path: str | Path) -> None:
    """Serialize the SARIF log for *diags* to *path*."""
    Path(path).write_text(
        json.dumps(sarif_log(diags), indent=2, sort_keys=True) + "\n"
    )
