"""Raw Fortran source normalization.

Handles the mechanical pre-lexing concerns of Fortran 77 style sources:

* comment lines (``C``/``c``/``*`` in column 1) and trailing ``!`` comments,
* fixed-form continuation (non-blank, non-zero column 6) and free-form
  trailing ``&`` continuation,
* statement labels in columns 1–5 (or leading digits in free form),
* case normalization (lower-cased outside character literals).

The output is a list of :class:`LogicalLine` — one per statement, with its
label (if any) and the 1-based line number of its first physical line.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SourceError


@dataclass(frozen=True)
class LogicalLine:
    """One logical Fortran statement line."""

    text: str
    label: int | None
    lineno: int


def _is_comment(raw: str) -> bool:
    if not raw.strip():
        return True
    first = raw[0]
    if first in "Cc*!":
        return True
    return raw.lstrip().startswith("!")


def _strip_inline_comment(text: str) -> str:
    """Remove a trailing ``!`` comment, respecting character literals."""
    out = []
    quote: str | None = None
    for ch in text:
        if quote:
            out.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
            out.append(ch)
            continue
        if ch == "!":
            break
        out.append(ch)
    return "".join(out)


def _lowercase_outside_strings(text: str) -> str:
    out = []
    quote: str | None = None
    for ch in text:
        if quote:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            out.append(ch)
        else:
            out.append(ch.lower())
    return "".join(out)


def normalize(source: str) -> list[LogicalLine]:
    """Split *source* into logical statement lines.

    Both fixed-form (column-6 continuation) and free-form (trailing ``&``)
    inputs are accepted; the two may be mixed line-by-line, which keeps the
    kernel sources in :mod:`repro.kernels` readable.
    """
    logical: list[LogicalLine] = []
    pending_text: str | None = None
    pending_label: int | None = None
    pending_lineno = 0
    pending_continues = False

    def flush() -> None:
        nonlocal pending_text, pending_label, pending_continues
        if pending_text is not None and pending_text.strip():
            logical.append(
                LogicalLine(pending_text.strip(), pending_label, pending_lineno)
            )
        pending_text = None
        pending_label = None
        pending_continues = False

    for lineno, raw in enumerate(source.splitlines(), start=1):
        raw = raw.rstrip("\n")
        if _is_comment(raw):
            continue
        # no quote to respect and nothing that lowercases by context
        plain = raw.isascii() and "'" not in raw and '"' not in raw
        line = raw.partition("!")[0] if plain else _strip_inline_comment(raw)
        if not line.strip():
            continue
        # fixed-form continuation: column 6 non-blank & non-zero, cols 1-5 blank
        is_fixed_cont = (
            len(line) >= 6
            and line[:5].strip() == ""
            and line[5] not in " 0"
            and pending_text is not None
        )
        if is_fixed_cont:
            pending_text += " " + line[6:].strip()
            continue
        if pending_continues and pending_text is not None:
            pending_text += " " + line.strip().lstrip("&").strip()
            if pending_text.rstrip().endswith("&"):
                pending_text = pending_text.rstrip()[:-1].rstrip()
                pending_continues = True
            else:
                pending_continues = False
            continue
        flush()
        body = line
        label: int | None = None
        stripped = body.strip()
        # a leading integer is a statement label
        i = 0
        while i < len(stripped) and stripped[i].isdigit():
            i += 1
        if i > 0 and i < len(stripped) and stripped[i] in " \t":
            label = int(stripped[:i])
            stripped = stripped[i:].strip()
        elif i > 0 and i == len(stripped):
            raise SourceError(f"label with no statement at line {lineno}")
        pending_text = (
            stripped.lower() if plain else _lowercase_outside_strings(stripped)
        )
        pending_label = label
        pending_lineno = lineno
        if pending_text.rstrip().endswith("&"):
            pending_text = pending_text.rstrip()[:-1].rstrip()
            pending_continues = True
    flush()
    return logical
