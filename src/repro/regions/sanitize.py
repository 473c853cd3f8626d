"""Debug-gated concrete-sampling sanitizer for the GAR list algebra.

Enabled via ``PANORAMA_SANITIZE=1`` (or :func:`enable` in tests), this
module cross-checks every :func:`~repro.regions.gar_ops.union_lists`,
``intersect_lists``, and ``subtract_lists`` result by enumerating the
operands and the result on small concrete environments and comparing the
element sets against the contracts of docs/soundness.md:

* union:      ``result ⊇ a ∪ b``; equality when all three are exact;
* intersect:  ``result ⊇ a ∩ b``; equality when all three are exact;
* subtract:   ``a ⊇ result ⊇ a − b`` (subtraction never invents elements
  and only kills elements actually in the subtrahend).

GARs with Δ guards or Ω dimensions cannot be enumerated; environments
where any operand raises are skipped — the sanitizer samples, it does
not prove.  Violations become ``PAN301`` diagnostics collected in a
process-local buffer that the audit layer drains into its report.

The checks are deliberately bounded (``MAX_ENVS`` environments, regions
over ``MAX_ELEMENTS`` elements are skipped) so a sanitized run stays
usable on the full kernel registry.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, Mapping, Optional

from ..diagnostics import Diagnostic
from .gar import GARList

ENV_VAR = "PANORAMA_SANITIZE"

#: sampled values per free variable (0 exercises false-y guards)
SAMPLE_VALUES = (0, 1, 2, 3)
#: cap on sampled environments per operation
MAX_ENVS = 24
#: skip environments where any operand enumerates to more elements
MAX_ELEMENTS = 512
#: stop collecting after this many findings (a broken operator would
#: otherwise flood the buffer)
MAX_FINDINGS = 50

#: lazily resolved process-wide switch; None = env not yet consulted
_ENABLED: Optional[bool] = None
_FINDINGS: list[Diagnostic] = []


def enabled() -> bool:
    """Is the sanitizer active (forced flag, else the env var, read once)?"""
    global _ENABLED
    if _ENABLED is None:
        _ENABLED = os.environ.get(ENV_VAR, "") not in ("", "0")
    return _ENABLED


def enable() -> None:
    """Force the sanitizer on (tests)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Force the sanitizer off (tests)."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop the resolved switch so the env var is re-read (tests);
    clears collected findings."""
    global _ENABLED
    _ENABLED = None
    _FINDINGS.clear()


def drain() -> list[Diagnostic]:
    """Return and clear the collected PAN301 findings."""
    out = list(_FINDINGS)
    _FINDINGS.clear()
    return out


def _sample_envs(names: frozenset[str]) -> Iterator[dict[str, int]]:
    ordered = sorted(names)
    combos = itertools.product(SAMPLE_VALUES, repeat=len(ordered))
    for combo in itertools.islice(combos, MAX_ENVS):
        yield dict(zip(ordered, combo))


def _try_enumerate(
    gars: GARList, env: Mapping[str, int]
) -> Optional[set[tuple[str, tuple[int, ...]]]]:
    """Element set tagged by array name, or None when not enumerable."""
    out: set[tuple[str, tuple[int, ...]]] = set()
    try:
        for g in gars:
            for point in g.enumerate(env):
                out.add((g.array, point))
                if len(out) > MAX_ELEMENTS:
                    return None
    except Exception:
        # Δ guards, Ω dims, non-integer ranges: this env cannot witness
        return None
    return out


def _report(op: str, env: Mapping[str, int], detail: str) -> None:
    if len(_FINDINGS) >= MAX_FINDINGS:
        return
    _FINDINGS.append(
        Diagnostic(
            code="PAN301",
            message=f"GAR {op} violated its sampling contract: {detail}",
            data={"op": op, "env": dict(env)},
        )
    )


def _fmt(points: set[tuple[str, tuple[int, ...]]]) -> str:
    shown = sorted(points)[:4]
    body = ", ".join(f"{a}{list(p)}" for a, p in shown)
    more = f" (+{len(points) - len(shown)} more)" if len(points) > len(shown) else ""
    return f"{{{body}}}{more}"


def check(op: str, a: GARList, b: GARList, result: GARList) -> None:
    """Sample-check one list operation; append PAN301 on violation."""
    if len(_FINDINGS) >= MAX_FINDINGS:
        return
    names = a.free_vars() | b.free_vars() | result.free_vars()
    all_exact = a.is_exact() and b.is_exact() and result.is_exact()
    for env in _sample_envs(names):
        ea = _try_enumerate(a, env)
        eb = _try_enumerate(b, env)
        er = _try_enumerate(result, env)
        if ea is None or eb is None or er is None:
            continue
        if op == "union":
            expected = ea | eb
            if not expected <= er:
                _report(op, env, f"result misses {_fmt(expected - er)}")
                return
            if all_exact and er != expected:
                _report(op, env, f"exact result has extras {_fmt(er - expected)}")
                return
        elif op == "intersect":
            expected = ea & eb
            if not expected <= er:
                _report(op, env, f"result misses {_fmt(expected - er)}")
                return
            if all_exact and er != expected:
                _report(op, env, f"exact result has extras {_fmt(er - expected)}")
                return
        elif op == "subtract":
            floor = ea - eb
            if not floor <= er:
                _report(
                    op, env, f"result killed unsubtracted {_fmt(floor - er)}"
                )
                return
            if not er <= ea:
                _report(op, env, f"result invented {_fmt(er - ea)}")
                return
        else:  # pragma: no cover - programming error, not data
            raise ValueError(f"unknown op {op!r}")
