"""The batch dispatch order: input order.

Summaries are keyed by content, so dispatch order changes no verdict,
and a topology plan was measured not to pay (docs/engine.md, "Dispatch
order").  No module imports this one: it stays only because the
benchmark harness (``perfbench/tracing.py``) wraps :func:`plan_schedule`
by path as its ``engine.plan`` layer, and goes with that entry when the
harness is re-baselined.
"""

from __future__ import annotations

from typing import Sequence


def plan_schedule(items: Sequence) -> list[int]:
    """Item indices in dispatch order: input order."""
    return list(range(len(items)))
