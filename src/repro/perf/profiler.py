"""The metrics model: always-on gauges, one delta idiom, one roll-up rule.

Two instruments, both per-process and always on:

* :class:`BoundedCache` — the bounded table behind every hash-consing /
  memoization layer in :mod:`repro.symbolic`.  Each cache keeps its own
  hit/miss/eviction counters as plain integer attributes (an ``int``
  increment per event) and registers itself in a module-level registry
  so :func:`snapshot` can read every gauge at once.
* :class:`Counters` — a slotted singleton of call counters for the hot
  entry points (``Comparer.prove``, Fourier–Motzkin eliminations, the
  GAR simplifier, ``SUM_loop``/``SUM_call``).

Wall-clock time lives in one place, the pipeline's per-compile
:class:`~repro.driver.panorama.StageTimings`.

Every counter travels as a flat ``name → number`` dict: a scope takes a
:func:`snapshot` before its work and :func:`delta` after it, and
roll-ups fold such dicts with :func:`merge` (numbers add, ``peak_*``
keys take the max).  The counter dataclasses above this module
(``StageTimings``, ``AnalysisStats``, ``CacheStats``) declare their
names once, as fields, and export the same flat dicts.

Process model: every worker process owns its own caches and counters
(nothing here is shared or locked).  The batch engine ships each
worker's :func:`snapshot` delta home inside the serialized result
payload, exactly like the summary-cache statistics.

The whole module is import-cycle free by construction: it must never
import anything else from :mod:`repro`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, Mapping

#: sentinel distinguishing "absent" from a legitimately cached ``None``
#: (three-valued verdicts store ``None`` as a real answer)
MISS = object()


# --------------------------------------------------------------------------- #
# bounded memo tables
# --------------------------------------------------------------------------- #


class BoundedCache:
    """A bounded mapping with always-on hit/miss/eviction gauges.

    Backed by an :class:`collections.OrderedDict` and bounded in
    insertion order: an insert beyond ``maxsize`` evicts the oldest
    entry, and a hit does not refresh it (a recency refresh costs more
    on the hot path than the hits it keeps).  Values may legitimately be
    ``None`` — lookups use the :data:`MISS` sentinel, not ``None``, for
    absence.
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, name: str, maxsize: int = 8192, register: bool = True):
        self.name = name
        self.maxsize = max(1, maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()
        if register:
            _CACHES[name] = self

    def get(self, key: Any, default: Any = MISS) -> Any:
        data = self._data
        value = data.get(key, MISS)
        if value is MISS:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> Any:
        data = self._data
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry (the counters survive — they are cumulative)."""
        self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Change the bound, evicting the oldest entries down to it."""
        self.maxsize = max(1, maxsize)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BoundedCache({self.name!r}, size={len(self._data)}/"
            f"{self.maxsize}, hits={self.hits}, misses={self.misses})"
        )


#: registry of every cache created with ``register=True``
_CACHES: Dict[str, BoundedCache] = {}


def caches() -> Dict[str, BoundedCache]:
    """The live cache registry (name → cache)."""
    return dict(_CACHES)


def clear_caches() -> None:
    """Empty every registered cache (a "cold start" for benchmarks).

    Only cache *contents* are dropped; counters keep accumulating, so
    use :func:`snapshot` deltas to attribute hits to a phase.
    """
    for cache in _CACHES.values():
        cache.clear()


def resize_caches(maxsize: int, names: Iterable[str] | None = None) -> None:
    """Rebound some (or all) registered caches — property tests use tiny
    bounds to exercise eviction."""
    wanted = set(names) if names is not None else None
    for name, cache in _CACHES.items():
        if wanted is None or name in wanted:
            cache.resize(maxsize)


# --------------------------------------------------------------------------- #
# call counters
# --------------------------------------------------------------------------- #


class Counters:
    """Slotted integer counters for the symbolic hot paths."""

    __slots__ = (
        "prove_calls",
        "prove_fm_queries",
        "fm_eliminations",
        # silent-give-up visibility: every FM effort-cap bail-out is a
        # degradation event counted here (surfaced by --profile and
        # --stats-json, see docs/robustness.md)
        "fm_var_limit_bailouts",
        "fm_constraint_limit_bailouts",
        "fm_ne_splits_dropped",
        "budget_fallbacks",
        "gar_simplify_calls",
        "gar_emptiness_checks",
        "sum_loop_calls",
        "sum_call_calls",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


COUNTERS = Counters()


# --------------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------------- #


def snapshot() -> Dict[str, float]:
    """Every gauge as one flat ``name → number`` dict.

    Keys: ``counter.<name>`` and
    ``cache.<name>.<hits|misses|evictions>``.  Flat numbers subtract
    cleanly (:func:`delta`), fold cleanly (:func:`merge`) and serialize
    to JSON without custom encoders.
    """
    out: Dict[str, float] = {}
    for name, value in COUNTERS.as_dict().items():
        out[f"counter.{name}"] = value
    for name, cache in _CACHES.items():
        out[f"cache.{name}.hits"] = cache.hits
        out[f"cache.{name}.misses"] = cache.misses
        out[f"cache.{name}.evictions"] = cache.evictions
    return out


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``after - before``, key-wise (missing keys count as zero)."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value - before.get(key, 0)
    }


def merge(into: Dict[str, Any], more: Mapping[str, Any]) -> Dict[str, Any]:
    """Fold the flat counters *more* into *into*; returns *into*.

    The one roll-up rule: numbers add, except ``peak_*`` keys, which
    take the max (missing keys count as zero).
    """
    for key, value in more.items():
        if key.startswith("peak_"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


def hit_rate(snap: Dict[str, float], prefix: str = "cache.") -> float | None:
    """Aggregate hit rate over the ``<prefix>*.hits/.misses`` gauges.

    Accepts a full :func:`snapshot` or a :func:`delta`; returns ``None``
    when the slice saw no lookups at all (0/0 is not a rate).
    """
    hits = 0.0
    misses = 0.0
    for key, value in snap.items():
        if not key.startswith(prefix):
            continue
        if key.endswith(".hits"):
            hits += value
        elif key.endswith(".misses"):
            misses += value
    total = hits + misses
    if total <= 0:
        return None
    return hits / total


def reset() -> None:
    """Zero the counters (cache contents and gauges are untouched)."""
    COUNTERS.reset()
