"""Low-overhead profiling substrate for the symbolic kernels.

Three instruments, all per-process:

* :class:`BoundedCache` — the LRU table behind every hash-consing /
  memoization layer in :mod:`repro.symbolic`.  Each cache keeps its own
  hit/miss/eviction counters as plain integer attributes (an ``int``
  increment per event, always on) and registers itself in a module-level
  registry so :func:`snapshot` can read every gauge at once.
* :class:`Counters` — a slotted singleton of call counters for the hot
  entry points (``Comparer.prove``, Fourier–Motzkin eliminations, the
  GAR simplifier, ``SUM_loop``/``SUM_call``).
* phase timers — wall-clock accumulators that cost **nothing unless
  profiling is enabled**: the :func:`timed` decorator checks the module
  flag before touching the clock, so a disabled run pays one boolean
  test per decorated call and the undecorated hot paths pay nothing.

Process model: every worker process owns its own caches and counters
(nothing here is shared or locked).  The batch engine ships each
worker's :func:`snapshot` delta home inside the serialized result
payload, exactly like the summary-cache statistics.

The whole module is import-cycle free by construction: it must never
import anything else from :mod:`repro`.
"""

from __future__ import annotations

import functools
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List

#: sentinel distinguishing "absent" from a legitimately cached ``None``
#: (three-valued verdicts store ``None`` as a real answer)
MISS = object()

#: module flag consulted by the timing instruments; leave ``False`` for
#: near-zero overhead, flip with :func:`enable`
ENABLED = False


# --------------------------------------------------------------------------- #
# bounded LRU caches
# --------------------------------------------------------------------------- #


class BoundedCache:
    """A bounded LRU mapping with always-on hit/miss/eviction gauges.

    Backed by an :class:`collections.OrderedDict`: a hit refreshes the
    entry's recency, an insert beyond ``maxsize`` evicts the least
    recently used entry.  Values may legitimately be ``None`` — lookups
    use the :data:`MISS` sentinel, not ``None``, for absence.
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
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> Any:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry (the counters survive — they are cumulative)."""
        self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Change the bound, evicting LRU entries down to it if needed."""
        self.maxsize = max(1, maxsize)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
        }

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
# phase timers
# --------------------------------------------------------------------------- #

#: phase name → [calls, accumulated seconds]
_TIMERS: Dict[str, List[float]] = {}


def enable() -> None:
    """Turn the wall-clock phase timers on (counters are always on)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn the phase timers back off."""
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    return ENABLED


def add_time(phase: str, seconds: float) -> None:
    """Credit *seconds* of wall clock to *phase*."""
    entry = _TIMERS.get(phase)
    if entry is None:
        _TIMERS[phase] = [1, seconds]
    else:
        entry[0] += 1
        entry[1] += seconds


def timed(phase: str) -> Callable:
    """Decorator: time the call under *phase* when profiling is enabled.

    The disabled cost is one boolean test plus the wrapper call — do not
    put this on per-comparison hot paths (those get plain counters), use
    it on phase-granularity entry points like ``SUM_loop``.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add_time(phase, time.perf_counter() - t0)

        return wrapper

    return decorate


def timers() -> Dict[str, Dict[str, float]]:
    return {
        phase: {"calls": calls, "seconds": seconds}
        for phase, (calls, seconds) in _TIMERS.items()
    }


def reset_timers() -> None:
    _TIMERS.clear()


# --------------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------------- #


def snapshot() -> Dict[str, float]:
    """Every gauge as one flat ``name → number`` dict.

    Keys: ``counter.<name>``, ``cache.<name>.<hits|misses|evictions>``,
    and (when profiling was enabled at some point) ``time.<phase>.calls``
    / ``time.<phase>.seconds``.  Flat numbers subtract cleanly
    (:func:`delta`) and serialize to JSON without custom encoders.
    """
    out: Dict[str, float] = {}
    for name, value in COUNTERS.as_dict().items():
        out[f"counter.{name}"] = value
    for name, cache in _CACHES.items():
        out[f"cache.{name}.hits"] = cache.hits
        out[f"cache.{name}.misses"] = cache.misses
        out[f"cache.{name}.evictions"] = cache.evictions
    for phase, (calls, seconds) in _TIMERS.items():
        out[f"time.{phase}.calls"] = calls
        out[f"time.{phase}.seconds"] = seconds
    return out


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``after - before``, key-wise (missing keys count as zero)."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value - before.get(key, 0)
    }


class Probe:
    """Delta scope over every gauge: one request's worth of activity.

    The analysis daemon opens a probe per request so each response can
    carry the symbolic counters *that request* caused, not the resident
    process's lifetime totals.  Works as a context manager or via
    explicit :meth:`finish`; ``probe.delta`` holds the flat
    :func:`snapshot`-keyed difference afterwards.
    """

    __slots__ = ("before", "delta")

    def __init__(self) -> None:
        self.before: Dict[str, float] = snapshot()
        self.delta: Dict[str, float] = {}

    def finish(self) -> Dict[str, float]:
        """Close the scope; returns (and stores) the gauge delta."""
        self.delta = delta(self.before, snapshot())
        return self.delta

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()


def probe() -> Probe:
    """Open a :class:`Probe` at the current gauge values."""
    return Probe()


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
    """Zero the counters and timers (cache contents are untouched)."""
    COUNTERS.reset()
    reset_timers()
