"""Content-addressed, two-tier cache of per-routine analysis summaries.

The unit of caching is one *routine* (program unit): its interprocedural
(MOD, UE) :class:`~repro.dataflow.summary.Summary` plus every per-loop
:class:`~repro.dataflow.context.LoopSummaryRecord` computed inside it.

Cache keys are **fingerprints**: a SHA-256 over

* the routine's *normalized* source (the AST unparsed back to text, so
  whitespace/comment/case differences do not defeat the cache),
* the fingerprints of its transitive callees (the HSG call edges make
  interprocedural invalidation exact — editing a callee changes every
  transitive caller's fingerprint, and nothing else's),
* the :class:`~repro.dataflow.context.AnalysisOptions` tuple (an ablation
  run can never be served summaries computed with different techniques),
* a format version (bumping it orphans old pickles instead of unpickling
  incompatible layouts).

Storage is two tiers: a bounded in-memory LRU dict in front of a
pluggable durable :class:`~repro.engine.backends.CacheBackend` — the
classic pickle-directory tier (``disk``) or a multi-process SQLite tier
(``shared``) that whole fleets of engine instances read and write.  Both
are safe to share between concurrent worker processes, and both speak
the same fingerprint keyspace, so switching backends never invalidates
summaries.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from ..dataflow.analyzer import LoopKey
from ..dataflow.context import AnalysisOptions, LoopSummaryRecord
from ..dataflow.summary import Summary
from ..driver.panorama import PipelineHooks
from ..fortran.ast_nodes import Program
from ..fortran.callgraph import CallGraph
from ..fortran.printers import unparse_unit
from .backends import CacheBackend, DiskBackend, make_backend

#: bump when RoutineCacheEntry or the pickled analysis types change shape
#: (v2: symbolic terms/exprs/relations are hash-consed and pickle through
#: their interning constructors — v1 pickles carried raw slot state;
#: v3: disk entries are a checksummed container — magic, SHA-256 of the
#: payload, then the payload pickle — so torn/corrupt files are detected
#: before unpickling and quarantined instead of trusted;
#: v4: the frontier pass (content facts + scan recognition) changes
#: summaries through derived index-array forms, and its toggle joined
#: options_key — stale v3 verdicts must not be served either way)
CACHE_FORMAT_VERSION = 4

#: on-disk container magic; the digest that follows covers the payload
DISK_MAGIC = b"PANC\x03\n"
_DIGEST_LEN = hashlib.sha256().digest_size


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #


def options_key(options: AnalysisOptions) -> str:
    """Stable text form of the analysis options, for fingerprinting."""
    forms = ";".join(
        f"{name}={expr}" for name, expr in sorted(
            options.index_array_forms, key=lambda p: p[0]
        )
    )
    return (
        f"T1={options.symbolic}|T2={options.if_conditions}"
        f"|T3={options.interprocedural}|FM={options.use_fm}"
        f"|FR={options.frontier}|IA={forms}"
        # budgets change results (exhaustion degrades summaries), so a
        # budgeted run must never share fingerprints with an unlimited one
        f"|Bms={options.budget_ms}|Bst={options.budget_steps}"
    )


def unit_source_hash(program: Program, name: str) -> str:
    """SHA-256 of one routine's normalized (unparsed) source alone."""
    return hashlib.sha256(unparse_unit(program.unit(name)).encode()).hexdigest()


def fingerprint_program(
    program: Program, call_graph: CallGraph, options: AnalysisOptions
) -> dict[str, str]:
    """Per-routine fingerprints, callee-transitive (bottom-up order)."""
    opts = options_key(options)
    fps: dict[str, str] = {}
    for name in call_graph.order:
        h = hashlib.sha256()
        h.update(f"panorama-summary-v{CACHE_FORMAT_VERSION}\n".encode())
        h.update(opts.encode())
        h.update(b"\n--unit--\n")
        h.update(unit_source_hash(program, name).encode())
        for callee in sorted(call_graph.calls(name)):
            h.update(f"\n--callee {callee}--\n".encode())
            h.update(fps[callee].encode())
        fps[name] = h.hexdigest()
    return fps


# --------------------------------------------------------------------------- #
# entries and statistics
# --------------------------------------------------------------------------- #


@dataclass
class RoutineCacheEntry:
    """Everything cached for one routine under one fingerprint."""

    fingerprint: str
    routine: str
    summary: Optional[Summary] = None
    #: stable-keyed loop records (see SummaryAnalyzer.loop_key)
    loop_records: dict[LoopKey, LoopSummaryRecord] = field(default_factory=dict)

    def merge(self, other: "RoutineCacheEntry") -> "RoutineCacheEntry":
        """Combine two entries for the same fingerprint (union of records)."""
        if self.summary is None:
            self.summary = other.summary
        self.loop_records.update(other.loop_records)
        return self


@dataclass
class CacheStats:
    """Counters exported through the engine telemetry."""

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0
    disk_errors: int = 0
    quarantined: int = 0
    #: backend-tier counters: hits/misses served by a *shared* (multi-
    #: process) backend, and writer-contention retries it absorbed
    shared_hits: int = 0
    shared_misses: int = 0
    contention_retries: int = 0
    #: quarantine entries dropped by the oldest-first growth cap
    quarantine_evicted: int = 0
    #: circuit-breaker events around the durable tier (see
    #: repro.resilience.breaker): trips into local-only degraded mode,
    #: recoveries out of it, and operations short-circuited while open
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    breaker_skipped: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.stores += other.stores
        self.evictions += other.evictions
        self.disk_errors += other.disk_errors
        self.quarantined += other.quarantined
        self.shared_hits += other.shared_hits
        self.shared_misses += other.shared_misses
        self.contention_retries += other.contention_retries
        self.quarantine_evicted += other.quarantine_evicted
        self.breaker_trips += other.breaker_trips
        self.breaker_recoveries += other.breaker_recoveries
        self.breaker_skipped += other.breaker_skipped

    def copy(self) -> "CacheStats":
        return CacheStats(**self.as_dict())

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after the *since* snapshot (per-item
        attribution when several items share one cache instance)."""
        ours = self.as_dict()
        return CacheStats(
            **{key: ours[key] - value for key, value in since.as_dict().items()}
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_errors": self.disk_errors,
            "quarantined": self.quarantined,
            "shared_hits": self.shared_hits,
            "shared_misses": self.shared_misses,
            "contention_retries": self.contention_retries,
            "quarantine_evicted": self.quarantine_evicted,
            "breaker_trips": self.breaker_trips,
            "breaker_recoveries": self.breaker_recoveries,
            "breaker_skipped": self.breaker_skipped,
        }


# --------------------------------------------------------------------------- #
# the two-tier store
# --------------------------------------------------------------------------- #


class SummaryCache:
    """In-memory LRU over an optional durable :class:`CacheBackend`.

    With ``cache_dir=None`` the cache is memory-only (useful for tests
    and single-process warm reruns).  With a directory, *backend*
    selects the durable tier: ``"disk"`` (pickle files, the default),
    ``"shared"`` (multi-process SQLite), an already-built
    :class:`CacheBackend` instance, or None to defer to
    ``$PANORAMA_CACHE_BACKEND``.
    """

    def __init__(
        self,
        cache_dir=None,
        max_memory_entries: int = 512,
        backend: Union[str, CacheBackend, None] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_memory_entries = max(1, max_memory_entries)
        self._memory: OrderedDict[str, RoutineCacheEntry] = OrderedDict()
        self.stats = CacheStats()
        if backend is None or isinstance(backend, str):
            self.backend = make_backend(backend, cache_dir, self.stats)
        else:
            self.backend = backend
            backend.bind_stats(self.stats)

    @property
    def backend_name(self) -> str:
        """The active durable tier: ``"memory"``/``"disk"``/``"shared"``."""
        return self.backend.name if self.backend is not None else "memory"

    # -- lookup -------------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[RoutineCacheEntry]:
        """The cached entry, consulting memory then the backend; None on
        miss."""
        entry = self._memory.get(fingerprint)
        if entry is not None:
            self._memory.move_to_end(fingerprint)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return entry
        entry = self.backend.get(fingerprint) if self.backend else None
        if entry is not None:
            self._remember(fingerprint, entry)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return entry
        self.stats.misses += 1
        return None

    def __contains__(self, fingerprint: str) -> bool:
        if fingerprint in self._memory:
            return True
        return self.backend is not None and self.backend.contains(fingerprint)

    def __len__(self) -> int:
        return len(self._memory)

    # -- store --------------------------------------------------------------------

    def put(self, entry: RoutineCacheEntry) -> None:
        """Store an entry under its fingerprint (memory + backend)."""
        existing = self._memory.get(entry.fingerprint)
        if existing is not None:
            entry = existing.merge(entry)
        self._remember(entry.fingerprint, entry)
        self.stats.stores += 1
        if self.backend is not None:
            self.backend.put(entry)

    def adopt(self, fingerprints: Iterable[str]) -> int:
        """Prime the memory tier with entries another process wrote to the
        shared durable tier (the batch engine's cache-delta merge).
        Returns the number of entries actually loaded."""
        if self.backend is None:
            return 0
        loaded = 0
        for fp in fingerprints:
            if fp in self._memory:
                continue
            entry = self.backend.get(fp)
            if entry is not None:
                self._remember(fp, entry)
                loaded += 1
        return loaded

    def clear_memory(self) -> None:
        """Drop the memory tier (durable entries survive)."""
        self._memory.clear()

    def close(self) -> None:
        """Release backend handles (safe to keep using: they reopen)."""
        if self.backend is not None:
            self.backend.close()

    # -- internals ----------------------------------------------------------------

    def _remember(self, fingerprint: str, entry: RoutineCacheEntry) -> None:
        self._memory[fingerprint] = entry
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, fingerprint: str) -> Optional[Path]:
        """Disk-tier file of one fingerprint (None off the disk backend);
        kept because tests and ops tooling reach for the raw file."""
        if isinstance(self.backend, DiskBackend):
            return self.backend.path(fingerprint)
        return None


# --------------------------------------------------------------------------- #
# pipeline binding
# --------------------------------------------------------------------------- #


class CachingHooks(PipelineHooks):
    """:class:`~repro.driver.panorama.PipelineHooks` implementation that
    serves cached summaries into the analyzer and harvests fresh ones.

    One instance covers one ``Panorama.compile`` call; after ``finish``
    the instance exposes what happened (``fingerprints``, ``reused``,
    ``computed``, ``stored_fingerprints``) for telemetry and the batch
    engine's cache-delta merge.
    """

    def __init__(self, cache: SummaryCache) -> None:
        self.cache = cache
        self.fingerprints: dict[str, str] = {}
        #: call edges of the compiled program (for incremental diffing)
        self.callees: dict[str, frozenset[str]] = {}
        #: per-routine normalized-source hashes, callee-independent
        self.unit_hashes: dict[str, str] = {}
        #: routines served (at least partly) from the cache
        self.reused: set[str] = set()
        #: routines whose summaries had to be computed this run
        self.computed: set[str] = set()
        #: fingerprints written to the cache by this compile (the delta)
        self.stored_fingerprints: list[str] = []
        #: True when step budgets force the hooks inert (see attach)
        self._bypass = False
        self._entries: dict[str, RoutineCacheEntry] = {}

    # PipelineHooks interface ------------------------------------------------------

    def attach(self, analyzer, hsg) -> None:
        self.fingerprints = fingerprint_program(
            hsg.analyzed.program, hsg.call_graph, analyzer.options
        )
        self.callees = {
            name: hsg.call_graph.calls(name) for name in self.fingerprints
        }
        self.unit_hashes = {
            name: unit_source_hash(hsg.analyzed.program, name)
            for name in self.fingerprints
        }
        # Step budgets charge per analysis step, so a served summary
        # changes *where* exhaustion lands — warm and cold runs could
        # degrade different loops and verdicts would drift.  Under
        # budget_steps the hooks go inert: fingerprints still flow (for
        # incremental diffing) but nothing is served or stored, making
        # warm == cold by construction.
        self._bypass = analyzer.options.budget_steps is not None
        if self._bypass:
            self._entries = {}
            self.reused = set()
            return
        entries: dict[str, RoutineCacheEntry] = {}
        for routine, fp in self.fingerprints.items():
            entry = self.cache.get(fp)
            if entry is not None:
                entries[routine] = entry
        self._entries = entries
        self.reused = set(entries)

        def summary_provider(unit_name: str):
            entry = entries.get(unit_name)
            return entry.summary if entry is not None else None

        def loop_record_provider(key):
            entry = entries.get(key[0])
            return entry.loop_records.get(key) if entry is not None else None

        analyzer.summary_provider = summary_provider
        analyzer.loop_record_provider = loop_record_provider

    def finish(self, result) -> None:
        analyzer = result.analyzer
        if self._bypass:
            return
        if analyzer.stats.budget_degradations:
            # a wall-clock budget fired mid-analysis: these summaries are
            # conservative placeholders, not facts — storing them would
            # poison every future warm run with degraded verdicts
            return
        self._force_provider_summaries(analyzer)
        if analyzer.stats.budget_degradations:
            return  # the forced computation itself ran out of budget
        summaries = analyzer.export_routine_summaries()
        by_routine: dict[str, dict] = {}
        for key, record in analyzer.export_loop_records().items():
            by_routine.setdefault(key[0], {})[key] = record
        for routine, fp in self.fingerprints.items():
            new_records = {
                key: record
                for key, record in by_routine.get(routine, {}).items()
                if key not in analyzer.provided_loop_records
            }
            summary = summaries.get(routine)
            fresh_summary = (
                summary is not None
                and routine not in analyzer.provided_summaries
            )
            if not new_records and not fresh_summary:
                continue  # everything this compile knows came from the cache
            self.computed.add(routine)
            self.cache.put(
                RoutineCacheEntry(
                    fingerprint=fp,
                    routine=routine,
                    summary=summary,
                    loop_records=dict(by_routine.get(routine, {})),
                )
            )
            self.stored_fingerprints.append(fp)

    def _force_provider_summaries(self, analyzer) -> None:
        """Materialize summaries of caller-less routines.

        Summaries are normally computed on demand — when some in-item
        caller needs SUM_call — so a routine nobody calls (a *library*
        item analyzed standalone, the unit of sharing in campaign
        corpora) would leave the compile with nothing cacheable.
        Computing it here turns every such item into a provider: the
        summary is context-independent, so any later item embedding the
        identical routine (identical fingerprint) starts warm.  Verdicts
        are unaffected — they were extracted before finish runs.
        """
        called: set[str] = set()
        for callees in self.callees.values():
            called |= callees
        for unit in analyzer.hsg.analyzed.program.units:
            if unit.kind == "program" or unit.name in called:
                continue
            try:
                analyzer.routine_summary(unit.name)
            except Exception:
                pass  # an uncomputable summary is simply not cached
