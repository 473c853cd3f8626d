"""Content-addressed, two-tier cache of per-routine analysis summaries
and of whole-item results.

The unit of caching is one *routine* (program unit): its interprocedural
(MOD, UE) :class:`~repro.dataflow.summary.Summary` plus every per-loop
:class:`~repro.dataflow.context.LoopSummaryRecord` computed inside it.
In front of the routine summaries sits the *result tier*: the finished,
serialized payload of one whole item under :func:`result_key`, so an
unchanged item is served before it is even parsed.

Cache keys are **fingerprints**: a SHA-256 over

* the routine's *normalized* source (the AST unparsed back to text, so
  whitespace/comment/case differences do not defeat the cache),
* the fingerprints of its transitive callees (the HSG call edges make
  interprocedural invalidation exact — editing a callee changes every
  transitive caller's fingerprint, and nothing else's),
* the :class:`~repro.dataflow.options.AnalysisOptions` tuple (an ablation
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

import dataclasses
import hashlib
import json
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from ..driver.hooks import PipelineHooks
from ..regions import sanitize
from ..resilience import faults
from .backends import CacheBackend, DiskBackend, make_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.analyzer import LoopKey
    from ..dataflow.context import LoopSummaryRecord
    from ..dataflow.options import AnalysisOptions
    from ..dataflow.summary import Summary
    from ..fortran.ast_nodes import Program
    from ..fortran.callgraph import CallGraph

#: bump when RoutineCacheEntry or the pickled analysis types change shape
#: (v2: symbolic terms/exprs/relations are hash-consed and pickle through
#: their interning constructors — v1 pickles carried raw slot state;
#: v3: disk entries are a checksummed container — magic, SHA-256 of the
#: payload, then the payload pickle — so torn/corrupt files are detected
#: before unpickling and quarantined instead of trusted;
#: v4: the frontier pass (content facts + scan recognition) changes
#: summaries through derived index-array forms, and its toggle joined
#: options_key — stale v3 verdicts must not be served either way;
#: v5: options_key is derived from every AnalysisOptions field, and
#: whole-item ResultEntry payloads share the durable tier;
#: v6: integral SymExpr coefficients are ints, GARs carry their array,
#: and clauses and predicates pickle through their constructors;
#: v7: GARs, regions and ranges are rebuilt when unpickled, so their
#: hashes are the loading process's, and GAR lists pickle without theirs;
#: v8: the ``stats`` payload of a stored result lost its ``gar_ops`` key;
#: v9: calls and GOTO cycles stop the conventional screen, a scalar formal
#: bound to an array element writes through it, and a loop body's GOTO
#: cycles are condensed — v8 verdicts and summaries must not be served;
#: v10: fresh symbols are numbered per compile and a reader renames a
#: served entry's symbols apart — a v9 reader renames nothing, so it
#: must never load entries numbered this way)
CACHE_FORMAT_VERSION = 10

#: on-disk container magic; the digest that follows covers the payload
DISK_MAGIC = b"PANC\x03\n"
_DIGEST_LEN = hashlib.sha256().digest_size


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #


def options_key(options: AnalysisOptions) -> str:
    """Stable text form of the analysis options, for fingerprinting.

    Derived from every :class:`AnalysisOptions` field, so a field added
    later can never share fingerprints across different options.
    Budgets are fields too: exhaustion degrades summaries, so a budgeted
    run never shares fingerprints with an unlimited one.
    """
    parts = []
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if f.name == "index_array_forms":
            value = ";".join(
                f"{name}={expr}" for name, expr in sorted(value, key=lambda p: p[0])
            )
        parts.append(f"{f.name}={value}")
    return "|".join(parts)


def result_key(
    source: str,
    options: AnalysisOptions,
    sizes: Mapping[str, int],
    machine: bool,
    audit: bool,
    name: str,
) -> str:
    """Key of one whole item's result: a SHA-256 over everything that
    shapes its payload — the format version, the options, the sizes,
    the machine-model and audit flags, the raw source text, and the
    item name when auditing (diagnostics carry it)."""
    header = json.dumps(
        [
            "panorama-result",
            CACHE_FORMAT_VERSION,
            options_key(options),
            sorted(dict(sizes).items()),
            bool(machine),
            bool(audit),
            name if audit else None,
        ]
    )
    return hashlib.sha256(f"{header}\n{source}".encode()).hexdigest()


def serves_results(options: AnalysisOptions) -> bool:
    """May the result tier be read or written for a run under *options*?

    Not under an analysis budget, a ``PANORAMA_FAULTS`` plan, or the
    armed GAR sanitizer: each of those modes exists to exercise the real
    pipeline, which a served result would skip.
    """
    return (
        options.budget_ms is None
        and options.budget_steps is None
        and not faults.plan().specs
        and not sanitize.enabled()
    )


def payload_degraded(payload: Mapping[str, Any]) -> bool:
    """Do budget-exhaustion fallbacks shape this serialized result?"""
    if payload.get("stats", {}).get("budget_degradations"):
        return True
    return any(row.get("degraded") for row in payload.get("loops", []))


def unit_source_hash(program: Program, name: str) -> str:
    """SHA-256 of one routine's normalized (unparsed) source alone."""
    from ..fortran.printers import unparse_unit

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
class ResultEntry:
    """One whole item's served payload, as encoded JSON bytes."""

    fingerprint: str
    payload: bytes


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
    #: whole items served from the result tier
    result_hits: int = 0

    # The fields are the one list of names; the methods below derive
    # from it through an attrgetter (dataclasses.asdict deep-copies, and
    # the daemon calls these on every request).

    def merge(self, other: "CacheStats") -> None:
        for name, value in zip(_CACHE_COUNTERS, _cache_counts(other)):
            setattr(self, name, getattr(self, name) + value)

    def copy(self) -> "CacheStats":
        return CacheStats(*_cache_counts(self))

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after the *since* snapshot (per-item
        attribution when several items share one cache instance)."""
        return CacheStats(
            *map(operator.sub, _cache_counts(self), _cache_counts(since))
        )

    def as_dict(self) -> dict[str, int]:
        return dict(zip(_CACHE_COUNTERS, _cache_counts(self)))


_CACHE_COUNTERS = tuple(f.name for f in dataclasses.fields(CacheStats))
_cache_counts = operator.attrgetter(*_CACHE_COUNTERS)


# --------------------------------------------------------------------------- #
# the two-tier store
# --------------------------------------------------------------------------- #


class SummaryCache:
    """In-memory LRU over an optional durable :class:`CacheBackend`.

    With ``cache_dir=None`` the cache is memory-only (useful for tests
    and single-process warm reruns).  With a directory, *backend*
    selects the durable tier: ``"disk"`` (pickle files, the default
    also for None), ``"shared"`` (multi-process SQLite), or an
    already-built :class:`CacheBackend` instance.

    Whole-item results (:meth:`get_result`/:meth:`put_result`) keep a
    memory map of their own, bounded by the same *max_memory_entries*,
    so they never evict routine summaries; their durable copies go
    through the same backend.
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
        self._results: OrderedDict[str, bytes] = OrderedDict()
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

    # -- whole-item results -------------------------------------------------------

    def get_result(self, key: str, name: str) -> Optional[dict[str, Any]]:
        """The payload stored under a :func:`result_key`, carrying the
        caller's *name*; None on miss."""
        data = self._results.get(key)
        if data is None:
            entry = self.backend.get(key) if self.backend is not None else None
            if not isinstance(entry, ResultEntry):
                return None
            data = entry.payload
        self._remember_result(key, data)
        self.stats.result_hits += 1
        payload = json.loads(data)
        payload["name"] = name
        return payload

    def put_result(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store one finished item's payload under *key*.

        The entry holds what a served item reports: the verdicts, with
        zero ``timings`` and empty ``symbolic`` counters (serving does
        no such work) and no name (the caller's is put back).  A
        degraded payload is never stored.
        """
        if payload_degraded(payload):
            return
        stored = {k: v for k, v in payload.items() if k != "name"}
        stored["timings"] = dict.fromkeys(payload.get("timings", {}), 0.0)
        stored["symbolic"] = {}
        data = json.dumps(stored, separators=(",", ":")).encode()
        self._remember_result(key, data)
        if self.backend is not None:
            self.backend.put(ResultEntry(key, data))

    def clear_memory(self) -> None:
        """Drop the memory tier (durable entries survive)."""
        self._memory.clear()
        self._results.clear()

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

    def _remember_result(self, key: str, data: bytes) -> None:
        self._results[key] = data
        self._results.move_to_end(key)
        while len(self._results) > self.max_memory_entries:
            self._results.popitem(last=False)

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
    """:class:`~repro.driver.hooks.PipelineHooks` implementation that
    serves cached summaries into the analyzer and harvests fresh ones.

    One instance covers one ``Panorama.compile`` call; after ``finish``
    the instance exposes what happened (``fingerprints``, ``reused``,
    ``computed``, ``unit_hashes``) for a watch revision's
    :func:`~repro.engine.incremental.diff_revisions`.
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
