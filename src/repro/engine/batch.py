"""The batch analysis engine: fan many sources over worker processes.

``BatchEngine`` amortizes analysis cost two ways at once:

* **parallelism** — items fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (analysis is pure
  CPU-bound Python, so processes, not threads);
* **the summary cache** — every worker opens the same on-disk
  :class:`~repro.engine.cache.SummaryCache` tier, so routines shared
  between items (or re-analyzed across batch runs) are summarized once;
  an item whose whole result is already in the cache's result tier is
  served before anything is parsed.

Workers return *serialized* verdict rows (the same dicts ``panorama
--json`` prints); what they summarized lands in the durable tier, where
the next item or run that needs it finds it.  :func:`compile_item` is
the one cached compile of an item: the batch worker, the daemon's
analyze request and its watch revision all run it.

The pool is *supervised* (docs/robustness.md): every item carries a
typed error kind instead of a bare traceback, futures get per-item
wall-clock deadlines, failed items are retried with exponential backoff
and seeded jitter, a crashed or hung worker takes down only its item
(the pool is rebuilt and in-flight innocents are re-dispatched without
an attempt penalty), and an item that keeps failing is quarantined so
one poison input can never stall the batch.  A batch therefore always
terminates with a complete :class:`BatchReport`.
"""

from __future__ import annotations

import os
import random
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from ..dataflow.options import AnalysisOptions
from ..diagnostics import Severity, diagnostic_from_dict
from ..driver.flags import read_source
from ..driver.hooks import CompositeHooks, PipelineHooks
from ..driver.report import result_to_dict
from ..errors import (
    EXIT_DEGRADED,
    EXIT_HARD_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    FAULT_ERROR_KINDS,
    HARD_ERROR_KINDS,
    classify_exception,
)
from ..perf import profiler
from ..resilience import faults
from ..resilience.backoff import backoff_delay
from .cache import (
    CacheStats,
    CachingHooks,
    SummaryCache,
    payload_degraded,
    result_key,
    serves_results,
)
from .ledger import LedgerReplay, LedgerWriter
from .telemetry import SUPERVISION_COUNTERS, EngineTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from ..audit.auditor import AuditReport
    from ..driver.panorama import CompilationResult


@dataclass(frozen=True)
class BatchItem:
    """One unit of batch work: a named Fortran source."""

    name: str
    source: str
    #: problem-size bindings for the machine model (kernel registry)
    sizes: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def from_path(cls, path: str | Path) -> "BatchItem":
        """An item for one source file; an unreadable or non-UTF-8 file
        raises :class:`OSError` naming it (:func:`read_source`)."""
        return cls(name=Path(path).name, source=read_source(path))


def items_from_paths(paths: Iterable[str | Path]) -> list[BatchItem]:
    """Batch items for a list of Fortran source files."""
    return [BatchItem.from_path(p) for p in paths]


def items_from_kernel_registry() -> list[BatchItem]:
    """One batch item per distinct Perfect-benchmark program."""
    from ..kernels import KERNELS

    by_program: dict[str, BatchItem] = {}
    for kernel in KERNELS:
        if kernel.program not in by_program:
            by_program[kernel.program] = BatchItem(
                name=kernel.program, source=kernel.source, sizes=dict(kernel.sizes)
            )
    return list(by_program.values())


@dataclass
class BatchItemResult:
    """What one item's analysis produced (or the error it died with)."""

    name: str
    payload: Optional[dict[str, Any]] = None  # result_to_dict output
    cache_stats: CacheStats = field(default_factory=CacheStats)
    error: Optional[str] = None
    #: typed taxonomy of the failure (repro.errors.classify_exception):
    #: "source" | "analysis" | "internal" | "timeout" | "worker-crash" |
    #: "oom" | "budget"; None when ok
    error_kind: Optional[str] = None
    #: how many times the item was dispatched (retries included)
    attempts: int = 1
    #: True when the item used up max_attempts and was set aside
    quarantined: bool = False
    #: True when this result was served from a run ledger (--resume)
    #: instead of being analyzed by this process
    from_ledger: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def degraded(self) -> bool:
        """Did resilience machinery (not clean analysis) shape this result?

        True for fault-kind failures (timeout, crash, OOM), for
        quarantined items, and for successful items whose verdicts
        include budget-exhaustion fallbacks.
        """
        if self.quarantined:
            return True
        if not self.ok:
            return self.error_kind in FAULT_ERROR_KINDS
        return self.payload is not None and payload_degraded(self.payload)

    def rows(self) -> list[dict[str, Any]]:
        """The per-loop verdict rows (empty on error)."""
        return list(self.payload.get("loops", [])) if self.payload else []


@dataclass
class BatchReport:
    """Everything a batch run produced, in input order."""

    results: list[BatchItemResult]
    telemetry: EngineTelemetry
    #: every input item has a result (the supervisor guarantees this;
    #: False would mean the engine itself lost items — unless the run
    #: was interrupted, in which case undispatched items have none)
    complete: bool = True
    #: True when a drain request or KeyboardInterrupt stopped the run
    #: early; everything finalized so far was flushed (result-tier
    #: stores, ledger records), so the partial state is consistent and
    #: a ledger resume continues exactly where this run stopped
    interrupted: bool = False

    def result(self, name: str) -> BatchItemResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def verdict_rows(self) -> dict[str, list[dict[str, Any]]]:
        """All verdict rows, keyed by item name."""
        return {r.name: r.rows() for r in self.results}

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def degraded(self) -> bool:
        return any(r.degraded for r in self.results)

    def hard_failures(self) -> list[BatchItemResult]:
        """Failures that are *not* resilience degradations: bad source,
        analysis bugs, unclassified crashes."""
        return [
            r
            for r in self.results
            if not r.ok
            and (r.error_kind is None or r.error_kind in HARD_ERROR_KINDS)
        ]

    def audit_diagnostics(self) -> list:
        """Every audit diagnostic across the batch, rehydrated.

        Items are :class:`~repro.diagnostics.Diagnostic` objects (the
        workers ship them as dicts inside the payload's ``"audit"`` key).
        Empty when the engine ran without ``audit=True``.
        """
        out = []
        for res in self.results:
            if res.payload is None:
                continue
            audit = res.payload.get("audit")
            if not audit:
                continue
            out.extend(
                diagnostic_from_dict(d) for d in audit.get("diagnostics", [])
            )
        return out

    def audit_errors(self) -> list:
        """Error-severity audit diagnostics (what --strict-audit fails on)."""
        return [
            d for d in self.audit_diagnostics() if d.level is Severity.ERROR
        ]

    def exit_code(self) -> int:
        """Process exit status: 0 clean, 3 degraded-but-complete, 1
        hard, 5 interrupted-but-consistent.

        The distinction lets callers script around flaky infrastructure
        (3 = every item has a typed verdict or typed failure, some were
        degraded; 5 = a drain/interrupt stopped the run early but the
        partial state is flushed and resumable) versus real
        input/analysis errors (1).
        """
        if self.hard_failures():
            return EXIT_HARD_FAILURE
        if self.interrupted and not self.complete:
            return EXIT_INTERRUPTED
        if not self.complete:
            return EXIT_HARD_FAILURE
        if self.degraded or not self.ok:
            return EXIT_DEGRADED
        return EXIT_OK


# --------------------------------------------------------------------------- #
# the item path: one cached compile, and the worker body around it (top
# level: must be picklable by the process pool)
# --------------------------------------------------------------------------- #


def compile_item(
    item: BatchItem,
    options: AnalysisOptions,
    cache: SummaryCache,
    *,
    machine: bool,
    audit: bool,
    hooks: Optional[PipelineHooks] = None,
) -> tuple[CompilationResult, Optional["AuditReport"], CachingHooks]:
    """Compile one item against *cache*, then audit it when asked.

    Returns the compilation, the audit report (None without *audit*) and
    the :class:`CachingHooks` that rode the compile (what it served and
    stored, and the unit hashes a watch revision diffs).  Extra *hooks*
    run after the cache's own.  Failures propagate: each caller maps
    them through :func:`~repro.errors.classify_exception`.

    The pipeline is imported here, on the first item that misses the
    result tier: a run whose items are all served loads no analysis.
    """
    from ..driver.panorama import Panorama

    caching = CachingHooks(cache)
    panorama = Panorama(
        options,
        sizes=item.sizes,
        run_machine_model=machine,
        hooks=caching if hooks is None else CompositeHooks(caching, hooks),
    )
    result = panorama.compile(item.source)
    audit_report = None
    if audit:
        from ..audit import audit_compilation

        audit_report = audit_compilation(result, item.name, source=item.source)
    return result, audit_report, caching


def _analyze_item(
    item: BatchItem,
    options: AnalysisOptions,
    cache_dir: Optional[str],
    run_machine_model: bool,
    cache: Optional[SummaryCache] = None,
    attempt: int = 1,
    audit: bool = False,
    cache_backend: Optional[str] = None,
) -> BatchItemResult:
    """Analyze one item through :func:`compile_item`.

    Never raises for analysis failures — every exception comes back as a
    typed :class:`BatchItemResult` — but interrupt-style exceptions
    (KeyboardInterrupt, SystemExit) are re-raised so Ctrl-C still stops
    a batch, and MemoryError is reported as kind ``"oom"`` rather than
    being formatted into a traceback (formatting may itself re-raise).
    """
    # fault-injection sites (no-ops unless a plan is installed); the
    # attempt number is the occurrence so an "@1" worker fault fires on
    # the first dispatch only, even from a freshly respawned worker
    if faults.should_fire("worker.crash", key=item.name, occurrence=attempt):
        os._exit(86)
    try:
        if faults.should_fire("item.hang", key=item.name, occurrence=attempt):
            time.sleep(faults.HANG_SECONDS)
        if faults.should_fire("item.error", key=item.name, occurrence=attempt):
            raise RuntimeError(f"injected fault: item.error {item.name}")
        own_cache = (
            cache
            if cache is not None
            else SummaryCache(cache_dir, backend=cache_backend)
        )
        before = own_cache.stats.copy()
        result, audit_report, _ = compile_item(
            item, options, own_cache, machine=run_machine_model, audit=audit
        )
        return BatchItemResult(
            name=item.name,
            payload=result_to_dict(result, name=item.name, audit=audit_report),
            cache_stats=own_cache.stats.delta(before),
            attempts=attempt,
        )
    except (KeyboardInterrupt, SystemExit, GeneratorExit):
        raise
    except MemoryError:
        return BatchItemResult(
            name=item.name,
            error="MemoryError during analysis",
            error_kind="oom",
            attempts=attempt,
        )
    except BaseException as exc:
        return BatchItemResult(
            name=item.name,
            error=traceback.format_exc(),
            error_kind=classify_exception(exc),
            attempts=attempt,
        )


#: how often a pool worker checks that the engine process still lives
_PARENT_POLL_SECONDS = 0.25


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the parent process is gone.

    A parent that dies without shutting its pool down (``os._exit``,
    SIGKILL, the OOM killer) leaves its workers blocked on the call
    queue forever, still holding every inherited pipe open.  Orphaning
    changes a process's parent, so a daemon thread watches for that.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(EXIT_HARD_FAILURE)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    # only a pool run loads concurrent.futures and multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)


def _worker_main(args: tuple) -> BatchItemResult:
    (
        item,
        options,
        cache_dir,
        run_machine_model,
        attempt,
        audit,
        cache_backend,
    ) = args
    return _analyze_item(
        item,
        options,
        cache_dir,
        run_machine_model,
        attempt=attempt,
        audit=audit,
        cache_backend=cache_backend,
    )


def _result_from_ledger(record: Mapping[str, Any]) -> BatchItemResult:
    """Rehydrate a ledger ``done`` record into a served result.

    The payload and its cache counters are exactly what the original
    process computed — replay already verified the digest — so a resumed
    run's report folds the same verdict data the uninterrupted run would
    have.
    """
    known = CacheStats().as_dict()
    raw = record.get("cache_stats") or {}
    return BatchItemResult(
        name=str(record.get("name", "?")),
        payload=record.get("payload"),
        cache_stats=CacheStats(
            **{k: int(v) for k, v in raw.items() if k in known}
        ),
        attempts=int(record.get("attempt", 1)),
        from_ledger=True,
    )


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #


class BatchEngine:
    """Analyze many Fortran sources with shared caching and N workers.

    ``jobs=1`` runs in-process against the engine's own two-tier cache;
    ``jobs>1`` fans items across a process pool whose workers share the
    durable tier (``cache_dir``).  With ``jobs>1`` and no ``cache_dir``
    each worker still caches privately in memory, but nothing is shared
    — pass a directory to get the amortization the engine exists for.
    """

    def __init__(
        self,
        options: AnalysisOptions | None = None,
        cache_dir: str | Path | None = None,
        jobs: int = 1,
        run_machine_model: bool = True,
        max_memory_entries: int = 512,
        timeout_per_item: float | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        retry_seed: int = 0,
        audit: bool = False,
        cache_backend: str | None = None,
        ledger: Optional[LedgerWriter] = None,
        resume: Optional[LedgerReplay] = None,
        drain_timeout: float = 10.0,
    ) -> None:
        self.options = options or AnalysisOptions()
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.jobs = max(1, jobs)
        self.run_machine_model = run_machine_model
        #: durable-tier selection ("disk" | "shared" | None = disk)
        self.cache_backend = cache_backend
        self.cache = SummaryCache(
            self.cache_dir, max_memory_entries, backend=cache_backend
        )
        #: wall-clock seconds before an in-flight item is declared hung
        #: (pool mode only; None = wait forever)
        self.timeout_per_item = timeout_per_item
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        #: seed for the retry-backoff jitter (deterministic chaos runs)
        self.retry_seed = retry_seed
        #: run the static race auditor on every item (docs/auditing.md)
        self.audit = audit
        #: supervision counters of the most recent run (rolled into the
        #: report's EngineTelemetry)
        self.supervision: dict[str, int] = {}
        #: run ledger writer (None = no journaling) and the replay of a
        #: prior ledger to resume from (None = fresh run); the caller
        #: must have verified replay identity (ledger.verify_identity)
        self.ledger = ledger
        self.resume = resume
        #: graceful drain: once requested, no new items are dispatched,
        #: in-flight ones get this many seconds to finish, and the run
        #: ends interrupted-but-consistent (report.interrupted)
        self.drain_timeout = drain_timeout
        self._drain_event = threading.Event()
        #: True when the most recent run was stopped early
        self.interrupted = False
        #: items finalized this run (the engine.crash fault occurrence)
        self._finalized = 0
        #: item index -> (result key, cache counters of its lookup) for
        #: the items of this run that missed the result tier
        self._result_keys: dict[int, tuple[str, CacheStats]] = {}

    def request_drain(self) -> None:
        """Stop dispatching; finish in flight; flush; end the run.

        Safe to call from a signal handler or another thread — the run
        loop polls the event between dispatches.
        """
        self._drain_event.set()

    @property
    def draining(self) -> bool:
        return self._drain_event.is_set()

    def _finalize(self, index: int, result: BatchItemResult) -> None:
        """Store and journal one finalized item, then run the engine.crash
        site.

        An item that missed the result tier is stored there unless it
        failed or degraded, and its lookup and store count toward its
        cache counters.  The fault fires *after* the ledger record lands
        — exactly the hard-kill point the resume machinery must survive
        — with the running finalized count as the occurrence, so
        ``engine.crash@N`` kills the process after the N-th finalized
        item.
        """
        pending = self._result_keys.pop(index, None)
        if pending is not None:
            key, lookup = pending
            before = self.cache.stats.copy()
            if result.ok:
                self.cache.put_result(key, result.payload)
            result.cache_stats.merge(lookup)
            result.cache_stats.merge(self.cache.stats.delta(before))
        if self.ledger is not None:
            if result.ok:
                self.ledger.record_done(index, result)
            else:
                self.ledger.record_failed(index, result)
        self._finalized += 1
        if faults.should_fire(
            "engine.crash", key=result.name, occurrence=self._finalized
        ):
            os._exit(86)

    def run(self, items: Sequence[BatchItem]) -> BatchReport:
        """Analyze every item; results come back in input order.

        With a ``resume`` replay, items whose ledger records say
        ``done`` are served from the ledger.  Every other item is looked
        up in the result tier before anything is parsed: a hit is served
        whole, and only the misses are analyzed, in input order.  A drain
        request or KeyboardInterrupt stops the run early: everything
        finalized keeps its result, result-tier stores and ledger
        records are flushed, and the report comes back ``interrupted``.
        """
        t0 = time.perf_counter()
        self.supervision = dict.fromkeys(SUPERVISION_COUNTERS, 0)
        self.interrupted = False
        self._finalized = 0
        self._result_keys = {}
        results_by_idx: list[Optional[BatchItemResult]] = [None] * len(items)
        resumed: dict[int, BatchItemResult] = {}
        if self.resume is not None:
            for idx, item in enumerate(items):
                record = self.resume.done.get(idx)
                if record is not None and record.get("name") == item.name:
                    resumed[idx] = _result_from_ledger(record)
            for idx, res in resumed.items():
                results_by_idx[idx] = res
        active = [i for i in range(len(items)) if i not in resumed]
        if serves_results(self.options):
            active = self._serve_results(items, active, results_by_idx)
        sub_items = [items[i] for i in active]
        # timeouts need process isolation: a hung item can only be killed
        # from outside, so supervision forces the pool even for one item
        supervised = self.jobs > 1 and (
            len(sub_items) > 1
            or (len(sub_items) == 1 and self.timeout_per_item is not None)
        )
        if not supervised:
            try:
                for idx, item in zip(active, sub_items):
                    if self._drain_event.is_set():
                        self.interrupted = True
                        break
                    if self.ledger is not None:
                        self.ledger.record_dispatched(idx, item.name, attempt=1)
                    res = _analyze_item(
                        item,
                        self.options,
                        self.cache_dir,
                        self.run_machine_model,
                        cache=self.cache,
                        audit=self.audit,
                        cache_backend=self.cache_backend,
                    )
                    results_by_idx[idx] = res
                    self._finalize(idx, res)
            except KeyboardInterrupt:
                # Ctrl-C mid-item: keep everything finalized so far —
                # the in-process cache already holds its stores, and the
                # ledger's end record below makes the stop consistent
                self.interrupted = True
        else:
            # forked workers inherit the parent's modules: load the
            # pipeline here once, not once in every worker
            from ..driver import panorama  # noqa: F401

            pool_results = self._run_pool(sub_items, active)
            for sub_idx, res in enumerate(pool_results):
                if res is not None:
                    results_by_idx[active[sub_idx]] = res
        results = [r for r in results_by_idx if r is not None]
        complete = len(results) == len(items)
        if self.ledger is not None:
            self.ledger.record_end(
                "interrupted" if self.interrupted else "complete"
            )
        report = BatchReport(
            results=results,
            telemetry=EngineTelemetry(),
            complete=complete,
            interrupted=self.interrupted,
        )
        tele = report.telemetry
        tele.jobs = self.jobs
        tele.wall_seconds = time.perf_counter() - t0
        tele.cache_backend = self.cache.backend_name
        tele.interrupted = self.interrupted
        tele.resilience["resumed_items"] = len(resumed)
        for res in results:
            if res.ok and res.payload is not None:
                tele.note_result(res.payload)
            else:
                tele.errors += 1
            tele.note_cache(res.cache_stats)
            if res.degraded:
                tele.resilience["degraded_items"] += 1
        profiler.merge(tele.resilience, self.supervision)
        return report

    # -- internals ----------------------------------------------------------------

    def _serve_results(
        self,
        items: Sequence[BatchItem],
        active: list[int],
        results_by_idx: list[Optional[BatchItemResult]],
    ) -> list[int]:
        """Look every active item up in the result tier, finalize the
        hits, and return the indexes still to analyze.

        All lookups happen before any item is analyzed, so items of one
        run never serve each other.
        """
        misses = []
        for idx in active:
            item = items[idx]
            key = result_key(
                item.source,
                self.options,
                item.sizes,
                machine=self.run_machine_model,
                audit=self.audit,
                name=item.name,
            )
            before = self.cache.stats.copy()
            payload = self.cache.get_result(key, item.name)
            lookup = self.cache.stats.delta(before)
            if payload is None:
                self._result_keys[idx] = (key, lookup)
                misses.append(idx)
                continue
            res = BatchItemResult(
                name=item.name, payload=payload, cache_stats=lookup
            )
            results_by_idx[idx] = res
            self._finalize(idx, res)
        return misses

    def _task(self, item: BatchItem, attempt: int) -> tuple:
        return (
            item,
            self.options,
            self.cache_dir,
            self.run_machine_model,
            attempt,
            self.audit,
            self.cache_backend,
        )

    @staticmethod
    def _teardown_pool(pool: ProcessPoolExecutor) -> None:
        """Stop a pool that may contain hung workers.

        ``shutdown`` alone would join the workers and block forever on a
        hung one, so the processes are killed first.  SIGKILL, not
        SIGTERM: workers fork after the CLI installs its drain handlers
        and inherit them, so SIGTERM would only set a drain flag in a
        hung worker.  This runs only for workers the engine has given up
        on (past their deadline, in a broken pool, after the drain
        timeout, or at the end of the run), and a killed worker leaves
        no torn cache entry: disk entries land through ``os.replace``
        and the shared tier is WAL SQLite.
        """
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pool(
        self,
        items: Sequence[BatchItem],
        index_map: Sequence[int],
    ) -> list[Optional[BatchItemResult]]:
        """Supervised fan-out: deadlines, retries, pool rebuilds.

        State machine per item: *ready* (in input order) → in-flight →
        (result | retry with backoff | quarantine).  The loop ends only
        when every item has a result, so the batch can never deadlock
        on a lost item.  A drain request empties the dispatch queues,
        gives in-flight items ``drain_timeout`` seconds, then abandons
        the rest (their ledger state stays ``dispatched``, so a resume
        re-runs them); everything finalized keeps its result.

        *index_map* translates local indexes to the caller's item space
        (ledger records must carry original indexes when a resume has
        filtered the item list).
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.jobs, len(items))
        results: list[Optional[BatchItemResult]] = [None] * len(items)
        attempts = [0] * len(items)
        ready: deque[int] = deque(range(len(items)))
        delayed: list[tuple[float, int]] = []  # (resume monotonic time, idx)
        pending: dict[Any, tuple[int, Optional[float]]] = {}
        rng = random.Random(self.retry_seed)
        sup = self.supervision
        pool = _new_pool(workers)
        # probe mode: after a pool breakage the culprit cannot be
        # attributed, so items are dispatched one at a time until a
        # worker round-trips successfully — a persistently crashing item
        # then only ever takes itself down, not in-flight innocents
        probe = False

        def submit(idx: int) -> None:
            attempts[idx] += 1
            if self.ledger is not None:
                self.ledger.record_dispatched(
                    index_map[idx], items[idx].name, attempt=attempts[idx]
                )
            fut = pool.submit(_worker_main, self._task(items[idx], attempts[idx]))
            deadline = (
                time.monotonic() + self.timeout_per_item
                if self.timeout_per_item is not None
                else None
            )
            pending[fut] = (idx, deadline)

        def fail(idx: int, kind: str, message: str) -> None:
            """Record a failed attempt: retry, or produce a final result."""
            if kind != "source" and attempts[idx] < self.max_attempts:
                sup["retries"] += 1
                delay = backoff_delay(attempts[idx], self.backoff_base, rng)
                delayed.append((time.monotonic() + delay, idx))
                return
            quarantined = kind not in ("source",) and attempts[idx] >= self.max_attempts
            if quarantined:
                sup["quarantined"] += 1
            results[idx] = BatchItemResult(
                name=items[idx].name,
                error=message,
                error_kind=kind,
                attempts=attempts[idx],
                quarantined=quarantined,
            )
            self._finalize(index_map[idx], results[idx])

        def rebuild_pool() -> ProcessPoolExecutor:
            sup["pool_rebuilds"] += 1
            self._teardown_pool(pool)
            return _new_pool(workers)

        draining = False
        drain_deadline: Optional[float] = None
        try:
            while ready or delayed or pending:
                if self._drain_event.is_set() and not draining:
                    # graceful drain: dispatch nothing further, let the
                    # in-flight items finish inside the timeout; dropped
                    # queue entries keep ledger state "dispatched"/none
                    # and are re-dispatched by a resume
                    draining = True
                    self.interrupted = True
                    drain_deadline = time.monotonic() + max(
                        0.0, self.drain_timeout
                    )
                    ready.clear()
                    delayed.clear()
                if draining and not pending:
                    break
                now = time.monotonic()
                if delayed:
                    still: list[tuple[float, int]] = []
                    for resume, idx in delayed:
                        if resume <= now:
                            ready.append(idx)
                        else:
                            still.append((resume, idx))
                    delayed = still
                while ready and not (probe and pending):
                    idx = ready.popleft()
                    try:
                        submit(idx)
                    except BrokenProcessPool:
                        sup["worker_crashes"] += 1
                        probe = True
                        fail(
                            idx,
                            "worker-crash",
                            f"worker pool broke submitting {items[idx].name} "
                            f"(attempt {attempts[idx]})",
                        )
                        pool = rebuild_pool()
                if not pending:
                    # everything is backing off: sleep to the nearest
                    # resume time
                    if delayed:
                        time.sleep(
                            max(0.0, min(t for t, _ in delayed) - now)
                        )
                    continue

                wait_until: Optional[float] = None
                for _, deadline in pending.values():
                    if deadline is not None:
                        wait_until = (
                            deadline
                            if wait_until is None
                            else min(wait_until, deadline)
                        )
                for resume, _ in delayed:
                    wait_until = (
                        resume
                        if wait_until is None
                        else min(wait_until, resume)
                    )
                if drain_deadline is not None:
                    wait_until = (
                        drain_deadline
                        if wait_until is None
                        else min(wait_until, drain_deadline)
                    )
                timeout = (
                    None if wait_until is None else max(0.0, wait_until - now)
                )
                done, _ = wait(
                    set(pending), timeout=timeout, return_when=FIRST_COMPLETED
                )

                broken = False
                for fut in done:
                    idx, _ = pending.pop(fut)
                    try:
                        res = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        sup["worker_crashes"] += 1
                        fail(
                            idx,
                            "worker-crash",
                            f"worker process died analyzing "
                            f"{items[idx].name} (attempt {attempts[idx]})",
                        )
                    except Exception as exc:  # pickling errors etc.
                        fail(idx, classify_exception(exc), repr(exc))
                    else:
                        # the worker round-tripped: crashes are
                        # attributable again, leave probe mode
                        probe = False
                        if res.ok:
                            results[idx] = res
                            self._finalize(index_map[idx], res)
                        else:
                            fail(idx, res.error_kind or "internal", res.error)
                if broken:
                    # the crash poisons every in-flight future: penalize
                    # them one attempt each (the culprit cannot be
                    # attributed) and re-dispatch through the retry path
                    # on a fresh pool
                    probe = True
                    sup["worker_crashes"] += len(pending)
                    for fut, (idx, _) in list(pending.items()):
                        fail(
                            idx,
                            "worker-crash",
                            f"worker pool broke while {items[idx].name} was "
                            f"in flight (attempt {attempts[idx]})",
                        )
                    pending.clear()
                    pool = rebuild_pool()
                    continue

                # deadline sweep: in-flight items past their budget hung
                now = time.monotonic()
                expired = [
                    (fut, idx)
                    for fut, (idx, deadline) in pending.items()
                    if deadline is not None and now >= deadline
                ]
                if expired:
                    sup["timeouts"] += len(expired)
                    expired_ids = set()
                    for fut, idx in expired:
                        expired_ids.add(idx)
                        del pending[fut]
                        fail(
                            idx,
                            "timeout",
                            f"{items[idx].name} exceeded "
                            f"{self.timeout_per_item}s "
                            f"(attempt {attempts[idx]})",
                        )
                    # a hung worker cannot be cancelled: rebuild the pool
                    # and re-dispatch the innocent in-flight items at no
                    # attempt cost (their work is lost, not their fault)
                    innocents = [idx for _, (idx, _) in pending.items()]
                    pending.clear()
                    for idx in innocents:
                        attempts[idx] -= 1
                        ready.append(idx)
                    pool = rebuild_pool()

                if (
                    draining
                    and pending
                    and drain_deadline is not None
                    and time.monotonic() >= drain_deadline
                ):
                    # drain timeout expired with work still in flight:
                    # abandon it (ledger state stays "dispatched", so a
                    # resume re-runs exactly those items)
                    pending.clear()
                    break
        except KeyboardInterrupt:
            # Ctrl-C without a drain handler installed: salvage every
            # finalized result instead of dropping the whole batch
            self.interrupted = True
        finally:
            self._teardown_pool(pool)
        return results
