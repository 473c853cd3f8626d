"""The daemon's synchronous core: resident caches + request handling.

:class:`AnalysisService` owns everything that makes a resident process
worth running — the content-addressed :class:`~repro.engine.cache.SummaryCache`
(memory tier, optionally disk-backed), the process-global interning and
proof-memo tables in :mod:`repro.symbolic` (warm by virtue of the
process staying alive), and the watch sessions' previous revisions —
and exposes plain-Python request methods the asyncio layer calls from
its single analysis thread.  Every compile goes through
:func:`repro.engine.batch.compile_item`, the batch worker's item path.

Request semantics (docs/server.md):

* **typed errors, not crashes** — every failure becomes a
  :class:`RequestError` whose HTTP status comes from its
  :func:`repro.errors.classify_exception` kind: bad source / refused
  programs → 422, malformed request shapes → 400, anything else → 500.
  The resident caches survive all of them: the summary cache is
  content-addressed (a failed compile stores nothing under a key a good
  compile would read), and the interning tables only ever hold
  value-identical entries.
* **budgets degrade in band** — per-request budgets (request-supplied,
  clamped to the server's configured ceilings) never fail a request;
  exhaustion produces conservative ``unknown (budget)`` verdicts marked
  ``degraded`` in the payload, exactly like the CLI's exit-3 path.
* **per-request observability** — each response carries the
  :mod:`repro.perf` gauge delta *this request* caused (a
  ``profiler.snapshot()`` before the work, ``profiler.delta`` after it)
  plus the summary-cache delta, so clients can watch the resident
  caches get warm.
* **unchanged requests are served whole** — an analyze request whose
  source, options, sizes and audit flag were answered before is served
  from the cache's result tier without parsing; a stream replays the
  stored rows as the same events a compile emits.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .. import __version__
from ..dataflow.options import ANALYSIS_FLAGS, TECHNIQUES, AnalysisOptions
from ..driver.hooks import PipelineHooks
from ..driver.panorama import LoopReport
from ..driver.report import loop_report_row, result_to_dict
from ..engine.batch import BatchItem, compile_item
from ..engine.cache import CacheStats, SummaryCache, result_key, serves_results
from ..engine.incremental import diff_revisions
from ..engine.telemetry import EngineTelemetry
from ..errors import classify_exception, describe_failure
from ..perf import profiler

#: event type tags of the NDJSON stream, in emission order
STREAM_EVENTS = ("routine_started", "loop_verdict", "diagnostic", "done")


@dataclass
class ServerConfig:
    """Tunables of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, bound port is announced at startup
    #: admission bound: analyze/watch requests running *or queued* on the
    #: analysis thread; beyond it requests get 429 + Retry-After
    max_inflight: int = 8
    #: Retry-After seconds advertised with a 429
    retry_after_s: float = 1.0
    #: request body cap in bytes (413 beyond it)
    max_body_bytes: int = 4_000_000
    #: per-request budget ceilings; request budgets may only tighten
    #: these (None = no ceiling)
    budget_ms: Optional[float] = None
    budget_steps: Optional[int] = None
    #: optional durable tier for the summary cache (shared with the
    #: batch engine's --cache-dir format)
    cache_dir: Optional[str] = None
    #: durable-tier implementation: "disk" | "shared" | None (= disk);
    #: "shared" lets a daemon and concurrent batch shards serve one
    #: SQLite summary tier
    cache_backend: Optional[str] = None
    #: run the static soundness auditor on every analyze by default
    #: (requests can override per call)
    audit: bool = False
    #: graceful-drain budget: seconds a SIGTERM/SIGINT drain waits for
    #: in-flight requests before tearing the loop down anyway
    drain_timeout_s: float = 10.0


class RequestError(Exception):
    """A request-scoped failure with its HTTP mapping.

    *kind* follows the :func:`repro.errors.classify_exception` taxonomy
    plus the request-shape kinds ``"request"`` (bad field) and
    ``"not-found"`` (unknown watch session).
    """

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.message = message

    def body(self) -> dict[str, Any]:
        return {
            "error": {
                "status": self.status,
                "kind": self.kind,
                "message": self.message,
            }
        }


class _EventHooks(PipelineHooks):
    """Turn pipeline progress, or the stored rows of a served result,
    into NDJSON stream events."""

    def __init__(self, emit: Callable[[dict[str, Any]], None]) -> None:
        self._emit = emit
        self._routine: Optional[str] = None

    def loop_done(self, report: LoopReport) -> None:
        self.row(loop_report_row(report))

    def row(self, row: dict[str, Any]) -> None:
        """Emit the events of one verdict row, in compile order."""
        if row["routine"] != self._routine:
            self._routine = row["routine"]
            self._emit({"event": "routine_started", "routine": row["routine"]})
        # events fire before the machine model runs; don't publish
        # placeholder speedups the final payload will overwrite
        event = {
            key: value
            for key, value in row.items()
            if key not in ("speedup", "pct_sequential")
        }
        event["event"] = "loop_verdict"
        self._emit(event)


@dataclass
class _WatchSession:
    """One LSP-style watch: a named source pinned to options."""

    sid: str
    name: str
    options: AnalysisOptions
    audit: bool
    revisions: int = 0
    #: routine -> normalized-source hash of the last accepted revision
    previous: dict[str, str] = field(default_factory=dict)


class AnalysisService:
    """Resident-state request handler behind ``panorama-serve``.

    Analysis entry points (:meth:`analyze`, :meth:`analyze_stream`,
    :meth:`watch_submit`) must be called from a single thread at a time
    — the asyncio layer guarantees that with its one-worker executor.
    :meth:`health` / :meth:`stats` are read-only and safe from the event
    loop thread.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.cache = SummaryCache(
            self.config.cache_dir, backend=self.config.cache_backend
        )
        self.telemetry = EngineTelemetry()
        self.started_monotonic = time.monotonic()
        self.started_at = time.time()
        #: request counts by endpoint
        self.requests: dict[str, int] = {
            "analyze": 0,
            "analyze_stream": 0,
            "watch_open": 0,
            "watch_submit": 0,
            "watch_close": 0,
            "health": 0,
            "stats": 0,
        }
        #: response counts by HTTP status
        self.responses: dict[str, int] = {}
        #: admission gauges, mutated by the asyncio layer
        self.admission: dict[str, int] = {
            "in_flight": 0,
            "rejected": 0,
            "drained_rejects": 0,
        }
        #: set by PanoramaServer.drain(): health reports "draining" and
        #: new analysis requests get 503 + Retry-After while in-flight
        #: work completes (docs/robustness.md "Crash safety & resume")
        self.draining = False
        self._watch_sessions: dict[str, _WatchSession] = {}
        self._watch_seq = itertools.count(1)

    # -- request bookkeeping ------------------------------------------------------

    def note_request(self, endpoint: str) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def note_response(self, status: int) -> None:
        key = str(status)
        self.responses[key] = self.responses.get(key, 0) + 1

    # -- request parsing ----------------------------------------------------------

    def _source_of(self, body: Any) -> tuple[str, str]:
        """Extract (name, source) from a request body; 400 on bad shape."""
        if not isinstance(body, dict):
            raise RequestError(400, "request", "request body must be a JSON object")
        source = body.get("source")
        if not isinstance(source, str) or not source.strip():
            raise RequestError(
                400, "request", 'missing or empty "source" field (Fortran text)'
            )
        name = body.get("name", "<request>")
        if not isinstance(name, str) or not name:
            raise RequestError(400, "request", '"name" must be a non-empty string')
        return name, source

    def _sizes_of(self, body: dict[str, Any]) -> dict[str, int]:
        sizes = body.get("sizes") or {}
        if not isinstance(sizes, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in sizes.items()
        ):
            raise RequestError(
                400, "request", '"sizes" must map symbol names to integers'
            )
        return dict(sizes)

    def build_options(self, body: dict[str, Any]) -> AnalysisOptions:
        """Request options → :class:`AnalysisOptions`, budgets clamped.

        A request may only *tighten* the server's budget ceilings — a
        client cannot buy itself an unlimited analysis on a daemon
        configured to degrade at 200 ms.
        """
        raw = body.get("options") or {}
        if not isinstance(raw, dict):
            raise RequestError(400, "request", '"options" must be an object')
        unknown = set(raw) - set(ANALYSIS_FLAGS)
        if unknown:
            raise RequestError(
                400, "request",
                f"unknown option(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(ANALYSIS_FLAGS))})",
            )
        ablate = raw.get("ablate") or []
        if not isinstance(ablate, list) or not set(ablate) <= set(TECHNIQUES):
            raise RequestError(
                400, "request", '"ablate" must be a list drawn from T1/T2/T3'
            )
        return AnalysisOptions.from_flags(
            ablate=ablate,
            no_fm=raw.get("no_fm", False),
            no_frontier=raw.get("no_frontier", False),
            budget_ms=self._clamped(
                raw, "budget_ms", self.config.budget_ms, float
            ),
            budget_steps=self._clamped(
                raw, "budget_steps", self.config.budget_steps, int
            ),
        )

    @staticmethod
    def _clamped(raw, key, ceiling, cast):
        value = raw.get(key)
        if value is None:
            return ceiling
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(400, "request", f'"{key}" must be a number')
        if value <= 0:
            raise RequestError(400, "request", f'"{key}" must be positive')
        value = cast(value)
        if ceiling is not None:
            value = min(value, cast(ceiling))
        return value

    # -- analysis -----------------------------------------------------------------

    def analyze(
        self,
        body: Any,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """One ``POST /v1/analyze`` request: source in, verdicts out."""
        name, source = self._source_of(body)
        options = self.build_options(body)
        sizes = self._sizes_of(body)
        run_audit = self._audit_of(body, self.config.audit)
        key = (
            result_key(
                source, options, sizes, machine=True, audit=run_audit, name=name
            )
            if serves_results(options)
            else None
        )

        t0 = time.perf_counter()
        cache_before = self.cache.stats.copy()
        perf_before = profiler.snapshot()
        payload = self.cache.get_result(key, name) if key is not None else None
        if payload is None:
            result, audit_report, _ = self._compile(
                BatchItem(name, source, sizes),
                options,
                run_audit,
                _EventHooks(on_event) if on_event is not None else None,
            )
            payload = result_to_dict(result, name=name, audit=audit_report)
            if key is not None:
                self.cache.put_result(key, payload)
        elif on_event is not None:
            events = _EventHooks(on_event)
            for row in payload["loops"]:
                events.row(row)
        symbolic = profiler.delta(perf_before, profiler.snapshot())
        degraded_loops = sum(1 for row in payload["loops"] if row["degraded"])
        payload["degraded"] = bool(degraded_loops)
        payload["request"] = self._request_block(
            t0, symbolic, cache_before, degraded_loops
        )
        self.telemetry.note_result(payload)
        return payload

    def analyze_stream(
        self,
        body: Any,
        emit: Callable[[dict[str, Any]], None],
    ) -> Optional[dict[str, Any]]:
        """The streaming variant: emits NDJSON events as analysis runs.

        Events: ``routine_started`` / ``loop_verdict`` while the compile
        progresses, ``diagnostic`` per audit finding, then exactly one of
        ``done`` (with the summary + per-request stats) or ``error``.
        Returns the payload on success, ``None`` when an error event was
        emitted (the HTTP status is already on the wire as an event — a
        stream cannot change its status line retroactively).
        """
        try:
            payload = self.analyze(body, on_event=emit)
        except RequestError as exc:
            emit({"event": "error", **exc.body()["error"]})
            return None
        for diag in (payload.get("audit") or {}).get("diagnostics", []):
            emit({"event": "diagnostic", **diag})
        emit(
            {
                "event": "done",
                "name": payload.get("name"),
                "loops": len(payload["loops"]),
                "parallel_loops": payload["parallel_loops"],
                "degraded": payload["degraded"],
                "request": payload["request"],
            }
        )
        return payload

    def _compile(
        self,
        item: BatchItem,
        options: AnalysisOptions,
        audit: bool,
        hooks: Optional[PipelineHooks] = None,
    ):
        """Compile and audit one item (an analyze request or a watch
        revision): :func:`compile_item`'s triple, or a typed
        :class:`RequestError`."""
        try:
            return compile_item(
                item, options, self.cache, machine=True, audit=audit, hooks=hooks
            )
        except Exception as exc:
            kind = classify_exception(exc)
            # "budget" cannot reach here (SUM_* degrade in band), but if
            # it ever did, failing the one request is the safe answer
            status = 422 if kind in ("source", "analysis") else 500
            raise RequestError(status, kind, describe_failure(exc)) from exc

    def _request_block(
        self,
        t0: float,
        symbolic: dict[str, float],
        cache_before: CacheStats,
        degraded_loops: int,
    ) -> dict[str, Any]:
        """The per-request observability payload; *symbolic* is the
        request's ``profiler.delta``."""
        return {
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            "degraded_loops": degraded_loops,
            "summary_cache": self.cache.stats.delta(cache_before).as_dict(),
            "symbolic": symbolic,
            # hit rate of the symbolic memo/interning tables, this
            # request only: the number that climbs as the daemon warms
            "hit_rate": profiler.hit_rate(symbolic),
        }

    @staticmethod
    def _audit_of(body: Any, default: bool) -> bool:
        audit = body.get("audit", default) if isinstance(body, dict) else default
        if not isinstance(audit, bool):
            raise RequestError(400, "request", '"audit" must be a boolean')
        return audit

    # -- watch sessions -----------------------------------------------------------

    def watch_open(self, body: Any) -> dict[str, Any]:
        """Create a watch session pinned to one options set."""
        body = body if isinstance(body, dict) else {}
        options = self.build_options(body)
        name = body.get("name", "<watch>")
        if not isinstance(name, str) or not name:
            raise RequestError(400, "request", '"name" must be a non-empty string')
        sid = f"w{next(self._watch_seq)}"
        self._watch_sessions[sid] = _WatchSession(
            sid=sid,
            name=name,
            options=options,
            audit=self._audit_of(body, False),
        )
        return {"session": sid, "name": name}

    def _watch(self, sid: str) -> _WatchSession:
        session = self._watch_sessions.get(sid)
        if session is None:
            raise RequestError(404, "not-found", f"unknown watch session {sid!r}")
        return session

    def watch_submit(self, sid: str, body: Any) -> dict[str, Any]:
        """Submit a (possibly edited) revision of the watched source.

        The response reports only the loops of routines the edit
        actually touched (changed + invalidated-via-callee); everything
        served warm is summarized by name in ``report.reused``.
        """
        session = self._watch(sid)
        name, source = self._source_of(body)
        sizes = self._sizes_of(body)
        t0 = time.perf_counter()
        cache_before = self.cache.stats.copy()
        perf_before = profiler.snapshot()
        result, audit_report, hooks = self._compile(
            BatchItem(session.name, source, sizes), session.options, session.audit
        )
        report = diff_revisions(session.name, session.previous, hooks)
        session.previous = dict(hooks.unit_hashes)
        symbolic = profiler.delta(perf_before, profiler.snapshot())
        session.revisions += 1
        affected = set(report.affected())
        rows = [loop_report_row(r) for r in result.loops if r.routine in affected]
        payload: dict[str, Any] = {
            "session": sid,
            "revision": session.revisions,
            "name": name,
            "report": report.to_dict(),
            "loops": rows,
            "total_loops": len(result.loops),
            "parallel_loops": len(result.parallel_loops()),
            "degraded": bool(result.degraded_loops()),
            "request": self._request_block(
                t0, symbolic, cache_before, len(result.degraded_loops())
            ),
        }
        if audit_report is not None:
            payload["audit"] = audit_report.to_payload()
        return payload

    def watch_close(self, sid: str) -> dict[str, Any]:
        session = self._watch_sessions.pop(sid, None)
        if session is None:
            raise RequestError(404, "not-found", f"unknown watch session {sid!r}")
        return {"session": sid, "closed": True, "revisions": session.revisions}

    # -- introspection ------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
        }

    def stats(self) -> dict[str, Any]:
        """The ``GET /v1/stats`` payload: every resident gauge at once."""
        snap = profiler.snapshot()
        telemetry = self.telemetry.as_dict()
        return {
            "server": {
                "version": __version__,
                "pid": os.getpid(),
                "started_at": self.started_at,
                "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
                "watch_sessions": len(self._watch_sessions),
            },
            "admission": {
                "max_inflight": self.config.max_inflight,
                "in_flight": self.admission["in_flight"],
                "rejected": self.admission["rejected"],
                "drained_rejects": self.admission["drained_rejects"],
                "draining": self.draining,
                "retry_after_s": self.config.retry_after_s,
            },
            "requests": dict(self.requests),
            "responses": dict(self.responses),
            # lifetime symbolic gauges + the headline warm-cache number
            "perf": snap,
            "hit_rate": profiler.hit_rate(snap),
            "constraint_backend": profiler.CONSTRAINT_BACKEND,
            "cache_backend": self.cache.backend_name,
            "summary_cache": self.cache.stats.as_dict(),
            # batch-style roll-up: timings/stats/resilience/audit counters
            "telemetry": telemetry,
        }
