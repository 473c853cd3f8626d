"""The asyncio daemon: routing, admission control, NDJSON streaming.

Concurrency model
-----------------

The event loop thread does I/O only.  All analysis runs on **one**
dedicated worker thread (a ``ThreadPoolExecutor(max_workers=1)``):
the symbolic interning tables, proof memos, and the summary cache are
per-process structures written without locks, and the active
:class:`~repro.resilience.budget.AnalysisBudget` is a process global —
serializing analysis keeps all of them single-writer while the loop
stays responsive for ``/v1/health`` and ``/v1/stats`` (and for telling
clients to back off).  Analysis is pure CPU-bound Python, so a second
analysis thread would buy contention, not throughput; scale-out is the
batch engine's job (``panorama-batch --jobs N``), scale-*up* of request
concurrency belongs to running several daemons behind a port balancer,
each with its own warm caches.

Admission control
-----------------

``max_inflight`` bounds analyze/watch requests *running or queued* on
the analysis thread.  At the bound, new analysis requests are answered
``429 Too Many Requests`` with a ``Retry-After`` header before any of
their work happens — saturation degrades to back-pressure, never to a
growing queue that eventually takes the resident process down.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from ..resilience import faults
from .http import (
    ProtocolError,
    Request,
    error_body,
    json_response,
    ndjson_line,
    read_request,
    response_bytes,
    stream_head,
)
from .service import AnalysisService, RequestError, ServerConfig

#: sentinel closing the event queue of one streaming response
_STREAM_END = object()


class PanoramaServer:
    """One listening daemon around an :class:`AnalysisService`."""

    def __init__(
        self,
        service: AnalysisService | None = None,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        self.service = service or AnalysisService()
        cfg = self.service.config
        self.host = host if host is not None else cfg.host
        self.port = port if port is not None else cfg.port
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="panorama-analysis"
        )
        #: open connection handler tasks; aclose() cancels the busy ones
        self._connections: set[asyncio.Task] = set()
        #: handler task → writer, for connections waiting for a request
        #: (aclose() closes these instead)
        self._idle: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> "PanoramaServer":
        """Bind and start accepting; resolves the ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # an idle keep-alive connection is closed, not cancelled: its
        # handler reads EOF and ends; a handler task that ends cancelled
        # makes the stream's done callback raise, which the loop logs
        idle = dict(self._idle)
        for writer in idle.values():
            writer.close()
        for task in list(self._connections):
            if task not in idle:
                task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def drain(self, timeout: float | None = None) -> bool:
        """Gracefully drain: stop admitting, let in-flight work finish.

        Flips the service into draining mode — health reports
        ``"draining"`` and new analysis requests get 503 + Retry-After
        (the listener stays open so clients receive the typed rejection,
        not a connection refusal) — then waits up to *timeout* seconds
        (default ``ServerConfig.drain_timeout_s``) for the in-flight
        gauge to hit zero before tearing everything down with
        :meth:`aclose`.  Returns True when every in-flight request
        completed inside the budget.
        """
        service = self.service
        service.draining = True
        if timeout is None:
            timeout = service.config.drain_timeout_s
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        while service.admission["in_flight"] > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        clean = service.admission["in_flight"] == 0
        await self.aclose()
        return clean

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            if faults.should_fire("server.conn"):
                # chaos site: the daemon drops this connection cold, as a
                # crashed peer or a mid-accept kill would (clients see a
                # reset / empty reply and must retry)
                writer.transport.abort()
                return
            while True:
                self._idle[task] = writer
                try:
                    request = await read_request(
                        reader, self.service.config.max_body_bytes
                    )
                except ProtocolError as exc:
                    self.service.note_response(exc.status)
                    writer.write(
                        json_response(
                            exc.status,
                            error_body(exc.status, "protocol", exc.message),
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                finally:
                    self._idle.pop(task, None)
                if request is None:
                    break
                try:
                    streamed = await self._dispatch(request, writer)
                except ProtocolError as exc:
                    self.service.note_response(exc.status)
                    writer.write(
                        json_response(
                            exc.status,
                            error_body(exc.status, "protocol", exc.message),
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                except Exception as exc:  # routing bug: answer, don't vanish
                    self.service.note_response(500)
                    writer.write(
                        json_response(
                            500,
                            error_body(
                                500, "internal",
                                f"{type(exc).__name__}: {exc}",
                            ),
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                if streamed:
                    break  # streaming responses are EOF-terminated
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass
            # deregister only once fully torn down: a task that removed
            # itself before its last await could be left pending (and
            # never cancelled) when aclose() runs in that window
            if task is not None:
                self._connections.discard(task)

    async def _dispatch(self, request: Request, writer) -> bool:
        """Route one request; returns True when the response streamed."""
        service = self.service
        method, path = request.method, request.path

        if path == "/v1/health":
            if method != "GET":
                self._write(writer, self._method_not_allowed("GET"))
                return False
            service.note_request("health")
            self._write(writer, self._json(200, service.health()))
            return False

        if path == "/v1/stats":
            if method != "GET":
                self._write(writer, self._method_not_allowed("GET"))
                return False
            service.note_request("stats")
            self._write(writer, self._json(200, service.stats()))
            return False

        if path == "/v1/analyze":
            if method != "POST":
                self._write(writer, self._method_not_allowed("POST"))
                return False
            body = request.json()  # ProtocolError (400) propagates to the handler
            if request.wants_ndjson():
                return await self._admitted(
                    writer,
                    "analyze_stream",
                    lambda emit: service.analyze_stream(body, emit),
                    stream=True,
                )
            return await self._admitted(
                writer, "analyze", lambda: service.analyze(body)
            )

        if path == "/v1/watch":
            if method != "POST":
                self._write(writer, self._method_not_allowed("POST"))
                return False
            service.note_request("watch_open")
            self._write(writer, self._guarded(lambda: service.watch_open(
                request.json() if request.body else {}
            )))
            return False

        if path.startswith("/v1/watch/"):
            sid = path[len("/v1/watch/"):]
            if method == "POST":
                body = request.json()
                return await self._admitted(
                    writer, "watch_submit", lambda: service.watch_submit(sid, body)
                )
            if method == "DELETE":
                service.note_request("watch_close")
                self._write(
                    writer, self._guarded(lambda: service.watch_close(sid))
                )
                return False
            self._write(writer, self._method_not_allowed("POST, DELETE"))
            return False

        self.service.note_response(404)
        self._write(
            writer,
            json_response(
                404, error_body(404, "not-found", f"no route for {path}")
            ),
        )
        return False

    # -- the analysis endpoints ---------------------------------------------------

    async def _admitted(
        self, writer, endpoint: str, run, stream: bool = False
    ) -> bool:
        """Count one analysis request, admit it, run it on the analysis
        thread and write its answer; returns True when the response
        streamed.  *run* takes the stream's ``emit`` when *stream*."""
        service = self.service
        service.note_request(endpoint)
        rejection = self._admit()
        if rejection is not None:
            self._write(writer, rejection)
            return False
        loop = asyncio.get_running_loop()
        try:
            if stream:
                await self._stream(writer, loop, run)
                return True
            payload = await loop.run_in_executor(self._executor, run)
            self._write(writer, self._json(200, payload))
        except RequestError as exc:
            self._write(writer, self._json(exc.status, exc.body()))
        finally:
            service.admission["in_flight"] -= 1
        return False

    async def _stream(self, writer, loop, run) -> None:
        """Run one streaming analysis, relaying events as NDJSON lines.

        The worker thread pushes events through a thread-safe hop onto
        an ``asyncio.Queue``; this coroutine drains the queue onto the
        socket as the compile progresses.  The status line goes out
        before the analysis starts — stream errors arrive as ``error``
        events, which is the NDJSON contract (docs/server.md).
        """
        queue: asyncio.Queue = asyncio.Queue()

        def emit(event: dict[str, Any]) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        def run_and_close() -> Optional[dict[str, Any]]:
            try:
                return run(emit)
            finally:
                loop.call_soon_threadsafe(queue.put_nowait, _STREAM_END)

        future = loop.run_in_executor(self._executor, run_and_close)
        writer.write(stream_head())
        await writer.drain()
        status = 200
        while True:
            event = await queue.get()
            if event is _STREAM_END:
                break
            if event.get("event") == "error":
                status = event.get("status", 500)
            try:
                writer.write(ndjson_line(event))
                await writer.drain()
            except (ConnectionError, OSError):
                # client hung up mid-stream: let the analysis finish
                # (its summaries still warm the caches), drop the rest
                while (await queue.get()) is not _STREAM_END:
                    pass
                break
        await future
        self.service.note_response(status)

    # -- admission ----------------------------------------------------------------

    def _admit(self) -> Optional[bytes]:
        """Take an in-flight slot, or build the 429/503 rejection."""
        service = self.service
        cfg = service.config
        if service.draining:
            service.admission["drained_rejects"] += 1
            service.note_response(503)
            return json_response(
                503,
                error_body(
                    503,
                    "draining",
                    "daemon is draining; in-flight requests are finishing "
                    "and no new work is admitted",
                ),
                extra_headers=[
                    ("Retry-After", f"{max(1, round(cfg.retry_after_s))}")
                ],
            )
        if service.admission["in_flight"] >= cfg.max_inflight:
            service.admission["rejected"] += 1
            service.note_response(429)
            return json_response(
                429,
                error_body(
                    429,
                    "saturated",
                    f"{service.admission['in_flight']} request(s) already "
                    "in flight; retry later",
                ),
                extra_headers=[
                    ("Retry-After", f"{max(1, round(cfg.retry_after_s))}")
                ],
            )
        service.admission["in_flight"] += 1
        return None

    # -- response helpers ---------------------------------------------------------

    @staticmethod
    def _write(writer, data: bytes) -> None:
        writer.write(data)

    def _json(self, status: int, obj: Any) -> bytes:
        self.service.note_response(status)
        return json_response(status, obj)

    def _method_not_allowed(self, allowed: str) -> bytes:
        self.service.note_response(405)
        return response_bytes(
            405,
            b'{"error": {"status": 405, "kind": "protocol", '
            b'"message": "method not allowed"}}\n',
            extra_headers=[("Allow", allowed)],
        )

    def _guarded(self, fn) -> bytes:
        """Run a non-analysis service call, mapping RequestError to JSON."""
        try:
            return self._json(200, fn())
        except RequestError as exc:
            return self._json(exc.status, exc.body())


class ServerThread:
    """A daemon running on a background thread (tests, selftest, bench).

    ``start()`` boots the event loop on a daemon thread, binds the
    server, and blocks until the port is known; ``stop()`` tears the
    loop down and joins the thread.  Usable as a context manager.
    """

    def __init__(self, service: AnalysisService | None = None) -> None:
        self.service = service or AnalysisService()
        self.server: Optional[PanoramaServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()

        def runner() -> None:
            loop = self._loop
            asyncio.set_event_loop(loop)
            server = PanoramaServer(self.service)
            try:
                loop.run_until_complete(server.start())
            except BaseException as exc:  # bind failure must not hang start()
                self._boot_error = exc
                self._ready.set()
                return
            self.server = server
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(server.aclose())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="panorama-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._boot_error is not None:
            raise RuntimeError("server failed to start") from self._boot_error
        return self

    @property
    def port(self) -> int:
        assert self.server is not None, "start() first"
        return self.server.port

    @property
    def host(self) -> str:
        assert self.server is not None, "start() first"
        return self.server.host

    def drain(self, timeout: float | None = None) -> bool:
        """Run a graceful drain on the server's loop; returns True when
        every in-flight request finished inside the budget."""
        assert self.server is not None and self._loop is not None, (
            "start() first"
        )
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout), self._loop
        )
        budget = (
            timeout
            if timeout is not None
            else self.service.config.drain_timeout_s
        )
        return bool(future.result(timeout=budget + 30.0))

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
