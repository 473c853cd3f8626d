"""Thin stdlib client for the ``panorama-serve`` daemon.

Sockets + :mod:`json` — no dependencies — so the test suite, CI, and
the benchmarks can drive the full HTTP request path with nothing but
the standard library.  It speaks only the HTTP/1.1 subset the daemon
writes (:mod:`repro.server.http` holds both ends of it), so it talks to
``panorama-serve`` directly, not through a proxy.

A client keeps its connections open and sends each JSON request on
an idle one: the requests of one thread share one connection, and
threads that send at once use one each.  A stream opens a connection
of its own, which ends with the stream.  A kept connection the daemon
closed while it sat idle (a drain, a restart) is reopened and the
request sent once more.

    client = PanoramaClient(port=8321)
    payload = client.analyze(source, name="loop.f")
    for event in client.analyze_stream(source):
        print(event["event"])
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Callable, Iterator, Optional, TypeVar

from ..resilience.backoff import backoff_delay
from .http import (
    EmptyReply,
    Response,
    ResponseError,
    read_body,
    read_lines,
    read_response_head,
    request_bytes,
)

#: HTTP statuses the client treats as transient back-pressure: 429
#: (saturated) and 503 (draining daemon) both advertise Retry-After
RETRYABLE_STATUSES = frozenset({429, 503})

_T = TypeVar("_T")


class ServiceError(Exception):
    """A non-2xx daemon response, with its status and decoded payload."""

    def __init__(
        self,
        status: int,
        payload: dict[str, Any],
        retry_after: Optional[float] = None,
    ) -> None:
        err = payload.get("error", {}) if isinstance(payload, dict) else {}
        super().__init__(
            f"HTTP {status}: {err.get('kind', '?')}: "
            f"{err.get('message', 'no detail')}"
        )
        self.status = status
        self.payload = payload
        #: typed error kind (repro.errors taxonomy / "request" / "saturated")
        self.kind = err.get("kind")
        #: seconds from a 429's Retry-After header, when present
        self.retry_after = retry_after


class _Connection:
    """One open socket to the daemon and the buffered file read off it."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        """Send *data*; a connection found closed is an empty reply."""
        try:
            self.sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError,
                ConnectionAbortedError) as exc:
            raise EmptyReply(f"connection closed before the request: {exc}") from exc

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class PanoramaClient:
    """Client for one daemon instance.

    Transient back-pressure is retried: a 429 (saturated) or 503
    (draining) response — or a connection the daemon refused or dropped
    cold — is retried up to *retries* times, sleeping the larger of the
    server's ``Retry-After`` hint and the batch engine's seeded
    exponential backoff (:func:`repro.resilience.backoff.backoff_delay`,
    so waits are reproducible under a fixed *retry_seed*).
    ``retries=0`` restores fail-fast behaviour for tests that assert on
    the raw 429.  The one resend of a request whose kept connection was
    found closed is not a retry: it happens under ``retries=0`` too.

    Transport failures are :class:`OSError` subclasses
    (``ConnectionRefusedError``, ``TimeoutError`` after *timeout*
    seconds without a byte, :class:`~repro.server.http.ResponseError`
    for a framing the daemon never writes); non-2xx answers are
    :class:`ServiceError`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        timeout: float = 300.0,
        retries: int = 2,
        backoff_base: float = 0.05,
        retry_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.retry_seed = retry_seed
        #: open connections no request is using, the latest last (list
        #: append and pop are atomic, so threads share it without a lock)
        self._idle: list[_Connection] = []

    def close(self) -> None:
        """Close the connections this client keeps open; a later request
        opens a new one.  Only idle connections are reached: one that
        another thread is using stays open, and is kept when its request
        ends, so close a shared client once its threads are done."""
        while (conn := self._take()) is not None:
            conn.close()

    def __enter__(self) -> "PanoramaClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------------

    def request(
        self, method: str, path: str, body: Any | None = None
    ) -> dict[str, Any]:
        """One JSON request/response round trip; raises ServiceError on
        non-2xx statuses.  429/503 and refused or dropped connections
        are retried per the constructor's retry policy."""
        data = self._request_bytes(method, path, body)
        return self._retrying(lambda: self._decode(self._exchange(data)))

    def _retrying(self, attempt_once: Callable[[], _T]) -> _T:
        """*attempt_once*'s result, retrying 429/503 answers and refused
        or dropped connections up to ``retries`` times."""
        rng = None
        attempt = 0
        while True:
            try:
                return attempt_once()
            except ServiceError as exc:
                if exc.status not in RETRYABLE_STATUSES or attempt >= self.retries:
                    raise
                floor = exc.retry_after or 0.0
            except ResponseError:
                raise  # a framing the daemon never writes: a retry reads it again
            except ConnectionError:
                # refused, reset, or closed before an answer (a crash, a
                # restart, chaos site server.conn)
                if attempt >= self.retries:
                    raise
                floor = 0.0
            attempt += 1
            if rng is None:
                rng = random.Random(self.retry_seed)
            time.sleep(backoff_delay(attempt, self.backoff_base, rng,
                                     floor=floor))

    def _request_bytes(self, method: str, path: str, body: Any | None) -> bytes:
        encoded = None if body is None else json.dumps(body).encode("utf-8")
        return request_bytes(method, path, f"{self.host}:{self.port}", encoded)

    def _connect(self) -> _Connection:
        return _Connection(self.host, self.port, self.timeout)

    def _take(self) -> Optional[_Connection]:
        """Remove and return the latest idle connection, if any."""
        try:
            return self._idle.pop()
        except IndexError:
            return None

    def _exchange(self, data: bytes) -> Response:
        """Send one request on a kept connection, or a new one, and read
        the whole answer.  A kept connection that ends before the
        answer's first byte was closed by the daemon while it sat idle:
        the request goes once more, on a new connection."""
        conn = self._take()
        if conn is not None:
            try:
                return self._answer(conn, data)
            except EmptyReply:
                pass
        return self._answer(self._connect(), data)

    def _answer(self, conn: _Connection, data: bytes) -> Response:
        """Send *data* on *conn* and read the whole answer; *conn* is
        kept unless the answer or a failure closes it."""
        try:
            conn.send(data)
            response = read_response_head(conn.rfile)
            response.body = read_body(conn.rfile, response)
        except BaseException:
            conn.close()
            raise
        if response.close:
            conn.close()
        else:
            self._idle.append(conn)
        return response

    @staticmethod
    def _decode(response: Response) -> dict[str, Any]:
        data = response.body
        try:
            payload = json.loads(data) if data else {}
        except json.JSONDecodeError:
            payload = {"error": {"kind": "protocol", "message": data[:200].decode(
                "utf-8", "replace")}}
        if response.status >= 400:
            retry_after = response.headers.get("retry-after")
            raise ServiceError(
                response.status,
                payload,
                retry_after=float(retry_after) if retry_after else None,
            )
        return payload

    # -- endpoints ----------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self.request("GET", "/v1/health")

    def stats(self) -> dict[str, Any]:
        return self.request("GET", "/v1/stats")

    def analyze(
        self,
        source: str,
        name: str = "<request>",
        options: dict[str, Any] | None = None,
        sizes: dict[str, int] | None = None,
        audit: bool | None = None,
    ) -> dict[str, Any]:
        """``POST /v1/analyze``: the full verdict payload."""
        return self.request("POST", "/v1/analyze", self._body(
            source, name, options, sizes, audit
        ))

    def analyze_stream(
        self,
        source: str,
        name: str = "<request>",
        options: dict[str, Any] | None = None,
        sizes: dict[str, int] | None = None,
        audit: bool | None = None,
    ) -> Iterator[dict[str, Any]]:
        """``POST /v1/analyze?stream=1``: yields NDJSON events as the
        daemon produces them; the last event is ``done`` or ``error``.

        The stream runs on a connection of its own, closed when the
        stream ends or is abandoned.  Only the *initial* status is
        retried (429/503/refused or dropped connection); once events
        start flowing a failure surfaces mid-iteration, as any streaming
        consumer must expect."""
        data = self._request_bytes("POST", "/v1/analyze?stream=1", self._body(
            source, name, options, sizes, audit
        ))
        conn = self._retrying(lambda: self._open_stream(data))
        try:
            for line in read_lines(conn.rfile):
                if line.strip():
                    yield json.loads(line)
        finally:
            conn.close()

    def _open_stream(self, data: bytes) -> _Connection:
        """A new connection that sent *data* and read a 200 stream head."""
        conn = self._connect()
        try:
            conn.send(data)
            response = read_response_head(conn.rfile)
            if response.status != 200:
                response.body = read_body(conn.rfile, response)
                self._decode(response)  # raises ServiceError
            if response.length is not None:
                raise ResponseError(
                    "a stream must run to end of stream, not Content-Length"
                )
        except BaseException:
            conn.close()
            raise
        return conn

    @staticmethod
    def _body(source, name, options, sizes, audit) -> dict[str, Any]:
        body: dict[str, Any] = {"source": source, "name": name}
        if options:
            body["options"] = options
        if sizes:
            body["sizes"] = sizes
        if audit is not None:
            body["audit"] = audit
        return body

    # -- watch sessions -----------------------------------------------------------

    def watch_open(
        self,
        name: str = "<watch>",
        options: dict[str, Any] | None = None,
        audit: bool | None = None,
    ) -> str:
        """Open a watch session; returns its id."""
        body: dict[str, Any] = {"name": name}
        if options:
            body["options"] = options
        if audit is not None:
            body["audit"] = audit
        return self.request("POST", "/v1/watch", body)["session"]

    def watch_submit(
        self,
        session: str,
        source: str,
        name: str = "<watch>",
        sizes: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        """Submit a revision; returns the invalidation report + the
        verdicts of the routines the edit touched."""
        body: dict[str, Any] = {"source": source, "name": name}
        if sizes:
            body["sizes"] = sizes
        return self.request("POST", f"/v1/watch/{session}", body)

    def watch_close(self, session: str) -> dict[str, Any]:
        return self.request("DELETE", f"/v1/watch/{session}")
