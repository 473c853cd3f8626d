"""Minimal HTTP/1.1 plumbing, both ends of the wire (stdlib only).

Just enough protocol for the analysis daemon: request-line + headers +
``Content-Length`` bodies in, fixed-length JSON responses or
EOF-terminated NDJSON streams out.  Deliberately *not* a general web
server — no chunked request bodies, no multipart, no TLS — so the whole
attack/parsing surface stays a few hundred auditable lines.

Limits are enforced while reading: an oversized request line, header
block, or body raises :class:`ProtocolError` with the HTTP status the
connection handler should answer with (400/413/431), before the bytes
are ever buffered whole.

The client's half lives here too: :func:`request_bytes` writes what
:func:`read_request` parses, and :func:`read_response_head`,
:func:`read_body` and :func:`read_lines` read, off a blocking socket
file, exactly what :func:`response_bytes` and :func:`stream_head` write
— keep-alive unless ``Connection: close``, a ``Content-Length`` body or
one that runs to end of stream.  Any other framing raises
:class:`ResponseError`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator
from urllib.parse import parse_qsl, urlsplit

#: reason phrases for the statuses the daemon actually emits
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

#: request-line / single-header-line byte cap
MAX_LINE = 8192
#: header count cap
MAX_HEADERS = 64
#: cap on a response body the client reads (a whole stream's, too)
MAX_RESPONSE_BODY = 1 << 26


class ProtocolError(Exception):
    """Malformed or over-limit HTTP input; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str  # path only, query string split off
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)  # keys lower-cased
    body: bytes = b""

    def json(self) -> Any:
        """The body parsed as JSON (400 on syntax errors or non-UTF-8)."""
        if not self.body:
            raise ProtocolError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from exc

    def wants_ndjson(self) -> bool:
        """Did the client ask for a streaming NDJSON response?"""
        if self.query.get("stream", "").lower() in ("1", "true", "yes"):
            return True
        return "application/x-ndjson" in self.headers.get("accept", "")


async def _read_line(reader, what: str) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""  # clean EOF between requests
        raise ProtocolError(400, f"truncated {what}") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(431, f"{what} too long") from exc
    if len(line) > MAX_LINE:
        raise ProtocolError(431, f"{what} too long")
    return line


async def read_request(reader, max_body: int) -> Request | None:
    """Parse one request off the stream; ``None`` on clean EOF."""
    line = await _read_line(reader, "request line")
    if not line.strip():
        return None
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol {version}")

    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader, "header line")
        if not line.strip():
            break
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError(431, "too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(501, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError(400, "bad Content-Length") from None
        if length < 0:
            raise ProtocolError(400, "bad Content-Length")
        if length > max_body:
            raise ProtocolError(
                413, f"request body exceeds {max_body} byte limit"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError(400, "truncated request body") from exc

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Iterable[tuple[str, str]] = (),
    close: bool = False,
) -> bytes:
    """A complete fixed-length HTTP/1.1 response."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(obj: Any) -> bytes:
    """Canonical JSON encoding for response bodies."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def json_response(
    status: int,
    obj: Any,
    extra_headers: Iterable[tuple[str, str]] = (),
    close: bool = False,
) -> bytes:
    """A complete JSON response."""
    return response_bytes(
        status, json_body(obj), extra_headers=extra_headers, close=close
    )


def error_body(status: int, kind: str, message: str) -> dict[str, Any]:
    """The daemon's uniform error payload shape."""
    return {
        "error": {
            "status": status,
            "kind": kind,
            "message": message,
        }
    }


def stream_head(content_type: str = "application/x-ndjson") -> bytes:
    """Response head for an EOF-terminated streaming body.

    No ``Content-Length``: per HTTP/1.1 the body runs until the server
    closes the connection, which every stdlib client understands —
    simpler and more robust than chunked encoding for NDJSON.
    """
    return (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Type: {content_type}\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")


def ndjson_line(event: Any) -> bytes:
    """One NDJSON event line."""
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


# --------------------------------------------------------------------------- #
# the client's half
# --------------------------------------------------------------------------- #


class ResponseError(ConnectionError):
    """A response outside the HTTP/1.1 subset the daemon writes: a
    malformed head, a framing such as ``Transfer-Encoding``, a body over
    :data:`MAX_RESPONSE_BODY`."""


class EmptyReply(ConnectionResetError):
    """The connection closed before the first byte of an answer."""


@dataclass
class Response:
    """One response as the client reads it."""

    status: int
    headers: dict[str, str]  # keys lower-cased
    #: body length; None when the body runs until the daemon closes
    length: int | None
    #: the daemon closes the connection after this response
    close: bool
    body: bytes = b""


def request_bytes(
    method: str, target: str, host: str, body: bytes | None = None
) -> bytes:
    """A complete HTTP/1.1 request with an optional JSON body."""
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    if body is None:
        return (head + "\r\n").encode("latin-1")
    head += (
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _head_line(rfile, what: str) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ResponseError(f"response {what} too long")
    if not line.endswith(b"\n"):
        raise ConnectionResetError(f"connection closed in the response {what}")
    return line


def read_response_head(rfile) -> Response:
    """Read a status line and headers off a blocking binary stream.

    Raises :class:`EmptyReply` when the stream ends (or is reset)
    before the first byte, :class:`ResponseError` on a head outside the
    daemon's subset, :class:`ConnectionResetError` when it ends midway.
    """
    try:
        first = rfile.read(1)
    except ConnectionResetError as exc:
        raise EmptyReply("connection reset before the response") from exc
    if not first:
        raise EmptyReply("connection closed before the response")
    line = first + _head_line(rfile, "status line")
    version, _, rest = line.decode("latin-1").partition(" ")
    code = rest[:3]
    if not (version.startswith("HTTP/1.") and code.isascii()
            and code.isdigit() and 200 <= int(code) < 600):
        raise ResponseError(f"malformed status line {line[:80]!r}")
    headers: dict[str, str] = {}
    while (line := _head_line(rfile, "header line")).strip():
        if len(headers) >= MAX_HEADERS:
            raise ResponseError("too many response headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ResponseError(f"malformed response header {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ResponseError(
            "unsupported response framing: Transfer-Encoding: "
            + headers["transfer-encoding"]
        )
    length = None
    if "content-length" in headers:
        value = headers["content-length"]
        if not (value.isascii() and value.isdigit()):
            raise ResponseError(f"bad Content-Length {value!r}")
        length = int(value)
        if length > MAX_RESPONSE_BODY:
            raise ResponseError(
                f"response body of {length} bytes exceeds the "
                f"{MAX_RESPONSE_BODY} byte limit"
            )
    close = length is None or headers.get("connection", "").lower() == "close"
    return Response(int(code), headers, length, close)


def read_body(rfile, head: Response) -> bytes:
    """The whole body of the response *head* was read for."""
    if head.length is None:
        return b"".join(read_lines(rfile))
    body = rfile.read(head.length)
    if len(body) < head.length:
        raise ConnectionResetError(
            f"connection closed in the response body "
            f"({len(body)} of {head.length} bytes)"
        )
    return body


def read_lines(rfile) -> Iterator[bytes]:
    """The lines of a body that runs to end of stream (an NDJSON
    stream), each as soon as it arrives."""
    total = 0
    while line := rfile.readline(MAX_RESPONSE_BODY + 1 - total):
        total += len(line)
        if total > MAX_RESPONSE_BODY:
            raise ResponseError(
                f"response body exceeds the {MAX_RESPONSE_BODY} byte limit"
            )
        if not line.endswith(b"\n"):
            raise ConnectionResetError("connection closed in a stream line")
        yield line
