"""A minimal asyncio HTTP/1.1 layer (stdlib only, no new dependencies).

Just enough protocol for the service API: request line + headers +
``Content-Length`` bodies in, status + headers + body out, keep-alive
honored.  No chunked transfer, no TLS, no multipart — the API is small
JSON messages between trusted processes; anything fancier belongs behind a
real proxy.

The server is transport-only: it parses requests into
:class:`HttpRequest`, hands them to an async ``handler`` returning
:class:`HttpResponse`, and never interprets the payload itself.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Tuple

logger = logging.getLogger(__name__)

#: Hard caps keeping a misbehaving client from ballooning memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024
#: Seconds a client has, once its request line has arrived, to deliver the
#: rest of the headers and the body; a client that stalls mid-request is
#: answered 408 and dropped.  Waiting for the *next* request line of an idle
#: keep-alive connection is not bounded.
REQUEST_READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> object:
        """Decode the body as JSON (raises ``ValueError`` on malformed input)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"malformed JSON body: {error}") from None


@dataclass
class HttpResponse:
    status: int = 200
    payload: Optional[object] = None
    headers: Dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"
    text: Optional[str] = None

    def encode(self) -> bytes:
        if self.text is not None:
            body = self.text.encode("utf-8")
        else:
            body = json.dumps(self.payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


class _ProtocolError(Exception):
    """Unparseable or stalled request — answered with ``status`` and closed."""

    def __init__(self, message: str, status: int = 400, code: str = "bad_request") -> None:
        super().__init__(message)
        self.status = status
        self.code = code


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream's 64 KiB line limit
        raise _ProtocolError("request or header line too long") from None


async def _read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        request_line = await _read_line(reader)
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _ProtocolError(f"malformed request line: {request_line!r}")
    method, path, _version = parts
    try:
        headers, body = await asyncio.wait_for(
            _read_headers_and_body(reader), REQUEST_READ_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        raise _ProtocolError(
            f"request not received within {REQUEST_READ_TIMEOUT_S:g}s",
            status=408, code="request_timeout",
        ) from None
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


async def _read_headers_and_body(
    reader: asyncio.StreamReader,
) -> Tuple[Dict[str, str], bytes]:
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _read_line(reader)
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise _ProtocolError("header section too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    try:
        length = int(declared)
    except ValueError:
        length = -1
    if length < 0 or length > MAX_BODY_BYTES:
        raise _ProtocolError(f"unacceptable content-length {declared!r}")
    body = await reader.readexactly(length) if length else b""
    return headers, body


async def _serve_connection(
    handler: Handler, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _ProtocolError as error:
                logger.debug("protocol error: %s", error)
                writer.write(
                    HttpResponse(
                        status=error.status,
                        payload={"error": {"code": error.code, "message": str(error)}},
                    ).encode()
                )
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return
            if request is None:
                return
            response = await handler(request)
            keep_alive = request.headers.get("connection", "keep-alive") != "close"
            response.headers.setdefault(
                "Connection", "keep-alive" if keep_alive else "close"
            )
            writer.write(response.encode())
            await writer.drain()
            if not keep_alive:
                return
    except ConnectionError:  # pragma: no cover - client went away mid-write
        return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def start_http_server(
    handler: Handler, host: str, port: int
) -> Tuple[asyncio.AbstractServer, int]:
    """Bind and start serving; returns (server, actual port).

    ``port=0`` binds an ephemeral port — the tests use it to avoid
    collisions; the actual port comes back for the client to dial.
    """
    server = await asyncio.start_server(
        lambda reader, writer: _serve_connection(handler, reader, writer),
        host=host,
        port=port,
    )
    actual_port = server.sockets[0].getsockname()[1]
    return server, actual_port
