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
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

logger = logging.getLogger(__name__)

#: Hard caps keeping a misbehaving client from ballooning memory.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024
#: Seconds a client has, once its request line has arrived, to deliver the
#: rest of the headers and the body; a client that stalls mid-request is
#: answered 408 and dropped.
REQUEST_READ_TIMEOUT_S = 30.0
#: Seconds a connection may wait for a request line — its first, or the next
#: one of a keep-alive connection — before it is closed without an answer.
KEEPALIVE_IDLE_TIMEOUT_S = 75.0

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
    """Parse one request; ``None`` on a closed or idle-for-too-long connection."""
    try:
        request_line = await asyncio.wait_for(_read_line(reader), KEEPALIVE_IDLE_TIMEOUT_S)
    except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
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


class HttpServer:
    """The listener and the connections it accepted.

    ``port=0`` binds an ephemeral port — the tests use it to avoid
    collisions; :attr:`port` holds the actual one once :meth:`start` returns.
    """

    def __init__(self, handler: Handler, host: str, port: int) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self._listener: Optional[asyncio.AbstractServer] = None
        self._closing = False
        #: One task per open connection, and the writers of those waiting
        #: for a request line (nothing is lost by closing them).
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.StreamWriter] = set()

    async def start(self) -> int:
        self._listener = await asyncio.start_server(self._serve, self.host, self.port)
        self.port = self._listener.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        """Stop accepting, drop idle connections, let in-flight requests finish."""
        self._closing = True
        self._listener.close()
        for writer in list(self._idle):
            writer.close()
        if self._connections:
            await asyncio.wait(self._connections)
        await self._listener.wait_closed()

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One connection: requests in, answers out, until either side is done."""
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._closing:
                self._idle.add(writer)
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
                finally:
                    self._idle.discard(writer)
                if request is None:
                    return
                response = await self.handler(request)
                keep_alive = (
                    not self._closing
                    and request.headers.get("connection", "keep-alive") != "close"
                )
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
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
