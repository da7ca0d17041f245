"""A small blocking client for the resolution service (stdlib only).

Used by the tests, the benchmark and the CI smoke job; applications can use
any HTTP client — the API is plain JSON over HTTP/1.1.  A client keeps one
keep-alive connection per calling thread, so it may be shared across threads.

The record mutations (``append`` / ``retract`` / ``update``) return what
the event changed — ``delta``, the counters and ``changed``, the touched
pairs as ``[id_a, id_b, posterior|None]`` — not the resolution; read that
with :meth:`ServiceClient.result`, whole or a ranked page at a time, or
keep it by folding every ``changed`` list into a dict.  ``flush`` returns
the settled resolution, the payload of a whole ``result``.

:meth:`ServiceClient.request` returns the raw ``(status, headers, body)``
triple without raising, which is what the error-path regression tests
need; the typed convenience methods raise :class:`ServiceClientError` on
any non-2xx answer.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Dict, List, Optional, Sequence, Tuple


#: How a kept connection that the server has since closed fails.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def _decode(raw: bytes) -> object:
    """A response body: JSON where it parses, text where it does not."""
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return raw.decode("utf-8", "replace")


class ServiceClientError(Exception):
    """A non-2xx service answer, carrying the decoded error body."""

    def __init__(self, status: int, body: object, retry_after: Optional[int] = None) -> None:
        code = ""
        if isinstance(body, dict):
            code = body.get("error", {}).get("code", "")
        super().__init__(f"HTTP {status} {code}".strip())
        self.status = status
        self.body = body
        self.code = code
        self.retry_after = retry_after


class ServiceClient:
    """Blocking JSON client bound to one server address."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: ``.connection``: the calling thread's open keep-alive connection.
        self._local = threading.local()

    def request(
        self, method: str, path: str, payload: Optional[object] = None
    ) -> Tuple[int, Dict[str, str], object]:
        """One round trip; returns (status, headers, decoded JSON body)."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = getattr(self._local, "connection", None)
        self._local.connection = None  # handed back only after a clean answer
        response = None
        while True:
            reused = connection is not None
            if not reused:
                connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except BaseException as error:
                connection.close()
                # A kept connection the server has since closed (idle timeout,
                # restart) fails before any status line arrives: then, and
                # only once, the request goes out again on a fresh one.
                stale = reused and response is None and isinstance(error, _STALE_CONNECTION)
                if not stale:
                    raise
            connection = None
        if response.will_close:  # the server said ``Connection: close``
            connection.close()
        else:
            self._local.connection = connection
        return response.status, dict(response.getheaders()), _decode(raw)

    def raw(self, method: str, path: str, body: bytes) -> Tuple[int, Dict[str, str], object]:
        """Send a pre-encoded body verbatim, on a connection of its own
        (malformed-payload tests)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), _decode(response.read())
        finally:
            connection.close()

    def _call(self, method: str, path: str, payload: Optional[object] = None) -> dict:
        status, headers, body = self.request(method, path, payload)
        if status >= 300:
            retry_after = headers.get("Retry-After")
            raise ServiceClientError(
                status, body, int(retry_after) if retry_after else None
            )
        return body  # type: ignore[return-value]

    # --------------------------------------------------------- conveniences
    def health(self) -> dict:
        return self._call("GET", "/healthz")

    def metrics_text(self) -> str:
        status, _headers, body = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceClientError(status, body)
        return body  # type: ignore[return-value]

    def create_session(
        self,
        session_id: Optional[str] = None,
        config: Optional[dict] = None,
        truth: Optional[Sequence[Sequence[str]]] = None,
        cross_sources: Optional[Sequence[str]] = None,
    ) -> dict:
        payload: dict = {"config": config or {}}
        if session_id is not None:
            payload["session_id"] = session_id
        if truth is not None:
            payload["truth"] = [list(pair) for pair in truth]
        if cross_sources is not None:
            payload["cross_sources"] = list(cross_sources)
        return self._call("POST", "/sessions", payload)

    def append(
        self,
        session_id: str,
        records: Sequence[dict],
        truth: Optional[Sequence[Sequence[str]]] = None,
    ) -> dict:
        payload: dict = {"records": list(records)}
        if truth is not None:
            payload["truth"] = [list(pair) for pair in truth]
        return self._call("POST", f"/sessions/{session_id}/batch", payload)

    def retract(self, session_id: str, record_id: str) -> dict:
        return self._call(
            "POST", f"/sessions/{session_id}/retract", {"record_id": record_id}
        )

    def update(self, session_id: str, record: dict) -> dict:
        return self._call(
            "POST", f"/sessions/{session_id}/update", {"record": record}
        )

    def flush(self, session_id: str) -> dict:
        return self._call("POST", f"/sessions/{session_id}/flush", {})

    def save(self, session_id: str) -> dict:
        return self._call("POST", f"/sessions/{session_id}/save", {})

    def restore(self, session_id: str, checkpoint_dir: str) -> dict:
        return self._call(
            "POST",
            f"/sessions/{session_id}/restore",
            {"checkpoint_dir": checkpoint_dir},
        )

    def status(self, session_id: str) -> dict:
        return self._call("GET", f"/sessions/{session_id}")

    def result(
        self, session_id: str, limit: Optional[int] = None, after: int = 0
    ) -> dict:
        """The full result, or with ``limit`` the ``ranked`` pairs
        ``after`` to ``after + limit``, most likely match first."""
        path = f"/sessions/{session_id}/result"
        if limit is not None:
            path += f"?limit={limit}&after={after}"
        return self._call("GET", path)

    def close(self, session_id: str) -> dict:
        return self._call("DELETE", f"/sessions/{session_id}")

    def list_sessions(self) -> List[dict]:
        return self._call("GET", "/sessions")["sessions"]
