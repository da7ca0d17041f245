"""The resolution service: route table, dispatch, lifecycle.

Endpoints (see ``docs/service.md`` for the full reference):

=======  ==============================  =======================================
Method   Path                            Action
=======  ==============================  =======================================
GET      ``/healthz``                    liveness probe
GET      ``/metrics``                    Prometheus text scrape (needs metrics)
GET      ``/sessions``                   list hosted sessions
POST     ``/sessions``                   create a session (WorkflowConfig JSON)
GET      ``/sessions/{id}``              status (record/candidate/event counts)
DELETE   ``/sessions/{id}``              save (when durable) and close
GET      ``/sessions/{id}/result``       full snapshot (matches + posteriors), or
                                         ``?limit=k&after=r``: a ranked page
POST     ``/sessions/{id}/batch``        append a record batch
POST     ``/sessions/{id}/retract``      retract one record
POST     ``/sessions/{id}/update``       revise one record
POST     ``/sessions/{id}/flush``        settle the session; answers ``result``
POST     ``/sessions/{id}/save``         checkpoint now
POST     ``/sessions/{id}/restore``      re-open a durable session
=======  ==============================  =======================================

The three record mutations answer with their event's delta, counters and
changed pairs (:func:`repro.service.sessions.encode_event`), not with the
result; ``flush`` answers with the settled result, as ``GET result`` would.

Every request runs under a ``service.request`` span and feeds
``service_requests_total{route,method,status}`` /
``service_request_seconds{route}`` plus the ``service_sessions`` gauge;
per-shard queue depths are exported by the executor as
``service_queue_depth{shard}``.

Graceful shutdown (:meth:`ResolutionService.stop`): stop accepting, close
idle keep-alive connections, let requests in flight answer, drain every
shard queue, ``save()`` every open durable session on its owning
thread and stop the shard workers.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl

from repro import obs
from repro.service.errors import ServiceError, bad_request, not_found
from repro.service.http import HttpRequest, HttpResponse, HttpServer
from repro.service.sessions import SessionManager
from repro.service.shards import ShardExecutor

logger = logging.getLogger(__name__)

#: Session sub-resources accepting POST, mapped to manager coroutines
#: taking (session_id, payload).
_SESSION_ACTIONS = ("batch", "retract", "update", "flush", "save", "restore")


class ResolutionService:
    """A server process hosting many concurrent streaming sessions."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_count: int = 4,
        queue_depth: int = 64,
    ) -> None:
        self.host = host
        self.port = port
        self.shards = ShardExecutor(shard_count=shard_count, queue_depth=queue_depth)
        self.manager = SessionManager(self.shards)
        self._server: Optional[HttpServer] = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> int:
        """Start the shard workers and the HTTP listener; returns the port."""
        await self.shards.start()
        server = HttpServer(self._dispatch, self.host, self.port)
        self.port = await server.start()
        self._server = server
        logger.info(
            "service listening on %s:%d (%d shards, queue depth %d)",
            self.host, self.port, self.shards.shard_count, self.shards.queue_depth,
        )
        return self.port

    async def stop(self) -> None:
        """Graceful shutdown: drain, save durable sessions, stop the shards."""
        if self._server is not None:
            await self._server.close()
            self._server = None
        await self.shards.drain()
        saved = await self.manager.save_all()
        if saved:
            logger.info("saved %d durable session(s) on shutdown", len(saved))
        await self.shards.shutdown()
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (e.g. from a signal handler)."""
        await self._stopped.wait()

    # ------------------------------------------------------------- dispatch
    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        route, handler_args = self._route(request)
        started = time.perf_counter()
        status = 500
        try:
            with obs.span("service.request", route=route, method=request.method):
                response = await self._handle(request, route, handler_args)
            status = response.status
            return response
        except ServiceError as error:
            status = error.status
            response = HttpResponse(status=error.status, payload=error.body())
            if error.retry_after is not None:
                response.headers["Retry-After"] = str(error.retry_after)
            return response
        except Exception as error:  # noqa: BLE001 - boundary: never kill the server
            logger.exception("unhandled error on %s %s", request.method, request.path)
            return HttpResponse(
                status=500,
                payload={"error": {"code": "internal", "message": str(error)}},
            )
        finally:
            if obs.enabled():
                obs.inc(
                    "service_requests_total", 1,
                    route=route, method=request.method, status=status,
                    help="HTTP requests served, by route and status.",
                )
                obs.observe(
                    "service_request_seconds", time.perf_counter() - started,
                    route=route,
                    help="End-to-end request latency (including queueing).",
                )
                obs.set_gauge(
                    "service_sessions",
                    sum(1 for h in self.manager.sessions.values() if not h.closed),
                    help="Open sessions hosted by this server.",
                )

    def _route(self, request: HttpRequest) -> Tuple[str, Tuple[str, ...]]:
        """Classify the path into a route label plus path arguments."""
        parts = tuple(part for part in request.path.partition("?")[0].split("/") if part)
        if parts == ("healthz",):
            return "/healthz", ()
        if parts == ("metrics",):
            return "/metrics", ()
        if parts == ("sessions",):
            return "/sessions", ()
        if len(parts) == 2 and parts[0] == "sessions":
            return "/sessions/{id}", (parts[1],)
        if (
            len(parts) == 3
            and parts[0] == "sessions"
            and parts[2] in (*_SESSION_ACTIONS, "result")
        ):
            return f"/sessions/{{id}}/{parts[2]}", (parts[1],)
        return "<unknown>", ()

    def _json_body(self, request: HttpRequest) -> dict:
        if not request.body:
            return {}
        try:
            payload = request.json()
        except ValueError as error:
            raise bad_request(str(error)) from None
        if not isinstance(payload, dict):
            raise bad_request("request body must be a JSON object")
        return payload

    def _page_query(self, request: HttpRequest) -> Dict[str, int]:
        """``?limit=k&after=r`` of a result read as keyword arguments (none: the full form)."""
        query = parse_qsl(request.path.partition("?")[2], keep_blank_values=True)
        if not query:
            return {}
        params = dict(query)
        if len(params) != len(query) or not {"limit"} <= params.keys() <= {"limit", "after"}:
            raise bad_request("a result page takes 'limit' and optionally 'after', once each")
        for name, value in params.items():
            # Digits only, and few enough that int() cannot refuse them.
            if not (value.isascii() and value.isdigit() and len(value) < 19):
                raise bad_request(f"{name!r} must be a non-negative integer, got {value[:32]!r}")
        return {name: int(value) for name, value in params.items()}

    async def _handle(
        self, request: HttpRequest, route: str, args: Tuple[str, ...]
    ) -> HttpResponse:
        method = request.method
        if route == "/healthz" and method == "GET":
            return HttpResponse(payload={
                "status": "ok",
                "sessions": len(self.manager.sessions),
                "queue_depths": self.shards.queue_depths(),
            })
        if route == "/metrics" and method == "GET":
            snapshot = obs.snapshot()
            if snapshot is None:
                raise ServiceError(503, "metrics_disabled",
                                   "metrics are not enabled on this server")
            return HttpResponse(
                text=obs.to_prometheus(snapshot),
                content_type="text/plain; version=0.0.4",
            )
        if route == "/sessions":
            if method == "GET":
                return HttpResponse(payload=self.manager.list_sessions())
            if method == "POST":
                payload = self._json_body(request)
                return HttpResponse(
                    status=201, payload=await self.manager.create(payload)
                )
        if route == "/sessions/{id}":
            (session_id,) = args
            if method == "GET":
                return HttpResponse(payload=await self.manager.status(session_id))
            if method == "DELETE":
                return HttpResponse(payload=await self.manager.close(session_id))
        if route == "/sessions/{id}/result" and method == "GET":
            return HttpResponse(
                payload=await self.manager.result(args[0], **self._page_query(request))
            )
        if route.startswith("/sessions/{id}/") and method == "POST":
            action = route.rsplit("/", 1)[1]
            (session_id,) = args
            payload = self._json_body(request)
            if action == "batch":
                return HttpResponse(payload=await self.manager.append(session_id, payload))
            if action == "retract":
                return HttpResponse(payload=await self.manager.retract(session_id, payload))
            if action == "update":
                return HttpResponse(payload=await self.manager.update(session_id, payload))
            if action == "flush":
                return HttpResponse(payload=await self.manager.flush(session_id))
            if action == "save":
                return HttpResponse(payload=await self.manager.save(session_id))
            if action == "restore":
                return HttpResponse(payload=await self.manager.restore(session_id, payload))
        raise not_found(f"no route for {method} {request.path}")


def run_service(
    host: str = "127.0.0.1",
    port: int = 8722,
    shard_count: int = 4,
    queue_depth: int = 64,
    port_file: Optional[str] = None,
) -> None:
    """Blocking entry point: serve until SIGINT/SIGTERM, then shut down.

    ``port_file`` (paired with ``port=0``) publishes the actually-bound
    port atomically for scripted clients — the crash/restart tests and the
    CI smoke job poll for that file instead of racing on a fixed port.
    """
    import signal

    async def main() -> None:
        service = ResolutionService(
            host=host, port=port, shard_count=shard_count, queue_depth=queue_depth
        )
        await service.start()
        if port_file:
            from pathlib import Path

            target = Path(port_file)
            scratch = target.with_suffix(target.suffix + ".tmp")
            scratch.write_text(str(service.port))
            scratch.replace(target)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(service.stop())
            )
        await service.serve_forever()

    asyncio.run(main())
