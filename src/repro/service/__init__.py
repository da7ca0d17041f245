"""Resolution-as-a-service: an asyncio HTTP front-end for streaming sessions.

The engine is a library; this package makes it a long-lived server process
hosting many concurrent :class:`~repro.streaming.StreamingResolver`
sessions behind a small HTTP/1.1 API (stdlib ``asyncio`` only — no new
dependencies).

Architecture — see ``docs/service.md`` for the full picture:

* :class:`~repro.service.app.ResolutionService` owns the HTTP listener, the
  route table, and the lifecycle (start / graceful stop).
* :class:`~repro.service.shards.ShardExecutor` gives every session exactly
  one owner: a session is placed on the least-loaded shard when it is
  created or restored, and each shard executes its work on one dedicated
  thread through an **ordered queue** — requests against one session
  serialize (preserving the event-log/storage guarantees, including SQLite
  thread affinity), while sessions on different shards run concurrently.  A full
  queue answers ``429`` with ``Retry-After`` instead of buffering without
  bound.
* :class:`~repro.service.sessions.SessionManager` maps the HTTP lifecycle
  (create / append / retract / update / flush / status / save / restore /
  close) onto resolver calls and JSON payloads.  A record mutation answers
  with what its event changed (delta, counters, changed pairs); the
  resolution is read with ``GET result``, whole or a ranked page at a time,
  and ``flush`` answers with the settled one.  Every answer is encoded on
  the shard thread that ran the call.
* :class:`~repro.service.client.ServiceClient` is the matching blocking
  client (stdlib ``http.client``, one keep-alive connection per calling
  thread) used by the tests, the benchmark and CI.

The machine pass of a hosted session scores an append's row blocks on
short-lived worker threads of the shard that owns it
(:func:`repro.simjoin.parallel.join_blocks`): the server never forks and
keeps nothing outside its sessions' stores.  Graceful shutdown drains the
shard queues, ``save()``\\ s every durable session and stops the shards.
"""

from repro.service.app import ResolutionService
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.errors import ServiceError
from repro.service.sessions import SessionManager
from repro.service.shards import ShardExecutor

__all__ = [
    "ResolutionService",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "SessionManager",
    "ShardExecutor",
]
