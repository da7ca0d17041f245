"""Sharded ordered execution: one owner thread per group of sessions.

Why shards instead of a free thread pool: a streaming session is a stateful
object with strict ordering requirements (event-log sequence, SQLite
connections bound to their creating thread), so every operation against a
session must run (a) one at a time and (b) on the same thread for the
session's whole life.  :class:`ShardExecutor` provides exactly that: each
shard is an ordered ``asyncio.Queue`` feeding one dedicated worker thread,
and a session is pinned to the shard that held the fewest sessions when it
was created or restored (ties to the lowest index) until it is closed.
Placement is by load, not by a hash of the id: ids that differ in one
character (``p7-s0``, ``p7-s1``) must not share a shard for it.

Requests against sessions on the same shard serialize in arrival order;
sessions on different shards run concurrently.  A full shard queue rejects
new work immediately (the caller answers ``429 Retry-After``) instead of
queueing without bound — latency honesty over buffering.
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.service.errors import backpressure

#: Sentinel telling a shard's pump loop to exit.
_SHUTDOWN = object()

#: Default seconds clients are told to wait after a 429.
DEFAULT_RETRY_AFTER = 1


class _Shard:
    """One ordered work queue + its dedicated executor thread."""

    def __init__(self, index: int, queue_depth: int) -> None:
        self.index = index
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        # ONE thread: every session owned by this shard lives and dies on
        # it (a session's SQLite connection is thread-affine).
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )
        self.pump: Optional[asyncio.Task] = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self.queue.get()
            try:
                if item is _SHUTDOWN:
                    return
                context, fn, args, future = item
                try:
                    result = await loop.run_in_executor(
                        self.executor, context.run, fn, *args
                    )
                except Exception as error:  # noqa: BLE001 - relayed to caller
                    if not future.cancelled():
                        future.set_exception(error)
                else:
                    if not future.cancelled():
                        future.set_result(result)
            finally:
                self.queue.task_done()
                if obs.enabled():
                    obs.set_gauge(
                        "service_queue_depth", self.queue.qsize(),
                        shard=self.index,
                        help="Queued requests per service shard.",
                    )


class ShardExecutor:
    """Route work to per-shard ordered queues backed by dedicated threads.

    ``submit`` returns an awaitable resolving to the callable's result (or
    raising its exception).  Work for one routing key always runs on the
    same thread, in submission order; a full queue raises the 429-mapped
    :func:`~repro.service.errors.backpressure` error immediately.

    A routing key is placed on a shard by :meth:`place` — or by its first
    ``submit`` — and keeps it until :meth:`release`.  Placement and release
    happen on the event loop's thread only, so they need no lock.
    """

    def __init__(
        self,
        shard_count: int = 4,
        queue_depth: int = 64,
        retry_after: int = DEFAULT_RETRY_AFTER,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.shard_count = shard_count
        self.queue_depth = queue_depth
        self.retry_after = retry_after
        self._shards: List[_Shard] = []
        self._started = False
        self._placement: Dict[str, int] = {}
        self._placed = [0] * shard_count

    async def start(self) -> None:
        """Create the shard queues and start their pump tasks."""
        if self._started:
            return
        self._shards = [
            _Shard(index, self.queue_depth) for index in range(self.shard_count)
        ]
        for shard in self._shards:
            shard.pump = asyncio.create_task(shard._run())
        self._started = True

    def place(self, routing_key: str) -> int:
        """The shard owning ``routing_key``; an unplaced key is put on the
        shard with the fewest placed keys, ties to the lowest index."""
        index = self._placement.get(routing_key)
        if index is None:
            index = self._placed.index(min(self._placed))
            self._placement[routing_key] = index
            self._placed[index] += 1
        return index

    def release(self, routing_key: str) -> None:
        """Free ``routing_key``'s slot; its next :meth:`place` is a new choice."""
        index = self._placement.pop(routing_key, None)
        if index is not None:
            self._placed[index] -= 1

    async def submit(
        self, routing_key: str, fn: Callable[..., Any], *args: Any
    ) -> Any:
        """Run ``fn(*args)`` on the owning shard's thread; await the result."""
        if not self._started:
            raise RuntimeError("ShardExecutor.start() has not been called")
        shard = self._shards[self.place(routing_key)]
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        # The owner thread starts with an empty context: the call runs in a
        # copy of the submitter's (one per task, a Context cannot be entered
        # twice at once), so its spans are children of the request's span.
        try:
            shard.queue.put_nowait((contextvars.copy_context(), fn, args, future))
        except asyncio.QueueFull:
            raise backpressure(shard.index, self.retry_after) from None
        if obs.enabled():
            obs.set_gauge(
                "service_queue_depth", shard.queue.qsize(), shard=shard.index,
                help="Queued requests per service shard.",
            )
        return await future

    def queue_depths(self) -> List[int]:
        """Current queue depth per shard (observability/status)."""
        return [shard.queue.qsize() for shard in self._shards]

    async def drain(self) -> None:
        """Wait until every queued request has completed."""
        for shard in self._shards:
            await shard.queue.join()

    async def shutdown(self) -> None:
        """Drain, stop the pump tasks and release the worker threads."""
        if not self._started:
            return
        await self.drain()
        for shard in self._shards:
            await shard.queue.put(_SHUTDOWN)
        for shard in self._shards:
            if shard.pump is not None:
                await shard.pump
        for shard in self._shards:
            shard.executor.shutdown(wait=True)
        self._started = False
