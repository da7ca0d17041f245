"""Long-lived shard pools and shared-memory array blocks.

The original ``parallel`` backend forked a fresh process pool for every
join call and shipped the serialized CSR index to each worker through the
pool initializer — one fork *plus one full index copy per worker, per
batch*.  Acceptable for one-shot joins, ruinous for a streaming session
(or a server hosting many of them) where every arriving batch re-pays the
whole setup.

This module provides the two pieces that remove that per-batch cost:

* :class:`ShardPool` — a process pool created **once** and reused across
  batches (and across sessions: pools are process-global singletons keyed
  by worker count, see :func:`shared_pool`).  Workers stay alive between
  calls, so a batch costs task dispatch, not ``fork()``.
* :class:`SharedArrayBlock` — a set of numpy arrays published **once** into
  a shared-memory file (``/dev/shm`` when available, so the bytes live in
  page cache, never on disk) that every worker maps read-only and
  zero-copy via ``np.memmap``.  Publishing is one memcpy total instead of
  one serialisation round-trip *per worker*; workers cache their mappings by
  block token, so repeated shards of the same batch attach for free.

Lifecycle: the parent unlinks a block's file as soon as the shards that
use it have completed — the workers' open mappings keep the pages alive
(standard POSIX unlink semantics), and each worker evicts stale cache
entries the next time it attaches a newer block.  Pools are torn down by
:func:`shutdown_pools` (registered ``atexit``; the service calls it during
graceful shutdown) and are recreated transparently if the process forks or
a worker dies.

The shard *task* functions that run on these pools live in
:mod:`repro.simjoin.parallel`; this module is deliberately generic (blocks
of named arrays in, ``Pool.map`` out).
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import tempfile
import uuid
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

logger = logging.getLogger(__name__)

#: Worker-side cap on cached blocks (the attachment plus the state derived
#: from it, evicted together).  One block per join call is live at a time,
#: so a handful covers every interleaving; the cache only has to stop a
#: long-lived worker from pinning unlinked shared-memory pages forever.
WORKER_CACHE_BLOCKS = 4

_BYTE_ALIGNMENT = 64


def shared_block_dir() -> str:
    """Directory backing shared blocks: tmpfs when the platform has one."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    return tempfile.gettempdir()


def _aligned(offset: int) -> int:
    remainder = offset % _BYTE_ALIGNMENT
    return offset if remainder == 0 else offset + (_BYTE_ALIGNMENT - remainder)


class SharedArrayBlock:
    """Named numpy arrays published once into one shared-memory file.

    The parent builds a block from a dict of arrays, hands its
    :attr:`descriptor` (a small JSON-ish dict) to the shard tasks, and
    calls :meth:`unlink` when the consuming shards are done.  Workers call
    :func:`attach_block` with the descriptor and get zero-copy read-only
    views.
    """

    def __init__(self, path: str, token: str, layout: Dict[str, Tuple[str, Tuple[int, ...], int]]) -> None:
        self.path = path
        self.token = token
        self._layout = layout

    @classmethod
    def create(
        cls, arrays: Dict[str, np.ndarray], directory: Optional[str] = None
    ) -> "SharedArrayBlock":
        """Write ``arrays`` into a fresh shared-memory file (one memcpy)."""
        token = uuid.uuid4().hex
        path = os.path.join(directory or shared_block_dir(), f"repro-shard-{token}.bin")
        layout: Dict[str, Tuple[str, Tuple[int, ...], int]] = {}
        offset = 0
        contiguous: Dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            contiguous[name] = array
            offset = _aligned(offset)
            layout[name] = (array.dtype.str, tuple(array.shape), offset)
            offset += array.nbytes
        with open(path, "wb") as handle:
            position = 0
            for name, array in contiguous.items():
                _, _, start = layout[name]
                if start > position:
                    handle.write(b"\x00" * (start - position))
                    position = start
                if array.nbytes:
                    # One copy total: straight from the array's buffer into
                    # the page cache (tmpfs => this IS the shared memory).
                    handle.write(array.data)
                    position += array.nbytes
            if position == 0:
                handle.write(b"\x00")
        return cls(path, token, layout)

    @property
    def descriptor(self) -> Dict[str, object]:
        """Picklable handle a worker needs to attach the block."""
        return {
            "path": self.path,
            "token": self.token,
            "layout": {
                name: [dtype, list(shape), offset]
                for name, (dtype, shape, offset) in self._layout.items()
            },
        }

    def unlink(self) -> None:
        """Remove the backing file; existing worker mappings stay valid."""
        try:
            os.unlink(self.path)
        except OSError:  # pragma: no cover - already gone
            pass


def attach_block(descriptor: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Map a published block read-only (zero-copy ``np.memmap`` views).

    The mapping lives as long as the returned arrays are referenced; the
    caller owns caching (see ``_WORKER_SCORERS`` in
    :mod:`repro.simjoin.parallel`, bounded by ``WORKER_CACHE_BLOCKS``).
    """
    arrays: Dict[str, np.ndarray] = {}
    path = descriptor["path"]
    for name, (dtype, shape, offset) in dict(descriptor["layout"]).items():
        shape = tuple(shape)
        count = int(np.prod(shape)) if shape else 1
        if count == 0:
            arrays[name] = np.empty(shape, dtype=np.dtype(dtype))
        else:
            arrays[name] = np.memmap(
                path, dtype=np.dtype(dtype), mode="r", offset=offset, shape=shape
            )
    return arrays


def _fork_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, Linux default); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ShardPool:
    """A long-lived process pool executing shard tasks across batches.

    Thin wrapper over ``multiprocessing.Pool`` that exposes worker PIDs
    (the pool-reuse regression test pins their stability across batches)
    and liveness, so the singleton registry can replace a pool whose
    workers died.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._created_pid = os.getpid()
        self._pool = _fork_context().Pool(processes=workers)

    def map(self, func: Callable, items: Sequence) -> List:
        """Run ``func`` over ``items``; results come back in item order."""
        # chunksize=1: shards are coarse already, and dynamic hand-out
        # balances the self-join triangle skew across workers.
        return self._pool.map(func, items, chunksize=1)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes."""
        return [process.pid for process in self._pool._pool]

    def healthy(self) -> bool:
        """True while this process owns the pool and every worker is alive."""
        if os.getpid() != self._created_pid:
            return False
        processes = self._pool._pool
        return bool(processes) and all(p.is_alive() for p in processes)

    def close(self) -> None:
        """Terminate the workers (idempotent)."""
        self._pool.terminate()
        self._pool.join()


# Process-global pool registry, keyed by worker count.
_POOLS: Dict[int, ShardPool] = {}


def shared_pool(workers: int) -> ShardPool:
    """The process-wide reused pool for ``workers`` (created on first use).

    A registered pool that turned unhealthy — the process forked, or a
    worker was killed — is dropped and rebuilt transparently.
    """
    pool = _POOLS.get(workers)
    if pool is not None and pool.healthy():
        return pool
    if pool is not None:
        if pool._created_pid == os.getpid():
            pool.close()
        _POOLS.pop(workers, None)
        logger.debug("replacing unhealthy shard pool (workers=%d)", workers)
    pool = ShardPool(workers)
    _POOLS[workers] = pool
    return pool


def active_pools() -> Dict[int, ShardPool]:
    """The currently registered pools (inspection/testing)."""
    return dict(_POOLS)


def shutdown_pools() -> None:
    """Terminate every registered pool (idempotent; registered atexit)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        if pool._created_pid == os.getpid():
            pool.close()


atexit.register(shutdown_pools)
