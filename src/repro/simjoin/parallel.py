"""Process-pool sharded similarity join: the ``parallel`` backend.

:mod:`repro.simjoin.vectorized` computes the machine pass through blocked
sparse products — exact, but single core.  :func:`join_blocks` splits the
*row range* of the same product across the long-lived worker pool:

1. the parent publishes the operand arrays **once per call** into a
   shared-memory block (:class:`repro.simjoin.pool.SharedArrayBlock`) that
   every worker maps zero-copy — CSR ``data``/``indices``/``indptr``
   arrays, not records, and always the same payload shape whatever the
   caller (self-join, record linkage or a streaming append),
2. each worker rebuilds the :class:`~repro.simjoin.vectorized.BlockScorer`
   the serial engine would have built and walks a disjoint contiguous
   range of row positions with it,
3. the parent merges the per-shard pair deltas in deterministic shard order
   (``Pool.map`` preserves submission order) and translates row positions
   back to whatever they index.

**Equivalence guarantee.**  Every similarity value is an elementwise
float64 expression of one pair's intersection count and the two set sizes;
neither block boundaries nor shard boundaries enter the arithmetic.  For
any worker count the pair set and every likelihood are therefore
*bit-identical* to the serial vectorized join — asserted exactly (``==``,
not approximately) by the property tests in ``tests/test_parallel_join.py``.

The pool (:func:`repro.simjoin.pool.shared_pool`) survives across calls —
and therefore across streaming batches and sessions — so a call costs one
memcpy of the index plus task dispatch.  Tiny joins are still faster
inline: a single shard (or a single worker) never touches the pool, and the
``auto`` heuristic in :mod:`repro.simjoin.backend` only picks ``parallel``
above ``AUTO_PARALLEL_MIN_RECORDS`` with more than one effective worker.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.simjoin.pool import (
    WORKER_CACHE_BLOCKS,
    SharedArrayBlock,
    attach_block,
    shared_pool,
)
from repro.simjoin.vectorized import (
    HAVE_SCIPY,
    BlockScorer,
    VectorizedSimJoin,
    _BlockPairs,
)

if HAVE_SCIPY:
    from scipy import sparse
else:  # pragma: no cover - scipy is part of the image
    sparse = None

#: Rows per shard are chosen so each worker gets several shards to balance
#: the triangle skew (self-join rows differ in how many columns survive).
SHARDS_PER_WORKER = 4


def default_worker_count() -> int:
    """Worker count used when none is configured: one per available core."""
    return max(1, os.cpu_count() or 1)


def resolve_worker_count(workers: Optional[int]) -> int:
    """Resolve a configured worker count: ``None``/``0`` = one per core.

    The single place the default-resolution rule lives — the engines and
    the ``auto`` backend heuristic must agree on the effective count.
    """
    if workers:
        return workers
    return default_worker_count()


def shard_bounds(count: int, workers: int, block_size: int) -> List[Tuple[int, int]]:
    """Contiguous [start, stop) row-position shards covering ``count`` rows.

    Aims for ``SHARDS_PER_WORKER`` shards per worker (dynamic pool
    scheduling then load-balances the triangle skew) but never slices finer
    than one matmul block, so a shard is never trivially small.
    """
    if count <= 0:
        return []
    shard_count = max(1, min(workers * SHARDS_PER_WORKER, math.ceil(count / block_size)))
    edges = np.linspace(0, count, shard_count + 1).astype(np.int64)
    return [
        (int(edges[i]), int(edges[i + 1]))
        for i in range(shard_count)
        if edges[i] < edges[i + 1]
    ]


def _concat_blocks(parts: List[_BlockPairs]) -> _BlockPairs:
    """Merge a shard's blocks into one (rows, cols, values) triple."""
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    return (
        np.concatenate([rows for rows, _, _ in parts]),
        np.concatenate([cols for _, cols, _ in parts]),
        np.concatenate([values for _, _, values in parts]),
    )


# ----------------------------------------------------------- worker side
def _csr_arrays(prefix: str, matrix: "sparse.csr_matrix") -> Dict[str, np.ndarray]:
    return {
        f"{prefix}_data": matrix.data,
        f"{prefix}_indices": matrix.indices,
        f"{prefix}_indptr": matrix.indptr,
    }


def _attached_csr(
    arrays: Dict[str, np.ndarray], prefix: str, width: int
) -> "sparse.csr_matrix":
    indptr = arrays[f"{prefix}_indptr"]
    return sparse.csr_matrix(
        (arrays[f"{prefix}_data"], arrays[f"{prefix}_indices"], indptr),
        shape=(len(indptr) - 1, width),
    )


# The worker-side cache: block token -> the scorer built over that block.
# A scorer references its attached arrays, so evicting the entry releases
# the mapping and the derived transpose together.  Insertion order doubles
# as recency (a block is attached once and then only looked up).
_WORKER_SCORERS: Dict[str, BlockScorer] = {}


def _pooled_shard(task) -> Tuple[_BlockPairs, float, int]:
    """One shard task: attach the block (or reuse its scorer), score the rows."""
    descriptor, width, params, (start, stop) = task
    scorer = _WORKER_SCORERS.get(descriptor["token"])
    if scorer is None:
        while len(_WORKER_SCORERS) >= WORKER_CACHE_BLOCKS:
            _WORKER_SCORERS.pop(next(iter(_WORKER_SCORERS)))
        arrays = attach_block(descriptor)
        scorer = BlockScorer(
            _attached_csr(arrays, "left", width),
            _attached_csr(arrays, "right", width) if "right_indptr" in arrays else None,
            alive=arrays.get("alive"),
            **params,
        )
        _WORKER_SCORERS[descriptor["token"]] = scorer
    # Shard timing is measured inside the worker (its copy of the obs
    # runtime is inert, so a plain perf_counter pair travels back with the
    # result and the parent records it).
    started = time.perf_counter()
    blocks = _concat_blocks(list(scorer.blocks(start, stop)))
    return blocks, time.perf_counter() - started, os.getpid()


# ----------------------------------------------------------- parent side
def join_blocks(
    left: "sparse.csr_matrix",
    right: Optional["sparse.csr_matrix"] = None,
    *,
    workers: int = 1,
    start: int = 0,
    alive: Optional[np.ndarray] = None,
    **params,
) -> Iterator[_BlockPairs]:
    """Score ``left`` rows ``[start, n)`` against ``right`` (``None`` = itself).

    ``params`` are the :class:`~repro.simjoin.vectorized.BlockScorer`
    keywords.  The rows are cut into :func:`shard_bounds` shards; with one
    worker or one shard they are scored inline — a pool cannot win back its
    dispatch cost there — otherwise the same shards run on the shared pool.
    Blocks come back in row order either way, so the result is
    bit-identical for any worker count.
    """
    stop = left.shape[0]
    bounds = [
        (start + low, start + high)
        for low, high in shard_bounds(stop - start, workers, params["block_size"])
    ]
    if workers <= 1 or len(bounds) <= 1:
        yield from BlockScorer(left, right, alive=alive, **params).blocks(start, stop)
        return
    kind = params["kind"]
    arrays = _csr_arrays("left", left)
    if right is not None:
        arrays.update(_csr_arrays("right", right))
    if alive is not None:
        arrays["alive"] = alive
    with obs.span(
        "simjoin.parallel.map",
        kind=kind, shards=len(bounds), workers=min(workers, len(bounds)),
    ):
        block = SharedArrayBlock.create(arrays)
        try:
            outcomes = shared_pool(workers).map(
                _pooled_shard,
                [(block.descriptor, left.shape[1], params, shard) for shard in bounds],
            )
        finally:
            # Workers keep their mappings; the file can go right away.
            block.unlink()
    # Workers cannot record metrics themselves, so the parent folds their
    # per-shard timings into the obs registry.
    if obs.enabled():
        for _, seconds, pid in outcomes:
            obs.inc("simjoin_parallel_shards_total", 1, kind=kind,
                    help="Row shards processed by the parallel join pool.")
            obs.observe("simjoin_parallel_shard_seconds", seconds,
                        kind=kind, worker=pid,
                        help="Per-worker compute seconds of one row shard.")
    for blocks, _, _ in outcomes:
        yield blocks


class ParallelSimJoin(VectorizedSimJoin):
    """Sharded multi-process variant of :class:`VectorizedSimJoin`.

    Parameters are those of the serial engine plus ``workers``:

    workers:
        Number of worker processes.  ``None`` or ``0`` means one per
        available CPU core; ``1`` degenerates to the serial engine (no pool
        is touched).  Any value is legal — more workers than shards simply
        leaves the extra workers idle.
    """

    def __init__(
        self,
        threshold: float = 0.0,
        attributes: Optional[Sequence[str]] = None,
        measure: str = "jaccard",
        block_size: int = 1024,
        workers: Optional[int] = None,
    ) -> None:
        super().__init__(
            threshold=threshold,
            attributes=attributes,
            measure=measure,
            block_size=block_size,
        )
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative (0/None = auto)")
        self.workers = workers

    def effective_workers(self) -> int:
        """The concrete worker count (resolving the ``None``/``0`` default)."""
        return resolve_worker_count(self.workers)

    def _blocks(self, left, right, **params) -> Iterator[_BlockPairs]:
        return join_blocks(left, right, workers=self.effective_workers(), **params)
