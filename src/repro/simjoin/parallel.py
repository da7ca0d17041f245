"""The store-level join and the process-pool sharding of its row range.

:mod:`repro.simjoin.vectorized` holds the kernel — one blocked sparse
product, exact, single core.  :func:`join_blocks` runs that kernel over a
row range, inline or split across the long-lived worker pool, and
:class:`VectorizedSimJoin` is the batch join of a whole record store on top
of it (streaming appends call :func:`join_blocks` directly).  Sharded:

1. the parent publishes the operand arrays **once per call** into a
   shared-memory block (:class:`repro.simjoin.pool.SharedArrayBlock`) that
   every worker maps zero-copy — CSR ``data``/``indices``/``indptr``
   arrays, not records, and always the same payload shape whatever the
   caller (self-join, record linkage or a streaming append),
2. each worker rebuilds the :class:`~repro.simjoin.vectorized.BlockScorer`
   the inline path would have built and walks a disjoint contiguous range
   of row positions with it,
3. the parent merges the per-shard pair deltas in deterministic shard order
   (``Pool.map`` preserves submission order) and translates row positions
   back to whatever they index.

**Equivalence guarantee.**  Every similarity value is an elementwise
float64 expression of one pair's intersection count and the two set sizes;
neither block boundaries nor shard boundaries enter the arithmetic.  For
any worker count the pair set and every likelihood are therefore
*bit-identical* to the one-worker join — asserted exactly (``==``, not
approximately) by the property tests in ``tests/test_parallel_join.py``.

The pool (:func:`repro.simjoin.pool.shared_pool`) survives across calls —
and therefore across streaming batches and sessions — so a call costs one
memcpy of the index plus task dispatch.  Tiny joins are still faster
inline: a single shard (or a single worker) never touches the pool, and
:class:`~repro.simjoin.likelihood.SimJoinLikelihood` only hands the batch
join more than one worker at
:data:`~repro.simjoin.likelihood.POOL_MIN_RECORDS` records and above.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record, RecordStore
from repro.records.tokenize import WhitespaceTokenizer, record_token_set
from repro.simjoin.columnar import columnar_csr_arrays
from repro.simjoin.pool import (
    WORKER_CACHE_BLOCKS,
    SharedArrayBlock,
    attach_block,
    shared_pool,
)
from repro.simjoin.vectorized import (
    HAVE_SCIPY,
    MEASURES,
    BlockScorer,
    _BlockPairs,
    require_scipy,
)

if HAVE_SCIPY:
    from scipy import sparse
else:  # pragma: no cover - scipy is part of the image
    sparse = None

#: Rows per shard are chosen so each worker gets several shards to balance
#: the triangle skew (self-join rows differ in how many columns survive).
SHARDS_PER_WORKER = 4

# A join plan: ("self", keep, None) or ("bipartite", left, right), where the
# arrays hold global row indices into the incidence matrix.
JoinPlan = Tuple[str, np.ndarray, Optional[np.ndarray]]


def default_worker_count() -> int:
    """Worker count used when none is configured: one per available core."""
    return max(1, os.cpu_count() or 1)


def resolve_worker_count(workers: Optional[int]) -> int:
    """Resolve a configured worker count: ``None``/``0`` = one per core.

    The single place the default-resolution rule lives — the batch join
    and the streaming join must agree on the effective count.
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


class VectorizedSimJoin:
    """Exact set-similarity self/cross join of a record store via the kernel.

    Parameters
    ----------
    threshold:
        Minimum similarity; pairs strictly below it are not materialised.
        ``0.0`` is allowed (every pair is scored, matching the naive
        all-pairs scan).
    attributes:
        Attributes pooled into each record's token set (``None`` = all).
    measure:
        ``"jaccard"`` (the paper's simjoin), ``"dice"`` or ``"cosine"``
        (binary cosine ``|A n B| / sqrt(|A| |B|)``).
    block_size:
        Number of matrix rows multiplied per block; bounds peak memory at
        roughly ``block_size * n`` floats for zero-threshold joins.
    workers:
        Worker processes the row blocks are sharded over.  ``1`` (the
        default) scores inline and never touches the pool; ``None`` or ``0``
        means one per available CPU core.  Any value is legal — more
        workers than shards simply leaves the extra workers idle — and any
        value returns bit-identical pairs.
    """

    def __init__(
        self,
        threshold: float = 0.0,
        attributes: Optional[Sequence[str]] = None,
        measure: str = "jaccard",
        block_size: int = 1024,
        workers: Optional[int] = 1,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative (0/None = one per core)")
        self.threshold = threshold
        self.attributes = list(attributes) if attributes is not None else None
        self.measure = measure
        self.block_size = block_size
        self.workers = workers
        self._tokenizer = WhitespaceTokenizer()

    # ------------------------------------------------------------------ api
    def join(
        self,
        store: RecordStore,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        """Return all pairs with similarity >= threshold.

        With ``cross_sources`` only pairs with one record from each source
        are produced (record linkage); otherwise the whole store is
        self-joined (deduplication).
        """
        require_scipy()
        records = list(store)
        result = PairSet()
        if len(records) < 2:
            return result
        ids = [record.record_id for record in records]
        matrix = self._incidence_matrix(store)
        plan = self._plan(records, cross_sources)

        for rows, cols, values in self._pair_blocks(matrix, plan):
            for i, j, value in zip(rows.tolist(), cols.tolist(), values.tolist()):
                result.add(RecordPair(ids[i], ids[j], likelihood=value))
        return result

    # ------------------------------------------------------------- internals
    def _plan(
        self, records: Sequence[Record], cross_sources: Optional[Tuple[str, str]]
    ) -> JoinPlan:
        """Decide self-join vs bipartite join and which rows participate."""
        if cross_sources is not None and cross_sources[0] != cross_sources[1]:
            left = np.array(
                [i for i, r in enumerate(records) if r.source == cross_sources[0]],
                dtype=np.int64,
            )
            right = np.array(
                [i for i, r in enumerate(records) if r.source == cross_sources[1]],
                dtype=np.int64,
            )
            return ("bipartite", left, right)
        if cross_sources is None:
            keep = np.arange(len(records), dtype=np.int64)
        else:
            # Degenerate (a, a) cross join: both records from that source.
            keep = np.array(
                [i for i, r in enumerate(records) if r.source == cross_sources[0]],
                dtype=np.int64,
            )
        return ("self", keep, None)

    def _pair_blocks(
        self, matrix: "sparse.csr_matrix", plan: JoinPlan
    ) -> Iterator[_BlockPairs]:
        """All pair blocks of the plan, in global row indices: the blocked
        products plus, for positive thresholds, the empty-token pairs the
        sparse product cannot see.
        """
        kind, left, right = plan
        self_join = right is None
        if self_join:
            right = left
        if min(left.size, right.size) >= (2 if self_join else 1):
            blocks = join_blocks(
                matrix[left],
                None if self_join else matrix[right],
                workers=resolve_worker_count(self.workers),
                threshold=self.threshold,
                measure=self.measure,
                block_size=self.block_size,
                triangle=1 if self_join else 0,
                kind=kind,
            )
            for rows, cols, values in blocks:
                yield left[rows], right[cols], values
        if self.threshold > 0.0:
            yield from self._empty_pair_blocks(np.diff(matrix.indptr), plan)

    def _incidence_matrix(self, store: RecordStore) -> "sparse.csr_matrix":
        """Binary records-x-vocabulary CSR matrix of token memberships."""
        with obs.span("simjoin.vectorized.index_build", records=len(store)):
            token_sets = [
                record_token_set(record, self.attributes, self._tokenizer)
                for record in store
            ]
            indices, indptr, width = columnar_csr_arrays(token_sets)
            matrix = sparse.csr_matrix(
                (np.ones(len(indices), dtype=np.int32), indices, indptr),
                shape=(len(token_sets), max(1, width)),
            )
            matrix.sort_indices()
        return matrix

    def _empty_pair_blocks(
        self, sizes: np.ndarray, plan: JoinPlan
    ) -> Iterator[_BlockPairs]:
        """Pairs of empty-token records (similarity defined as 1.0).

        Empty rows never appear in a sparse product, so positive-threshold
        joins must emit them separately; the zero-threshold dense path
        already scores every pair and needs no patching.
        """
        kind, first, second = plan
        if kind == "bipartite":
            empty_left = first[sizes[first] == 0]
            empty_right = second[sizes[second] == 0]
            if empty_left.size and empty_right.size:
                rows = np.repeat(empty_left, empty_right.size)
                cols = np.tile(empty_right, empty_left.size)
                yield rows, cols, np.ones(rows.size, dtype=np.float64)
            return
        empty = first[sizes[first] == 0]
        if empty.size < 2:
            return
        rows, cols = np.triu_indices(empty.size, k=1)
        yield empty[rows], empty[cols], np.ones(rows.size, dtype=np.float64)
