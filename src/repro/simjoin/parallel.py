"""The store-level join, and worker threads over its row blocks.

:mod:`repro.simjoin.vectorized` holds the kernel — one blocked sparse
product, exact.  :func:`join_blocks` runs that kernel over a row range and
:class:`VectorizedSimJoin` is the batch join of a whole record store on top
of it (streaming appends call :func:`join_blocks` directly).

There is one scorer and one sequence of row blocks per call.  With one
worker, or a single block, the blocks are scored inline; otherwise the
*same* blocks go through ``ThreadPoolExecutor.map`` — scipy's sparse
product and numpy's filters release the GIL, so threads scale like
processes did (``docs/benchmarks.md``, "Threads, not processes") while
sharing the operands by reference: nothing is copied, published or
serialised, and the executor lives for the one call, so there is nothing
to reuse, register or shut down.

**Equivalence guarantee.**  The sharded join yields exactly the inline
join's blocks in the inline join's order, because it is the same loop with
the body submitted instead of called.  For any worker count the pair set
and every likelihood are therefore *bit-identical* to the one-worker join
— asserted exactly (``==``, not approximately) by the property tests in
``tests/test_parallel_join.py``.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record, RecordStore
from repro.records.tokenize import WhitespaceTokenizer, record_token_set
from repro.simjoin.columnar import columnar_csr_arrays
from repro.simjoin.vectorized import (
    DEFAULT_BLOCK_ROWS,
    HAVE_SCIPY,
    BlockScorer,
    _BlockPairs,
    require_scipy,
)

if HAVE_SCIPY:
    from scipy import sparse
else:  # pragma: no cover - scipy is part of the image
    sparse = None

# A join plan: ("self", keep, None) or ("bipartite", left, right), where the
# arrays hold global row indices into the incidence matrix.
JoinPlan = Tuple[str, np.ndarray, Optional[np.ndarray]]


def default_worker_count() -> int:
    """Worker count used when none is configured: one per core this process
    may run on — a cpuset or ``taskset`` can leave it fewer than the host has.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_worker_count(workers: Optional[int]) -> int:
    """Resolve a configured worker count: ``None``/``0`` = one per core.

    The single place the default-resolution rule lives — the batch join
    and the streaming join must agree on the effective count.
    """
    if workers:
        return workers
    return default_worker_count()


def join_blocks(
    left: "sparse.csr_matrix",
    right: Optional["sparse.csr_matrix"] = None,
    *,
    workers: int = 1,
    start: int = 0,
    **params,
) -> Iterator[_BlockPairs]:
    """Score ``left`` rows ``[start, n)`` against ``right`` (``None`` = itself).

    ``params`` are the :class:`~repro.simjoin.vectorized.BlockScorer`
    keywords.  One scorer, one sequence of row blocks: a single worker or a
    single block scores them inline, otherwise up to ``workers`` threads
    score the same blocks and the results come back in block order, so the
    output is the inline output for any worker count.  A block that raises
    cancels the blocks not yet started and its exception propagates; the
    threads are joined before this returns either way.
    """
    scorer = BlockScorer(left, right, **params)
    starts = scorer.block_starts(start)
    threads = min(workers, len(starts))
    if threads <= 1:
        yield from map(scorer.score, starts)
        return
    with obs.span(
        "simjoin.parallel.map", kind=scorer.kind, shards=len(starts), workers=threads
    ), ThreadPoolExecutor(threads, thread_name_prefix="repro-join") as executor:
        # Executor threads start with an empty context: each block runs in
        # its own copy of this one (a Context cannot be entered twice at
        # once), so its span is a child of the map span above.
        blocks = list(executor.map(
            lambda context, block_start: context.run(scorer.score, block_start),
            [contextvars.copy_context() for _ in starts],
            starts,
        ))
    if obs.enabled():
        obs.inc("simjoin_parallel_shards_total", len(starts), kind=scorer.kind,
                help="Row blocks dispatched to the join's worker threads.")
    yield from blocks


def ranked_pair_set(ids: Sequence[str], blocks: Iterable[_BlockPairs]) -> PairSet:
    """The pairs of ``blocks`` in canonical order: most likely first, then by key.

    ``ids[i]`` names row ``i``; each ``(rows, cols, values)`` block holds
    pairs of distinct records, no pair twice.  The order is the one
    ``sorted(pairs, key=lambda p: (-p.likelihood, p.key))`` gives, computed
    on the arrays: every id that occurs is ranked by Python's own ``str``
    order (numpy's string arrays drop trailing NULs, so they cannot rank
    ids), a pair's key is its two ranks low-first, and one ``lexsort``
    orders the pairs.
    """
    blocks = list(blocks)
    if not blocks:
        return PairSet()
    rows, cols, values = (np.concatenate(column) for column in zip(*blocks))
    occurring, position = np.unique(np.concatenate((rows, cols)), return_inverse=True)
    names = [ids[row] for row in occurring.tolist()]
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[by_name] = np.arange(len(names))
    first, second = rank[position[: len(rows)]], rank[position[len(rows) :]]
    low, high = np.minimum(first, second), np.maximum(first, second)
    order = np.lexsort((high, low, -values))
    ranked = [names[index] for index in by_name]
    pairs = PairSet()
    for a, b, value in zip(
        low[order].tolist(), high[order].tolist(), values[order].tolist()
    ):
        pairs.add(RecordPair(ranked[a], ranked[b], likelihood=value))
    return pairs


class VectorizedSimJoin:
    """Exact Jaccard self/cross join of a record store via the kernel.

    Parameters
    ----------
    threshold:
        Minimum similarity; pairs strictly below it are not materialised.
        ``0.0`` is allowed (every pair is scored, matching the naive
        all-pairs scan).
    attributes:
        Attributes pooled into each record's token set (``None`` = all).
    block_size:
        Number of matrix rows multiplied per block; bounds peak memory at
        roughly ``block_size * n`` floats for zero-threshold joins.
    workers:
        Threads the row blocks are scored on.  ``1`` (the default) scores
        inline; ``None`` or ``0`` means one per available CPU core.  Any
        value is legal — no more threads are started than there are blocks
        — and any value returns bit-identical pairs.
    """

    def __init__(
        self,
        threshold: float = 0.0,
        attributes: Optional[Sequence[str]] = None,
        block_size: int = DEFAULT_BLOCK_ROWS,
        workers: Optional[int] = 1,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative (0/None = one per core)")
        self.threshold = threshold
        self.attributes = list(attributes) if attributes is not None else None
        self.block_size = block_size
        self.workers = workers
        self._tokenizer = WhitespaceTokenizer()

    # ------------------------------------------------------------------ api
    def join(
        self,
        store: RecordStore,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        """Return all pairs with similarity >= threshold, in canonical order.

        With ``cross_sources`` only pairs with one record from each source
        are produced (record linkage); otherwise the whole store is
        self-joined (deduplication).  The pairs come most likely first, ties
        by key (:func:`ranked_pair_set`), whatever order the blocks found
        them in.
        """
        require_scipy()
        records = list(store)
        if len(records) < 2:
            return PairSet()
        plan = self._plan(records, cross_sources)
        return ranked_pair_set(
            [record.record_id for record in records],
            self._pair_blocks(self._incidence_matrix(store), plan),
        )

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
