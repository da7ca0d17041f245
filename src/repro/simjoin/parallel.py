"""Worker threads over the join's row blocks, and the canonical pair order.

:mod:`repro.simjoin.vectorized` holds the kernel — one blocked
dense-output product, exact.  :func:`join_blocks` runs that kernel over
a row range and :func:`ranked_pair_set` turns its blocks into a ranked
pair set; the one join,
:class:`repro.streaming.incremental_join.IncrementalSimJoin`, calls both
for every append, the batch machine pass being one append of the whole
store.

There is one scorer and one sequence of row blocks per call.  With one
worker, or a single block, the blocks are scored inline; otherwise the
*same* blocks go through ``ThreadPoolExecutor.map`` — scipy's product
and numpy's filters release the GIL, so threads scale like processes
did (``docs/benchmarks.md``, "Threads, not processes") while sharing
the operands by reference: nothing is copied, published or serialised,
and the executor lives for the one call, so there is nothing to reuse,
register or shut down.

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
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro import obs
from repro.records.pairs import PairSet, RecordPair
from repro.simjoin.vectorized import BlockScorer, _BlockPairs


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
    matrix: "sparse.csr_matrix",
    *,
    workers: int = 1,
    start: int = 0,
    **params,
) -> Iterator[_BlockPairs]:
    """Score ``matrix`` rows ``[start, n)`` against the rows before them.

    ``params`` are the :class:`~repro.simjoin.vectorized.BlockScorer`
    keywords.  One scorer, one sequence of row blocks: a single worker or a
    single block scores them inline, otherwise up to ``workers`` threads
    score the same blocks and the results come back in block order, so the
    output is the inline output for any worker count.  A block that raises
    cancels the blocks not yet started and its exception propagates; the
    threads are joined before this returns either way.
    """
    scorer = BlockScorer(matrix, **params)
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
