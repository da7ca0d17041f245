"""Vectorized similarity join over a sparse token-incidence matrix.

The machine pass is the workload the hybrid trade-off hangs on (Table 2,
Figure 10), and the pure-Python joins in :mod:`repro.simjoin.allpairs` and
:mod:`repro.simjoin.prefix_filter` pay a Python-interpreter price per pair.
The engines here instead build a scipy CSR token-incidence matrix ``X``
(records x vocabulary, binary, constructed columnarly — see
:mod:`repro.simjoin.columnar`) and compute pairwise intersection counts
through blocked sparse products ``X[block] @ X.T``.  Set sizes come from the
CSR row pointers, so Jaccard, Dice and cosine similarities are derived
entirely in numpy with no per-pair Python loop.

**One kernel, three callers.**  :func:`score_block` is the only code that
turns a sparse product block into thresholded similarities.  The batch
self-join is ``left x left`` under the upper-triangle mask, record linkage
is ``left x right``, and the streaming engine
(:class:`repro.streaming.incremental_join.IncrementalSimJoin`) scores its
freshly appended rows against every earlier row of the resident matrix.
:class:`BlockScorer` holds one join's operands and walks a row range block
by block; the serial engines run it inline over all rows and
:mod:`repro.simjoin.parallel` runs the same object over disjoint row shards
in worker processes.

The result is exact: intersection and union counts are small integers, the
final float64 division is bit-identical to the pure-Python ``len(a & b) /
len(a | b)``, so the vectorized join returns byte-identical pair sets to
the naive scan at any threshold (the property tests assert this).  Every
similarity value is an elementwise float64 expression of one pair's
intersection count and set sizes, so neither block boundaries nor shard
boundaries can change it.  The integer overlap bound the kernel applies to
the raw product (:func:`min_overlap`) only discards pairs that this exact
test would discard anyway, so it changes the cost and not the result.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

try:  # scipy ships with the toolchain, but keep the import gated so the
    from scipy import sparse  # naive/prefix backends work without it.
except ImportError:  # pragma: no cover - scipy is part of the image
    sparse = None

from repro import obs
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record, RecordStore
from repro.records.tokenize import WhitespaceTokenizer, record_token_set
from repro.simjoin.columnar import columnar_csr_arrays

HAVE_SCIPY = sparse is not None

MEASURES = ("jaccard", "dice", "cosine")

# (row indices, col indices, similarity values) for one block.
_BlockPairs = Tuple[np.ndarray, np.ndarray, np.ndarray]

# A join plan: ("self", keep, None) or ("bipartite", left, right), where the
# arrays hold global row indices into the incidence matrix.
JoinPlan = Tuple[str, np.ndarray, Optional[np.ndarray]]


def require_scipy() -> None:
    """Raise the one error every CSR engine (batch or streaming) shares."""
    if sparse is None:  # pragma: no cover - scipy is part of the image
        raise RuntimeError(
            "the vectorized join backend requires scipy; "
            "use the 'naive' or 'prefix' backend instead"
        )


def similarity(
    measure: str, inter: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray
) -> np.ndarray:
    """Similarity values from intersection counts and set sizes.

    Two empty token sets are defined as similarity 1.0 (textually
    identical records), matching the pure-Python set similarities.  The
    counts stay integers up to the one float64 division, which is exact for
    them and keeps the temporaries of a large block few.
    """
    if measure == "jaccard":
        denominator = sizes_a + sizes_b - inter
    elif measure == "dice":
        inter = 2 * inter
        denominator = sizes_a + sizes_b
    else:  # cosine
        denominator = np.sqrt(sizes_a * sizes_b)
    # 1.0 where both sets are empty, 0.0 elsewhere; every pair with a
    # positive denominator is then overwritten by its quotient.
    values = ((sizes_a == 0) & (sizes_b == 0)).astype(np.float64)
    np.divide(inter, denominator, out=values, where=denominator > 0)
    return values


# Relative slack taken off the overlap bound before it is rounded up: far
# above the float64 rounding of the bound and of similarity()'s own division
# and square root (a few 1e-16), far below the 1/size gap between the bounds
# of neighbouring integer overlaps.
_BOUND_SLACK = 1e-9


def min_overlap(measure: str, threshold: float, sizes: np.ndarray) -> np.ndarray:
    """Per-row lower bound on the intersection of any pair reaching ``threshold``.

    A partner set ``B`` of a row ``A`` holds at least their intersection
    ``i``, so ``similarity >= t`` implies ``i >= t|A|`` (Jaccard, from
    ``|A u B| >= |A|``), ``i >= t|A| / (2 - t)`` (Dice, from ``|A| + |B| >=
    |A| + i``) and ``i >= t^2 |A|`` (cosine, from ``|A||B| >= |A| i``).  The
    bound is a necessary condition only: it is computed in floating point,
    shrunk by :data:`_BOUND_SLACK` and then rounded up, so a pair whose exact
    float64 similarity meets the threshold is never below it — a naive
    ``ceil(t * |A|)`` can be (``0.28 * 25 == 7.000000000000001``, while a
    7-token subset of a 25-token set scores ``7 / 25 == 0.28``).
    """
    if measure == "jaccard":
        bound = threshold * sizes
    elif measure == "dice":
        bound = threshold * sizes / (2.0 - threshold)
    else:  # cosine
        bound = threshold * threshold * sizes
    return np.ceil(bound * (1.0 - _BOUND_SLACK))


def score_block(
    left: "sparse.csr_matrix",
    right_t: "sparse.csr_matrix",
    left_sizes: np.ndarray,
    right_sizes: np.ndarray,
    start: int,
    end: int,
    threshold: float,
    measure: str = "jaccard",
    triangle: int = 0,
    alive: Optional[np.ndarray] = None,
) -> _BlockPairs:
    """The join kernel: rows ``[start, end)`` of ``left`` against ``right_t``.

    Returns ``(rows, cols, values)`` — row positions in ``left``, column
    positions in the (transposed) right matrix and their similarity — for
    every pair at or above ``threshold``.  ``triangle`` restricts a product
    of a matrix with itself to one side of the diagonal: ``+1`` keeps
    ``col > row`` (each unordered pair of a self-join once), ``-1`` keeps
    ``col < row`` (appended rows against everything before them), ``0``
    keeps all.  ``alive`` is a boolean mask over the right rows; pairs
    against a dead column are dropped whatever they score (at threshold
    zero a dead row would otherwise pass with similarity 0.0).

    A positive threshold reads the pairs off the sparse product, which only
    holds pairs sharing a token.  Nearly all of those share too few: the
    product's integer counts are first compared, in place, with the left
    row's :func:`min_overlap`, and only the survivors are expanded to
    coordinates, masked and put through the exact :func:`similarity` test —
    the cost follows the pairs kept, not the pairs sharing a token.  At
    threshold zero every pair must be materialised, so the block is
    densified.
    """
    block = left[start:end] @ right_t
    if threshold > 0.0:
        needed = min_overlap(measure, threshold, left_sizes[start:end])
        survivors = np.flatnonzero(
            block.data
            >= np.repeat(needed.astype(block.data.dtype), np.diff(block.indptr))
        )
        # Entry p of the CSR arrays belongs to the row r with
        # indptr[r] <= p < indptr[r + 1].
        rows = np.searchsorted(block.indptr, survivors, side="right") - 1
        cols = block.indices[survivors].astype(np.int64)
        inter = block.data[survivors]
    else:
        inter = np.asarray(block.todense()).ravel()
        rows, cols = np.divmod(np.arange(inter.size), block.shape[1])
    del block  # the arrays above are all that is needed of it
    rows += start
    keep = None
    if triangle:
        keep = cols > rows if triangle > 0 else cols < rows
    if alive is not None:
        keep = alive[cols] if keep is None else keep & alive[cols]
    if keep is not None:
        rows, cols, inter = rows[keep], cols[keep], inter[keep]
    values = similarity(measure, inter, left_sizes[rows], right_sizes[cols])
    passing = values >= threshold
    return rows[passing], cols[passing], values[passing]


class BlockScorer:
    """One join's operands, scored block by block through :func:`score_block`.

    ``left`` rows are scored against ``right`` rows (``None`` = against
    ``left`` itself).  Building the scorer derives the transposed right
    matrix and the set sizes once; :meth:`blocks` then walks any row range.
    The serial engines walk all rows inline, a pool worker walks one shard
    of them — same object, same arithmetic.  ``kind`` only labels the
    per-block trace spans.
    """

    def __init__(
        self,
        left: "sparse.csr_matrix",
        right: Optional["sparse.csr_matrix"] = None,
        *,
        threshold: float,
        measure: str = "jaccard",
        block_size: int = 1024,
        triangle: int = 0,
        alive: Optional[np.ndarray] = None,
        kind: str = "",
    ) -> None:
        self.left = left
        self.right_t = (left if right is None else right).T.tocsr()
        self.left_sizes = np.diff(left.indptr).astype(np.int64)
        self.right_sizes = (
            self.left_sizes
            if right is None
            else np.diff(right.indptr).astype(np.int64)
        )
        self.threshold = threshold
        self.measure = measure
        self.block_size = block_size
        self.triangle = triangle
        self.alive = alive
        self.kind = kind

    def blocks(self, start: int, stop: int) -> Iterator[_BlockPairs]:
        """Pair blocks for left rows ``[start, stop)``."""
        for block_start in range(start, stop, self.block_size):
            block_end = min(block_start + self.block_size, stop)
            # The span covers only this block's matmul + filtering, not the
            # consumer of the yielded pairs.
            with obs.span(
                "simjoin.vectorized.block",
                kind=self.kind, rows=block_end - block_start,
            ):
                block = score_block(
                    self.left, self.right_t, self.left_sizes, self.right_sizes,
                    block_start, block_end, self.threshold, self.measure,
                    self.triangle, self.alive,
                )
            yield block


class VectorizedSimJoin:
    """Exact set-similarity self/cross join via blocked sparse matmul.

    Parameters
    ----------
    threshold:
        Minimum similarity; pairs strictly below it are not materialised.
        Unlike the prefix filter, ``0.0`` is allowed (every pair is scored,
        matching the naive all-pairs scan).
    attributes:
        Attributes pooled into each record's token set (``None`` = all).
    measure:
        ``"jaccard"`` (the paper's simjoin), ``"dice"`` or ``"cosine"``
        (binary cosine ``|A n B| / sqrt(|A| |B|)``).
    block_size:
        Number of matrix rows multiplied per block; bounds peak memory at
        roughly ``block_size * n`` floats for zero-threshold joins.
    """

    def __init__(
        self,
        threshold: float = 0.0,
        attributes: Optional[Sequence[str]] = None,
        measure: str = "jaccard",
        block_size: int = 1024,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.threshold = threshold
        self.attributes = list(attributes) if attributes is not None else None
        self.measure = measure
        self.block_size = block_size
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
            blocks = self._blocks(
                matrix[left],
                None if self_join else matrix[right],
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

    def _blocks(
        self,
        left: "sparse.csr_matrix",
        right: Optional["sparse.csr_matrix"],
        **params: object,
    ) -> Iterator[_BlockPairs]:
        """Score every left row: serially here, sharded in the parallel engine."""
        return BlockScorer(left, right, **params).blocks(0, left.shape[0])

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


def vectorized_similarity_join(
    store: RecordStore,
    threshold: float = 0.0,
    attributes: Optional[Sequence[str]] = None,
    cross_sources: Optional[Tuple[str, str]] = None,
    measure: str = "jaccard",
) -> PairSet:
    """Functional convenience wrapper around :class:`VectorizedSimJoin`."""
    join = VectorizedSimJoin(threshold=threshold, attributes=attributes, measure=measure)
    return join.join(store, cross_sources=cross_sources)
