"""The join kernel: blocked sparse products over a token-incidence matrix.

The machine pass is the workload the hybrid trade-off hangs on (Table 2,
Figure 10), and the all-pairs scan in :mod:`repro.simjoin.allpairs` pays a
Python-interpreter price per pair.  The kernel instead takes a scipy CSR
token-incidence matrix ``X`` (records x vocabulary, binary, constructed
columnarly — see :mod:`repro.simjoin.columnar`) and computes pairwise
intersection counts through blocked sparse products ``X[block] @ X.T``.
Set sizes come from the CSR row pointers, so the Jaccard similarities
are derived entirely in numpy with no per-pair Python loop.

**One kernel, three callers.**  :func:`score_product` is the only code
that turns a sparse product block into thresholded similarities, and
:meth:`BlockScorer.score` is the product and that in one call.  The batch
self-join multiplies each block of ``left`` by its band — the rows of
``left`` from the block's first row on — under the upper-triangle mask,
record linkage is ``left x right``, and the streaming engine
(:class:`repro.streaming.incremental_join.IncrementalSimJoin`) scores its
freshly appended rows against the band of every earlier row of the
resident matrix.  :class:`BlockScorer` holds one join's operands and
scores one row block at a time; :func:`repro.simjoin.parallel.join_blocks`
walks its blocks inline or hands the same blocks to worker threads, and
:class:`repro.simjoin.parallel.VectorizedSimJoin` is the store-level join
built on that.

The result is exact: intersection and union counts are small integers, the
final float64 division is bit-identical to the pure-Python ``len(a & b) /
len(a | b)``, so the kernel returns byte-identical pair sets to the naive
scan at any threshold (the property tests assert this).  Every similarity
value is an elementwise float64 expression of one pair's intersection count
and set sizes, so block boundaries cannot change it.  A band only leaves
out the entries the triangle mask drops, and the integer overlap bound the
kernel applies to the raw product (:func:`min_overlap`) only discards
pairs that the exact test would discard anyway: both change the cost and
not the result.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

try:  # scipy ships with the toolchain, but keep the import gated so the
    from scipy import sparse  # naive oracle works without it.
except ImportError:  # pragma: no cover - scipy is part of the image
    sparse = None

from repro import obs

HAVE_SCIPY = sparse is not None

#: Left rows multiplied per block, wherever a caller does not force another
#: count.  A block's product must stay small enough that the allocator
#: recycles its buffers instead of mapping and unmapping them: glibc serves
#: nothing above 32 MB from a heap it keeps, and at 50k rows the product
#: arrays of a 1,024-row block are ~100 MB each (of a 256-row block, 25 MB).
#: That ``mmap``/``munmap``/page-fault traffic cost the serial join ~25%
#: there and put worker threads, which share one address space, behind the
#: process pool they replaced (``docs/benchmarks.md``, "Threads, not
#: processes").
DEFAULT_BLOCK_ROWS = 256

# (row indices, col indices, similarity values) for one block.
_BlockPairs = Tuple[np.ndarray, np.ndarray, np.ndarray]


def require_scipy() -> None:
    """Raise the one error every CSR engine (batch or streaming) shares."""
    if sparse is None:  # pragma: no cover - scipy is part of the image
        raise RuntimeError(
            "the join kernel requires scipy (only join_backend='naive', "
            "the all-pairs oracle, runs without it)"
        )


def similarity(inter: np.ndarray, sizes_a: np.ndarray, sizes_b: np.ndarray) -> np.ndarray:
    """Jaccard values from intersection counts and set sizes.

    Two empty token sets are defined as similarity 1.0 (textually
    identical records), matching the pure-Python set similarities.  The
    counts stay integers up to the one float64 division, which is exact for
    them and keeps the temporaries of a large block few.
    """
    denominator = sizes_a + sizes_b - inter
    # 1.0 where both sets are empty, 0.0 elsewhere; every pair with a
    # positive denominator is then overwritten by its quotient.
    values = ((sizes_a == 0) & (sizes_b == 0)).astype(np.float64)
    np.divide(inter, denominator, out=values, where=denominator > 0)
    return values


# Relative slack taken off the overlap bound before it is rounded up: far
# above the float64 rounding of the bound and of similarity()'s own division
# (a few 1e-16), far below the 1/size gap between the bounds of neighbouring
# integer overlaps.
_BOUND_SLACK = 1e-9


def min_overlap(threshold: float, sizes: np.ndarray) -> np.ndarray:
    """Per-row lower bound on the intersection of any pair reaching ``threshold``.

    ``|A u B| >= |A|``, so a Jaccard similarity ``i / |A u B| >= t`` implies
    ``i >= t|A|`` for the intersection ``i`` of a row ``A`` and any partner
    ``B``.  The bound is a necessary condition only: it is computed in
    floating point, shrunk by :data:`_BOUND_SLACK` and then rounded up, so a
    pair whose exact float64 similarity meets the threshold is never below
    it — a naive ``ceil(t * |A|)`` can be (``0.28 * 25 == 7.000000000000001``,
    while a 7-token subset of a 25-token set scores ``7 / 25 == 0.28``).
    """
    return np.ceil(threshold * sizes * (1.0 - _BOUND_SLACK))


def score_product(
    block: "sparse.csr_matrix",
    left_sizes: np.ndarray,
    right_sizes: np.ndarray,
    start: int,
    threshold: float,
    triangle: int = 0,
    alive: Optional[np.ndarray] = None,
    col_offset: int = 0,
) -> _BlockPairs:
    """The pairs of one sparse product block at or above ``threshold``.

    ``block`` holds the intersection counts of left rows ``[start, start +
    block.shape[0])`` against right rows ``[col_offset, col_offset +
    block.shape[1])``.  Returns ``(rows, cols, values)`` — row positions in
    the left matrix, column positions in the whole right matrix and their
    similarity.  ``triangle`` restricts a product of a matrix with itself
    to one side of the diagonal: ``+1`` keeps ``col > row`` (each unordered
    pair of a self-join once), ``-1`` keeps ``col < row`` (appended rows
    against everything before them), ``0`` keeps all.  ``alive`` is a
    boolean mask over the right rows; pairs against a dead column are
    dropped whatever they score (at threshold zero a dead row would
    otherwise pass with similarity 0.0).

    A positive threshold reads the pairs off the sparse product, which only
    holds pairs sharing a token.  Nearly all of those share too few: the
    product's integer counts are first compared, in place, with the left
    row's :func:`min_overlap`, and only the survivors are expanded to
    coordinates, masked and put through the exact :func:`similarity` test —
    the cost follows the pairs kept, not the pairs sharing a token.  At
    threshold zero every pair must be materialised, so the block is
    densified.
    """
    if threshold > 0.0:
        end = start + block.shape[0]
        needed = min_overlap(threshold, left_sizes[start:end])
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
    rows += start
    cols += col_offset
    keep = None
    if triangle:
        keep = cols > rows if triangle > 0 else cols < rows
    if alive is not None:
        keep = alive[cols] if keep is None else keep & alive[cols]
    if keep is not None:
        rows, cols, inter = rows[keep], cols[keep], inter[keep]
    values = similarity(inter, left_sizes[rows], right_sizes[cols])
    passing = values >= threshold
    return rows[passing], cols[passing], values[passing]


class BlockScorer:
    """One join's operands, scored block by block through :func:`score_product`.

    ``left`` rows are scored against ``right`` rows (``None`` = against
    ``left`` itself).  Building the scorer derives the set sizes, and the
    transposed right matrix of a product without a triangle, once; after
    that it is only read, so any number of threads may call :meth:`score`
    on one scorer at once.  ``kind`` labels the per-block trace spans and
    the ``simjoin_product_entries_total`` counter.

    A product of ``left`` with itself under a triangle mask is *banded*:
    block ``[s, e)`` is multiplied only by the rows on its side of the
    diagonal — ``left[s:]`` for ``triangle=+1`` (the batch self-join),
    ``left[:e]`` for ``-1`` (streaming appends) — transposed for that block
    alone.  The entries of the other side are the ones the mask would drop
    whatever they score, so the band changes the cost and not one pair:
    rows, cols and values come out as the whole product's, in its order
    (the sparse product lists a row's columns in an order the band's
    missing columns cannot change).  A band that is the whole matrix — the
    first self-join block, the last block of an append, so every
    single-block append — multiplies by the matrix itself, uncopied.
    """

    def __init__(
        self,
        left: "sparse.csr_matrix",
        right: Optional["sparse.csr_matrix"] = None,
        *,
        threshold: float,
        block_size: int = DEFAULT_BLOCK_ROWS,
        triangle: int = 0,
        alive: Optional[np.ndarray] = None,
        kind: str = "",
    ) -> None:
        self.left = left
        # None: banded, transposed block by block in _band().
        self.right_t = (
            None
            if right is None and triangle
            else (left if right is None else right).T.tocsr()
        )
        self.left_sizes = np.diff(left.indptr).astype(np.int64)
        self.right_sizes = (
            self.left_sizes
            if right is None
            else np.diff(right.indptr).astype(np.int64)
        )
        self.threshold = threshold
        self.block_size = block_size
        self.triangle = triangle
        self.alive = alive
        self.kind = kind

    def block_starts(self, start: int) -> range:
        """First row of every block covering left rows ``[start, n)``."""
        return range(start, self.left.shape[0], self.block_size)

    def _band(self, block_start: int, block_end: int) -> Tuple[int, "sparse.csr_matrix"]:
        """``(first, right_t)``: the transposed right rows that left rows
        ``[block_start, block_end)`` are multiplied by, and the first of them."""
        if self.right_t is not None:
            return 0, self.right_t
        count = self.left.shape[0]
        first, stop = (block_start, count) if self.triangle > 0 else (0, block_end)
        rows = self.left if (first, stop) == (0, count) else self.left[first:stop]
        return first, rows.T.tocsr()

    def score(self, block_start: int) -> _BlockPairs:
        """The pair block of left rows ``[block_start, block_start + block_size)``."""
        block_end = min(block_start + self.block_size, self.left.shape[0])
        with obs.span(
            "simjoin.vectorized.block",
            kind=self.kind, rows=block_end - block_start,
        ):
            col_offset, right_t = self._band(block_start, block_end)
            product = self.left[block_start:block_end] @ right_t
            if obs.enabled():
                obs.inc("simjoin_product_entries_total", product.nnz, kind=self.kind,
                        help="Entries of the join's sparse products: pairs "
                        "sharing a token, before the overlap bound.")
            return score_product(
                product, self.left_sizes, self.right_sizes, block_start,
                self.threshold, self.triangle, self.alive, col_offset,
            )
