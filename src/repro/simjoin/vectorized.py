"""The join kernel: blocked dense-output products over a token-incidence matrix.

The machine pass is the workload the hybrid trade-off hangs on (Table 2,
Figure 10), and the all-pairs scan in :mod:`repro.simjoin.allpairs` pays a
Python-interpreter price per pair.  The kernel instead takes a scipy CSR
token-incidence matrix ``X`` (records x vocabulary, binary, constructed
columnarly — see :mod:`repro.simjoin.columnar`) and computes pairwise
intersection counts block by block.  Set sizes come from the CSR row
pointers, so the Jaccard similarities are derived entirely in numpy with
no per-pair Python loop.

**A dense block.**  On the data the join runs on, half or more of the
cells of a block share a token, so the block's intersection counts are
kept densely.  Row block ``[s, e)`` of ``X`` becomes a dense incidence
matrix over the block's own tokens only (:func:`block_incidence`), in the
smallest unsigned integer type that holds the block's largest row size —
no intersection count can exceed it.  The *band* the block is scored
against — rows ``[0, e)``, the ones on its side of the diagonal — is a
prefix of the CSR arrays; its column ids are remapped onto the block's
tokens with one lookup array, and one CSR-times-dense product (scipy's
single-pass ``csr_matvecs``) yields the ``(band rows x block rows)``
counts.  Nothing is transposed, and no sparse
product is sized, built and expanded.

**One kernel, one caller.**  :func:`score_product` is the only code that
turns a block of intersection counts into thresholded similarities, and
:meth:`BlockScorer.score` is the product and that in one call.  The one
join (:class:`repro.streaming.incremental_join.IncrementalSimJoin`) scores
its freshly appended rows against the band of every earlier row of the
resident matrix under the lower-triangle mask; the batch machine pass is
the append of the whole store to an empty join, and record linkage is the
same self-product with the pairs of one source masked out afterwards.
:class:`BlockScorer` holds one join's operands and scores one row block at
a time; :func:`repro.simjoin.parallel.join_blocks` walks its blocks inline
or hands the same blocks to worker threads.  Every product is of one
matrix with itself under the lower-triangle mask ``col < row``.

The result is exact: intersection and union counts are small integers, the
final float64 division is bit-identical to the pure-Python ``len(a & b) /
len(a | b)``, so the kernel returns byte-identical pair sets to the naive
scan at any threshold (the property tests assert this).  Every similarity
value is an elementwise float64 expression of one pair's intersection count
and set sizes, so block boundaries cannot change it.  A band only leaves
out the rows the triangle mask drops, and the integer overlap bound the
kernel applies to the counts (:func:`min_overlap`) only discards pairs
that the exact test would discard anyway: both change the cost and not
the result.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro import obs

#: Rows scored per block, wherever a caller does not force another
#: count.  A block's counts are dense, band rows x block rows, at one byte
#: a cell while no row of the block holds 256 tokens: ~8 MB for a 256-row
#: block at 32k resident rows, and under glibc's 32 MB ``mmap`` ceiling up
#: to ~131k.  Below that ceiling the allocator recycles a block's buffers
#: from a heap it keeps instead of mapping and unmapping them, and that
#: ``mmap``/``munmap``/page-fault traffic is what cost the serial join
#: ~25% at 1,024-row blocks and put worker threads, which share one
#: address space, behind the process pool they replaced
#: (``docs/benchmarks.md``, "Threads, not processes").
DEFAULT_BLOCK_ROWS = 256

# (row indices, col indices, similarity values) for one block.
_BlockPairs = Tuple[np.ndarray, np.ndarray, np.ndarray]


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


def block_incidence(
    matrix: "sparse.csr_matrix", sizes: np.ndarray, start: int, end: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows ``[start, end)`` of ``matrix`` as a dense ``(tokens + 1) x rows``
    incidence matrix over the tokens those rows hold.

    Returns ``(tokens, dense)``: the block's distinct token ids, ascending,
    and ``dense[k, r] == 1`` where row ``start + r`` holds ``tokens[k]``.
    The last row of ``dense`` is all zeros, the target of every token
    outside the block.  The dtype is the smallest unsigned integer type
    that holds the largest row size of the block, the most any
    intersection count with one of its rows can reach.
    """
    lo, hi = matrix.indptr[start], matrix.indptr[end]
    tokens, token_rows = np.unique(matrix.indices[lo:hi], return_inverse=True)
    block_sizes = sizes[start:end]
    dense = np.zeros(
        (len(tokens) + 1, end - start),
        dtype=np.min_scalar_type(block_sizes.max(initial=0)),
    )
    dense[token_rows, np.repeat(np.arange(end - start), block_sizes)] = 1
    return tokens, dense


def score_product(
    block: np.ndarray,
    sizes: np.ndarray,
    start: int,
    threshold: float,
    alive: Optional[np.ndarray] = None,
) -> _BlockPairs:
    """The pairs of one dense block of intersection counts at or above ``threshold``.

    ``block[j, i]`` is the intersection count of row ``j`` (of the
    ``block.shape[0]`` first) with row ``start + i`` (of the
    ``block.shape[1]`` from ``start``) of one matrix whose rows hold
    ``sizes`` tokens.  Returns ``(rows, cols, values)`` — the row, the
    column below it and their similarity.  Only pairs below the diagonal,
    ``col < row``, are kept: appended rows against everything before them,
    so each unordered pair once.  ``alive`` is a boolean mask over the
    rows; pairs against a dead row are dropped whatever they score (at
    threshold zero a dead row would otherwise pass with similarity 0.0).

    Nearly all cells share too few tokens to reach a positive threshold:
    each count is first compared with its row's :func:`min_overlap`
    — at least 1, so pairs sharing no token are never reported (the join
    pairs up empty records itself) — and only the survivors are expanded
    to coordinates and put through the exact :func:`similarity` test, so
    the cost after the comparison follows the pairs kept.  At threshold
    zero the bound is zero and every cell survives.
    """
    band_rows, block_rows = block.shape
    needed = min_overlap(threshold, sizes[start : start + block_rows])
    if threshold > 0.0:
        np.maximum(needed, 1, out=needed)
    keep = block >= needed.astype(block.dtype)
    # Only band rows from ``start`` on reach the block's own rows.
    keep[start:] &= (
        np.arange(start, band_rows)[:, None]
        < np.arange(start, start + block_rows)[None, :]
    )
    if alive is not None:
        keep &= alive[:band_rows, None]
    cells = np.flatnonzero(keep)
    cols, rows = np.divmod(cells, block_rows)
    rows += start
    inter = block.ravel()[cells]
    values = similarity(inter, sizes[rows], sizes[cols])
    passing = values >= threshold
    return rows[passing], cols[passing], values[passing]


class BlockScorer:
    """One join's matrix, scored block by block through :func:`score_product`.

    The rows of ``matrix`` are scored against the rows before them.
    Building the scorer derives the set sizes once; after that it is only
    read, so any number of threads may call :meth:`score` on one scorer at
    once.  ``kind`` labels the per-block trace spans and the
    ``simjoin_block_cells_total`` counter.

    Block ``[s, e)`` is scored against a *band*: the rows ``matrix[:e]``,
    the ones on its side of the diagonal.  The rows after them are the ones
    the triangle mask would drop whatever they score, so the band changes
    the cost and not one pair.  A band is a prefix of the CSR arrays, used
    in place.
    """

    def __init__(
        self,
        matrix: "sparse.csr_matrix",
        *,
        threshold: float,
        block_size: int = DEFAULT_BLOCK_ROWS,
        alive: Optional[np.ndarray] = None,
        kind: str = "",
    ) -> None:
        self.matrix = matrix
        self.sizes = np.diff(matrix.indptr).astype(np.int64)
        self.threshold = threshold
        self.block_size = block_size
        self.alive = alive
        self.kind = kind

    def block_starts(self, start: int) -> range:
        """First row of every block covering rows ``[start, n)``."""
        return range(start, self.matrix.shape[0], self.block_size)

    def score(self, block_start: int) -> _BlockPairs:
        """The pair block of rows ``[block_start, block_start + block_size)``."""
        matrix = self.matrix
        block_end = min(block_start + self.block_size, matrix.shape[0])
        with obs.span(
            "simjoin.vectorized.block",
            kind=self.kind, rows=block_end - block_start,
        ):
            tokens, dense = block_incidence(matrix, self.sizes, block_start, block_end)
            # The band's token ids onto the rows of ``dense``: a token the
            # block does not hold lands on its last row, all zeros.
            position = np.full(matrix.shape[1], len(tokens), dtype=matrix.indices.dtype)
            position[tokens] = np.arange(len(tokens))
            entries = matrix.indptr[block_end]
            band = sparse.csr_matrix(
                (
                    np.ones(entries, dtype=dense.dtype),
                    position[matrix.indices[:entries]],
                    matrix.indptr[: block_end + 1],
                ),
                shape=(block_end, dense.shape[0]),
            )
            product = band @ dense
            if obs.enabled():
                obs.inc("simjoin_block_cells_total", product.size, kind=self.kind,
                        help="Cells of the join's dense blocks: band rows x "
                        "block rows, before the overlap bound.")
            return score_product(
                product, self.sizes, block_start, self.threshold, self.alive
            )
