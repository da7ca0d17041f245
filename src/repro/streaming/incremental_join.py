"""The similarity join: an incremental one over a resident token/CSR index.

:class:`IncrementalSimJoin` keeps the token-incidence CSR arrays of every
record seen so far and, when a batch of new records arrives, appends the
batch's rows and scores **only those rows** against every earlier row of
the resident matrix — old records and the batch's own earlier records
alike — in one call of the join kernel
(:class:`repro.simjoin.vectorized.BlockScorer`), on worker threads when the
batch spans more than one row block and ``workers`` allows.  It is the only
join: the batch machine pass (``SimJoinLikelihood(backend="auto")``) is one
append of the whole store to an empty one.

Index construction is *columnar* (:mod:`repro.simjoin.columnar`): each
batch's CSR rows are built in one pass over the flattened token arrays,
with one dict lookup per distinct batch token instead of one per token
occurrence — so small-batch appends are not dominated by a Python indexing
loop.

Because set similarity is a function of the two records alone, pairs among
*old* records are untouched by new arrivals, and the union of the per-batch
deltas is **exactly** the one-append join of the whole store at the same
threshold — the equivalence the streaming property tests assert, bit for
bit, since every likelihood comes out of the same kernel.

Record linkage (``cross_sources``) scores the same self-product and then
keeps the pairs with one record from each source: a row-aligned array of
source sides turns that into one numpy mask per row block.

The index is in-memory state derived from the records alone: no store
holds it.  A restored session re-indexes the records it pages in
(:meth:`IncrementalSimJoin.index`); row and column numbers may differ from
the original process's, but similarities depend only on the token sets and
deltas are ordered by record id, so every later delta is the same.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro import obs
from repro.records.pairs import PairSet
from repro.records.record import Record, RecordError
from repro.records.tokenize import WhitespaceTokenizer, record_token_set
from repro.simjoin.columnar import compact_csr_arrays, extend_vocabulary_csr_arrays
from repro.simjoin.parallel import join_blocks, ranked_pair_set, resolve_worker_count
from repro.simjoin.vectorized import DEFAULT_BLOCK_ROWS, _BlockPairs


class IncrementalSimJoin:
    """Maintain a similarity self/cross join under appended record batches.

    Parameters
    ----------
    threshold:
        Minimum Jaccard similarity for a pair to become a candidate.
    attributes:
        Attributes pooled into each record's token set (``None`` = all).
    cross_sources:
        When set, only pairs with one record from each source are produced
        (record linkage); a degenerate ``(a, a)`` keeps the pairs of two
        ``a`` records.  A record of neither source pairs with nothing.
    block_size:
        Rows per block of the kernel's product over the appended rows.
    workers:
        Threads the product's row blocks are scored on.  ``None``/``0`` =
        one per CPU core; a batch of a single row block is scored inline,
        so small appends start no thread.  Any value yields bit-identical
        deltas.

    Records are appended in batches and can be *retracted* individually
    (:meth:`retract`): retracting must not pay an O(nnz) rebuild of the
    accumulated arrays, so a retracted record's CSR row stays resident as a
    *tombstone* that the kernel masks out of every later product (at any
    threshold, zero included), and the row is physically dropped once
    enough tombstones accumulate (:meth:`compact`).  A
    retracted id may be re-added by a later batch, which is how record
    *update* is implemented one level up
    (:meth:`repro.streaming.StreamingResolver.update`).
    """

    #: Auto-compaction floor: never compact for fewer tombstones than this.
    COMPACT_MIN_TOMBSTONES = 64
    #: Auto-compaction trigger: compact when dead rows exceed this fraction.
    COMPACT_DEAD_FRACTION = 0.25

    def __init__(
        self,
        threshold: float,
        attributes: Optional[Sequence[str]] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
        block_size: int = DEFAULT_BLOCK_ROWS,
        workers: Optional[int] = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative (0/None = auto)")
        self.threshold = threshold
        self.attributes = list(attributes) if attributes is not None else None
        self.cross_sources = cross_sources
        self.block_size = block_size
        self.workers = workers
        self._tokenizer = WhitespaceTokenizer()
        # Index over all resident records.  ``_record_ids`` and ``_sides``
        # are row-aligned with the CSR arrays and may contain tombstoned
        # rows (``_dead_rows``); ``_row_of`` maps each *alive* id to its row,
        # so its keys are the resident id set.  ``_sides`` holds a row's
        # position in ``cross_sources`` (0 or 1; -1 = neither, and every
        # row without ``cross_sources``).  Token sets are not kept: the CSR
        # rows are the index, and nothing reads a set after its batch.
        self._record_ids: List[str] = []
        self._row_of: Dict[str, int] = {}
        self._dead_rows: Set[int] = set()
        self._side_of: Dict[Optional[str], int] = (
            {} if cross_sources is None
            else {cross_sources[1]: 1, cross_sources[0]: 0}
        )
        self._sides = np.empty(0, dtype=np.int8)
        self._empty_ids: List[str] = []
        # Flat CSR arrays (rows = records in arrival order), one chunk per
        # batch (:meth:`_matrix`).
        self._vocab: Dict[str, int] = {}
        self._index_chunks: List[np.ndarray] = []
        self._indptr: List[int] = [0]

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        """Number of *alive* (non-retracted) resident records."""
        return len(self._row_of)

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._row_of

    @property
    def record_ids(self) -> List[str]:
        """Alive resident record ids in arrival order."""
        return [
            record_id
            for row, record_id in enumerate(self._record_ids)
            if row not in self._dead_rows
        ]

    @property
    def tombstone_count(self) -> int:
        """Number of retracted rows still resident as tombstones."""
        return len(self._dead_rows)

    def _flat_indices(self) -> np.ndarray:
        """The CSR ``indices`` of all resident rows (per-batch chunks joined)."""
        if self._index_chunks:
            return np.concatenate(self._index_chunks)
        return np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ api
    def add_batch(self, records: Sequence[Record]) -> PairSet:
        """Index a batch of new records and return the *delta* pair set.

        The delta contains every pair at or above the threshold with at
        least one record from the batch (new-vs-old and new-vs-new); pairs
        among previously resident records are unaffected by arrivals, so
        the union of all deltas equals the full-store join — which is how
        the batch machine pass computes it, as one batch into an empty join.
        """
        batch = list(records)
        first_new = len(self._record_ids)
        self.index(batch)
        if not batch or len(self._record_ids) < 2:
            return PairSet()
        with obs.span("streaming.join.score", batch=len(batch), resident=first_new):
            # Canonical order, so downstream tie-breaking is independent
            # of discovery order.
            return ranked_pair_set(self._record_ids, self._delta_blocks(first_new))

    def index(self, records: Sequence[Record]) -> None:
        """Append new records to the index without scoring them.

        Checks that every id is fresh, then one columnar pass builds the
        records' CSR rows and extends the vocabulary; the rows are appended
        wholesale, and only the bookkeeping that is inherently per record
        (source sides, empty ids) loops in Python.  :meth:`add_batch` scores
        the rows next; a restored session indexes the records it pages in.
        """
        seen_batch: Set[str] = set()
        for record in records:
            if record.record_id in self or record.record_id in seen_batch:
                raise RecordError(f"duplicate record id: {record.record_id!r}")
            seen_batch.add(record.record_id)

        new_tokens = [
            record_token_set(record, self.attributes, self._tokenizer)
            for record in records
        ]
        batch_indices, batch_indptr = extend_vocabulary_csr_arrays(new_tokens, self._vocab)
        with obs.span("streaming.join.index", batch=len(records)):
            offset = self._indptr[-1]
            if len(batch_indices):
                self._index_chunks.append(batch_indices)
            self._indptr.extend((batch_indptr[1:] + offset).tolist())
            self._sides = np.concatenate((self._sides, np.fromiter(
                (self._side_of.get(record.source, -1) for record in records),
                dtype=np.int8, count=len(records),
            )))
            for record, tokens in zip(records, new_tokens):
                record_id = record.record_id
                self._row_of[record_id] = len(self._record_ids)
                self._record_ids.append(record_id)
                if not tokens:
                    self._empty_ids.append(record_id)

    def retract(self, record_id: str) -> None:
        """Remove one resident record from the index.

        The record's CSR row becomes a tombstone, so no future batch can
        join against it; its id becomes re-addable immediately.
        Tombstones are physically dropped by :meth:`compact`, which runs
        automatically once they exceed ``COMPACT_DEAD_FRACTION`` of the
        resident rows (with a floor of ``COMPACT_MIN_TOMBSTONES``).

        Raises :class:`~repro.records.record.RecordError` for unknown (or
        already retracted) ids.
        """
        row = self._row_of.pop(record_id, None)
        if row is None:
            raise RecordError(f"unknown record id: {record_id!r}")
        self._dead_rows.add(row)
        if self._indptr[row] == self._indptr[row + 1]:
            self._empty_ids.remove(record_id)
        if (
            len(self._dead_rows) >= self.COMPACT_MIN_TOMBSTONES
            and len(self._dead_rows)
            >= self.COMPACT_DEAD_FRACTION * len(self._record_ids)
        ):
            self.compact()

    def compact(self) -> int:
        """Physically drop tombstoned rows from the CSR arrays.

        One vectorized mask pass over the accumulated occurrence array
        (:func:`repro.simjoin.columnar.compact_csr_arrays`); row order of
        the survivors is preserved, so join results are unaffected.  The
        vocabulary keeps columns that no longer occur — a column of zeros
        cannot change any intersection count, and dropping columns would
        force an O(nnz) re-map.  Returns the number of rows dropped.
        """
        if not self._dead_rows:
            return 0
        dropped = len(self._dead_rows)
        alive = self._alive_rows()
        new_indices, new_indptr = compact_csr_arrays(
            self._flat_indices(), self._indptr, alive
        )
        self._index_chunks = [new_indices] if len(new_indices) else []
        self._indptr = new_indptr.tolist()
        self._sides = self._sides[alive]
        self._record_ids = list(compress(self._record_ids, alive.tolist()))
        self._row_of = {record_id: row for row, record_id in enumerate(self._record_ids)}
        self._dead_rows = set()
        if obs.enabled():
            obs.inc("streaming_join_compactions_total", 1,
                    help="CSR compaction passes over the incremental join index.")
            obs.inc("streaming_join_rows_compacted_total", dropped,
                    help="Tombstoned rows physically dropped by compaction.")
        return dropped

    # ------------------------------------------------------------ internals
    def _alive_rows(self) -> np.ndarray:
        """Boolean mask over the resident rows: ``False`` for tombstones."""
        alive = np.ones(len(self._record_ids), dtype=bool)
        alive[list(self._dead_rows)] = False
        return alive

    def _matrix(self) -> "sparse.csr_matrix":
        """The binary records-x-vocabulary matrix of every resident row,
        tombstones included; rebuilding it from the flat arrays is an O(nnz)
        concatenation, the product dominates."""
        indices = self._flat_indices()
        return sparse.csr_matrix(
            (
                np.ones(len(indices), dtype=np.int32),
                indices,
                np.asarray(self._indptr, dtype=np.int64),
            ),
            shape=(len(self._record_ids), max(1, len(self._vocab))),
        )

    def _delta_blocks(self, first_new: int) -> Iterable[_BlockPairs]:
        """The delta's pair blocks: resident rows ``[first_new, n)`` against
        every earlier row, empty-token pairs included, cross-source pairs
        only under ``cross_sources``.

        One kernel call over the resident matrix under the ``col < row``
        mask covers new-vs-old and new-vs-new alike.  Tombstoned rows are
        masked out by the kernel, which matters at threshold zero, where a
        dead row's similarity of 0.0 would otherwise pass.  When the batch
        spans several row blocks and more than one worker is configured the
        blocks are scored on worker threads; serial and sharded runs walk
        the same blocks of the same scorer, so the delta is bit-identical
        either way.
        """
        matrix = self._matrix()
        blocks = join_blocks(
            matrix,
            start=first_new,
            workers=resolve_worker_count(self.workers),
            alive=self._alive_rows() if self._dead_rows else None,
            threshold=self.threshold,
            block_size=self.block_size,
            kind="new_vs_old",
        )
        # Empty token sets share no token, so the kernel never reports
        # them at a positive threshold, but two empty records are
        # textually identical.  ``_empty_ids`` is in
        # arrival order, so the batch's own empties are its tail, and the
        # empty at position p pairs with the p empties before it.
        if self.threshold > 0.0:
            new_empty = int((np.diff(matrix.indptr[first_new:]) == 0).sum())
            if new_empty:
                empty = np.array(
                    [self._row_of[record_id] for record_id in self._empty_ids],
                    dtype=np.int64,
                )
                positions = range(len(empty) - new_empty, len(empty))
                rows = np.repeat(empty[positions.start :], positions)
                cols = np.concatenate([empty[:position] for position in positions])
                blocks = chain(blocks, [(rows, cols, np.ones(rows.size))])
        if self.cross_sources is None:
            return blocks
        return map(self._cross_source_pairs, blocks)

    def _cross_source_pairs(self, block: _BlockPairs) -> _BlockPairs:
        """The pairs of ``block`` with one record from each cross source."""
        rows, cols, values = block
        first, second = self._sides[rows], self._sides[cols]
        keep = (first >= 0) & (second >= 0)
        if self.cross_sources[0] != self.cross_sources[1]:
            keep &= first != second
        return rows[keep], cols[keep], values[keep]
