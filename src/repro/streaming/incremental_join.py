"""Incremental set-similarity join over a persistent token/CSR index.

The batch-mode engines in :mod:`repro.simjoin` recompute the whole join on
every call.  :class:`IncrementalSimJoin` instead keeps the token-incidence
CSR arrays of every record seen so far and, when a batch of new records
arrives, appends the batch's rows and scores **only those rows** against
every earlier row of the resident matrix — old records and the batch's own
earlier records alike — in one call of the shared join kernel
(:class:`repro.simjoin.vectorized.BlockScorer`, the code the batch engines
run), on worker threads when the batch spans more than one row block and
``workers`` allows.

Index construction is *columnar* (:mod:`repro.simjoin.columnar`): each
batch's CSR rows are built in one pass over the flattened token arrays,
with one dict lookup per distinct batch token instead of one per token
occurrence — so small-batch appends are not dominated by a Python indexing
loop.

Because set similarity is a function of the two records alone, pairs among
*old* records are untouched by new arrivals, and the union of the per-batch
deltas is **exactly** the full-store join at the same threshold — the
equivalence the streaming property tests assert.  Likelihood values come
out of the same kernel as the batch engines', so they are bit-identical,
not merely close.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.base import Store

from repro import obs
from repro.records.pairs import PairSet
from repro.records.record import Record, RecordError
from repro.records.tokenize import WhitespaceTokenizer, record_token_set
from repro.simjoin.columnar import compact_csr_arrays, extend_vocabulary_csr_arrays
from repro.simjoin.parallel import join_blocks, ranked_pair_set, resolve_worker_count
from repro.simjoin.vectorized import (
    DEFAULT_BLOCK_ROWS,
    HAVE_SCIPY,
    _BlockPairs,
    require_scipy,
)

if HAVE_SCIPY:
    from scipy import sparse
else:  # pragma: no cover - scipy is part of the image
    sparse = None


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
        (record linkage), mirroring the batch engines.
    block_size:
        Row-block size of the sparse product over the appended rows.
    workers:
        Threads the product's row blocks are scored on.  ``None``/``0`` =
        one per CPU core; a batch of a single row block is scored inline,
        so small appends start no thread.  Any value yields bit-identical
        deltas.
    storage:
        Optional :class:`repro.storage.base.Store`.  With a *persistent*
        store every index mutation — appended CSR chunks, new vocabulary
        columns, tombstones, compactions — is mirrored into it, so a later
        process can page the substrate back in with :meth:`from_store`.  A
        non-persistent (or absent) store changes nothing.

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
        storage: Optional["Store"] = None,
    ) -> None:
        require_scipy()
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
        #: The store every index mutation is mirrored into (persistent only).
        self._mirror = storage if storage is not None and storage.persistent else None
        # Persistent index over all resident records.  ``_record_ids`` is
        # row-aligned with the CSR arrays and may contain tombstoned rows
        # (``_dead_rows``); ``_row_of`` maps each *alive* id to its row, so
        # its keys are the resident id set.  Token sets are not kept: the
        # CSR rows are the index, and nothing reads a set after its batch.
        self._record_ids: List[str] = []
        self._row_of: Dict[str, int] = {}
        self._dead_rows: Set[int] = set()
        self._sources: Dict[str, Optional[str]] = {}
        self._empty_ids: List[str] = []
        # Flat CSR arrays (rows = records in arrival order), one chunk per
        # batch; rebuilding a scipy matrix from them is an O(nnz)
        # concatenation, the matmul dominates.
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

    def effective_workers(self) -> int:
        """The concrete worker count (resolving the ``None``/``0`` default)."""
        return resolve_worker_count(self.workers)

    # ------------------------------------------------------------------ api
    def add_batch(self, records: Sequence[Record]) -> PairSet:
        """Index a batch of new records and return the *delta* pair set.

        The delta contains every pair at or above the threshold with at
        least one record from the batch (new-vs-old and new-vs-new); pairs
        among previously resident records are unaffected by arrivals, so
        the union of all deltas equals the full-store join.
        """
        batch = list(records)
        seen_batch: Set[str] = set()
        for record in batch:
            if record.record_id in self or record.record_id in seen_batch:
                raise RecordError(f"duplicate record id: {record.record_id!r}")
            seen_batch.add(record.record_id)

        new_tokens = [
            record_token_set(record, self.attributes, self._tokenizer)
            for record in batch
        ]
        # One columnar pass builds the batch's CSR rows and extends the
        # persistent vocabulary.  With a mirror the batch's novel tokens
        # are collected so exactly those columns can be written to it.
        novel: Optional[List[str]] = [] if self._mirror is not None else None
        batch_indices, batch_indptr = extend_vocabulary_csr_arrays(
            new_tokens, self._vocab, novel_out=novel
        )
        first_new = len(self._record_ids)
        with obs.span("streaming.join.index", batch=len(batch)):
            self._index_batch(batch, new_tokens, batch_indices, batch_indptr, novel)

        if not batch or len(self._record_ids) < 2:
            return PairSet()
        with obs.span("streaming.join.score", batch=len(batch), resident=first_new):
            # Canonical order (the batch join's), so downstream tie-breaking
            # is independent of discovery order.
            return ranked_pair_set(self._record_ids, self._delta_blocks(first_new))

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
        del self._sources[record_id]
        if self._indptr[row] == self._indptr[row + 1]:
            self._empty_ids.remove(record_id)
        if self._mirror is not None:
            self._mirror.join_mark_dead(row)
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
        new_indices, new_indptr = compact_csr_arrays(
            self._flat_indices(), self._indptr, self._dead_rows
        )
        self._index_chunks = [new_indices] if len(new_indices) else []
        self._indptr = new_indptr.tolist()
        self._record_ids = [
            record_id
            for row, record_id in enumerate(self._record_ids)
            if row not in self._dead_rows
        ]
        self._row_of = {record_id: row for row, record_id in enumerate(self._record_ids)}
        self._dead_rows = set()
        if self._mirror is not None:
            self._write_substrate(self._mirror)
        if obs.enabled():
            obs.inc("streaming_join_compactions_total", 1,
                    help="CSR compaction passes over the incremental join index.")
            obs.inc("streaming_join_rows_compacted_total", dropped,
                    help="Tombstoned rows physically dropped by compaction.")
        return dropped

    def write_to(self, store: "Store") -> None:
        """Write the whole index into an (emptied) store: rows, CSR, vocabulary."""
        self._write_substrate(store)
        store.extend_vocabulary(sorted(self._vocab.items(), key=lambda item: item[1]))

    def _write_substrate(self, store: "Store") -> None:
        """Rewrite a store's join rows and CSR chunks to match the live arrays."""
        empty_set = set(self._empty_ids)
        store.join_replace(
            [
                (
                    row,
                    record_id,
                    self._sources.get(record_id),
                    record_id in empty_set,
                    row in self._dead_rows,
                )
                for row, record_id in enumerate(self._record_ids)
            ],
            self._flat_indices(),
            np.diff(np.asarray(self._indptr, dtype=np.int64)),
        )

    # ------------------------------------------------------------ internals
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
        count = len(self._record_ids)
        indices = self._flat_indices()
        matrix = sparse.csr_matrix(
            (
                np.ones(len(indices), dtype=np.int32),
                indices,
                np.asarray(self._indptr, dtype=np.int64),
            ),
            shape=(count, max(1, len(self._vocab))),
        )
        alive = None
        if self._dead_rows:
            alive = np.ones(count, dtype=bool)
            alive[list(self._dead_rows)] = False
        blocks = join_blocks(
            matrix,
            start=first_new,
            workers=self.effective_workers(),
            alive=alive,
            threshold=self.threshold,
            block_size=self.block_size,
            triangle=-1,
            kind="new_vs_old",
        )
        # Empty token sets are invisible to the sparse product, but two
        # empty records are textually identical.  ``_empty_ids`` is in
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
        ids, sources, wanted = self._record_ids, self._sources, set(self.cross_sources)
        keep = np.fromiter(
            (
                {sources[ids[row]], sources[ids[col]]} == wanted
                for row, col in zip(rows.tolist(), cols.tolist())
            ),
            dtype=bool,
            count=rows.size,
        )
        return rows[keep], cols[keep], values[keep]

    def _index_batch(
        self,
        batch: Sequence[Record],
        new_tokens: Sequence[FrozenSet[str]],
        batch_indices: np.ndarray,
        batch_indptr: np.ndarray,
        novel: Optional[List[str]] = None,
    ) -> None:
        """Fold the batch into the persistent token/CSR index.

        The CSR rows were already built columnarly in :meth:`add_batch`;
        here they are appended wholesale, and only the bookkeeping that is
        inherently per record (sources, empty ids) loops in Python.  The
        same arrays are mirrored into a persistent store: the new rows, the
        batch's CSR chunk, and exactly the novel vocabulary columns.
        """
        if self._mirror is not None and batch:
            first_row = len(self._record_ids)
            self._mirror.join_append_rows(
                [
                    (
                        first_row + position,
                        record.record_id,
                        record.source,
                        not new_tokens[position],
                        False,
                    )
                    for position, record in enumerate(batch)
                ]
            )
            self._mirror.append_csr_chunk(
                batch_indices, np.diff(np.asarray(batch_indptr, dtype=np.int64))
            )
            if novel:
                self._mirror.extend_vocabulary(
                    [(token, self._vocab[token]) for token in novel]
                )
        offset = self._indptr[-1]
        if len(batch_indices):
            self._index_chunks.append(batch_indices)
        self._indptr.extend((batch_indptr[1:] + offset).tolist())
        for record, tokens in zip(batch, new_tokens):
            record_id = record.record_id
            self._row_of[record_id] = len(self._record_ids)
            self._record_ids.append(record_id)
            self._sources[record_id] = record.source
            if not tokens:
                self._empty_ids.append(record_id)

    # -------------------------------------------------------------- page-in
    @classmethod
    def from_store(
        cls,
        source: "Store",
        *,
        threshold: float,
        attributes: Optional[Sequence[str]] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
        block_size: int = DEFAULT_BLOCK_ROWS,
        workers: Optional[int] = None,
        storage: Optional["Store"] = None,
    ) -> "IncrementalSimJoin":
        """Page the join substrate back in from a persistent store.

        Construction parameters are not stored with the substrate (they
        belong to the workflow config), so the caller passes them again;
        ``storage`` is the store the rebuilt index mirrors into from then
        on (the same file for a sqlite-backed session).  The CSR arrays,
        vocabulary and row bookkeeping come back exactly as written (a
        ``join_maintain_inverted`` meta entry left by an older writer is
        not read).  Returns an empty index when the store has no substrate
        yet.
        """
        instance = cls(
            threshold=threshold,
            attributes=attributes,
            cross_sources=cross_sources,
            block_size=block_size,
            workers=workers,
            storage=storage,
        )
        state = source.load_join_state()
        if state is None:
            return instance
        rows: List[Tuple[int, str, Optional[str], bool, bool]] = state["rows"]  # type: ignore[assignment]
        instance._record_ids = [record_id for _, record_id, _, _, _ in rows]
        instance._dead_rows = {row_no for row_no, _, _, _, dead in rows if dead}
        instance._row_of = {
            record_id: row_no for row_no, record_id, _, _, dead in rows if not dead
        }
        instance._sources = {
            record_id: source for _, record_id, source, _, dead in rows if not dead
        }
        instance._empty_ids = [
            record_id for _, record_id, _, empty, dead in rows if empty and not dead
        ]
        instance._vocab = dict(state["vocabulary"])  # type: ignore[arg-type]
        indices = np.asarray(state["indices"], dtype=np.int64)
        instance._index_chunks = [indices] if len(indices) else []
        instance._indptr = list(state["indptr"])  # type: ignore[arg-type]
        return instance
