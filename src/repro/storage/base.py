"""The pluggable storage layer: one interface, memory and SQLite backends.

Everything a streaming session accumulates — resident records, the token
vocabulary and CSR chunks of the incremental join, the candidate pairs,
the per-pair vote ledger and posterior cache, and the crowd-workload
counters — lives behind a :class:`Store`.  Two backends
implement it:

* :class:`~repro.storage.memory.MemoryStore` (default) — the live
  in-process structures and nothing else.  A durable memory-backed session
  is written into a :class:`~repro.storage.sqlite.SqliteStore` file in
  bulk, at its checkpoint cadence
  (:func:`repro.streaming.persistence.write_snapshot`).
* :class:`~repro.storage.sqlite.SqliteStore` — a single WAL-mode SQLite
  file.  Every applied event's changes are written into its tables in one
  transaction: records and join rows as they change, the pair ledger's
  changed rows when the event commits.

Either way the SQLite file is the one materialised form of a session — it
also holds the session's event log — and
:meth:`repro.streaming.StreamingResolver.restore` is a *page-in* of its
state plus a replay of the logged events it has not seen; the backend only
decides *when* the state is written.

The hot path stays dict-speed for both backends: the session reads the
:class:`PairLedger` mappings directly and every *mutation* goes through a
ledger method.  A ledger a :class:`~repro.storage.sqlite.SqliteStore`
holds also notes which keys changed, and the store writes only those keys'
rows, once per event, when it commits.
Outputs are bit-identical across backends — the property tests in
``tests/test_storage.py`` assert it for random batch/retract/update/crash
schedules.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.records.record import Record

PairKey = Tuple[str, str]
#: ``(worker_id, pair_key, answer)`` — the vote tuple of the crowd platform.
Vote = Tuple[str, PairKey, bool]

#: Row of the join substrate: ``(row_no, record_id, source, empty, dead)``.
JoinRow = Tuple[int, str, Optional[str], bool, bool]


class StorageError(RuntimeError):
    """Raised for invalid storage configurations or corrupt store files."""


class PairLedger:
    """The hot pair/vote/posterior ledger of one streaming session.

    Reads are plain attribute access on the dicts below (the session's
    inner loops touch them constantly); every *mutation* goes through a
    method, so the ledger knows what changed.

    Attributes
    ----------
    pairs:
        Candidate pair key -> machine likelihood, in discovery order: the
        session's one candidate table.  :meth:`pairs_of` indexes its keys
        by record: the skip index that bounds a retraction to exactly the
        record's pairs.
    votes / pending_votes:
        Per-pair vote ledger: a voted pair's votes in oracle order, and the
        votes it gained since it was last aggregated.
    posteriors:
        The aggregated posterior cache.
    covered:
        Pairs covered by at least one published HIT.
    touched:
        Keys whose likelihood or posterior was added, changed or dropped
        since :meth:`take_touched` last ran — what a ranked view of the
        ledger has to re-place.  ``None`` means "any of them": a ledger
        whose dicts were assigned wholesale (page-in), or one after
        :meth:`replace_posteriors`.  A new ledger is empty, so it starts
        with nothing touched and its first event can name what it changed.
    unsaved:
        ``None`` unless the ledger is stored (``PairLedger(stored=True)``).
        Then: every key a mutation changed since :meth:`take_unsaved` last
        ran, in order, mapped to whether :meth:`add_pair` placed it (its
        ``pairs`` row goes to the end of the table, as the key went to the
        end of :attr:`pairs`).
    """

    def __init__(self, stored: bool = False) -> None:
        self.pairs: Dict[PairKey, Optional[float]] = {}
        self.votes: Dict[PairKey, List[Vote]] = {}
        self.pending_votes: Dict[PairKey, int] = {}
        self.posteriors: Dict[PairKey, float] = {}
        self.covered: Set[PairKey] = set()
        self.touched: Optional[Set[PairKey]] = set()
        self.unsaved: Optional[Dict[PairKey, bool]] = {} if stored else None
        self._pairs_of_record: Dict[str, Set[PairKey]] = {}

    def pairs_of(self, record_id: str) -> AbstractSet[PairKey]:
        """The candidate pairs ``record_id`` is part of (a read-only view)."""
        return self._pairs_of_record.get(record_id, frozenset())

    def reindex(self) -> None:
        """Rebuild :meth:`pairs_of` from :attr:`pairs` (after a page-in)."""
        self._pairs_of_record = {}
        for key in self.pairs:
            self._index(key)

    def _index(self, key: PairKey) -> None:
        self._pairs_of_record.setdefault(key[0], set()).add(key)
        self._pairs_of_record.setdefault(key[1], set()).add(key)

    def take_touched(self) -> Optional[Set[PairKey]]:
        """Hand over :attr:`touched` and start a new, empty set."""
        touched, self.touched = self.touched, set()
        return touched

    def _touch(self, key: PairKey) -> None:
        if self.touched is not None:
            self.touched.add(key)

    def take_unsaved(self) -> Dict[PairKey, bool]:
        """Hand over :attr:`unsaved` of a stored ledger and start afresh."""
        unsaved, self.unsaved = self.unsaved, {}
        return unsaved

    def _note(self, keys: Iterable[PairKey]) -> None:
        if self.unsaved is not None:
            for key in keys:
                self.unsaved.setdefault(key, False)

    # ------------------------------------------------------------ mutations
    def add_pair(self, key: PairKey, likelihood: Optional[float]) -> None:
        """Register a discovered candidate pair (keeps the higher likelihood).

        A pair placed again moves to the end of :attr:`pairs`.
        """
        if key in self.pairs:
            if (likelihood or 0.0) <= (self.pairs[key] or 0.0):
                return
            del self.pairs[key]
        self.pairs[key] = likelihood
        self._index(key)
        self._touch(key)
        if self.unsaved is not None:
            self.unsaved.pop(key, None)
            self.unsaved[key] = True

    def drop_pair(self, key: PairKey) -> None:
        """Invalidate one pair entirely (retraction blast radius)."""
        self._touch(key)
        self._note((key,))
        for record_id in key:
            pairs = self._pairs_of_record.get(record_id)
            if pairs is not None:
                pairs.discard(key)
                if not pairs:
                    del self._pairs_of_record[record_id]
        self.pairs.pop(key, None)
        self.votes.pop(key, None)
        self.pending_votes.pop(key, None)
        self.posteriors.pop(key, None)
        self.covered.discard(key)

    def record_fresh_votes(self, key: PairKey, votes: List[Vote]) -> None:
        """Take a pair's crowd votes, in oracle order."""
        self.votes[key] = votes
        self.pending_votes[key] = self.pending_votes.get(key, 0) + len(votes)
        self._note((key,))

    def mark_covered(self, keys: Iterable[PairKey]) -> None:
        """Note that published HITs covered the given pairs."""
        fresh = set(keys) - self.covered
        self.covered |= fresh
        self._note(fresh)

    def set_posterior(self, key: PairKey, posterior: float) -> None:
        self.posteriors[key] = posterior
        self._touch(key)
        self._note((key,))

    def replace_posteriors(self, posteriors: Dict[PairKey, float]) -> None:
        """Global-scope aggregation: the whole cache is rebuilt at once."""
        self._note(self.posteriors)
        self.posteriors = dict(posteriors)
        self._note(self.posteriors)
        self.touched = None

    def clear_pending(self, keys: Iterable[PairKey]) -> None:
        for key in keys:
            if self.pending_votes.pop(key, None) is not None:
                self._note((key,))

    def clear_all_pending(self) -> None:
        self._note(self.pending_votes)
        self.pending_votes.clear()


class Store(abc.ABC):
    """Backend interface of the storage layer.

    One :class:`Store` instance backs one streaming session.  It provides:

    * the **record table** (what :class:`~repro.records.record.RecordStore`
      delegates to when constructed with ``backing=``),
    * the :class:`PairLedger` (``self.ledger``),
    * the **join substrate** mirror (vocabulary, CSR chunks, row
      bookkeeping of the incremental join),
    * session **metadata** (config, truth, counters) and the accumulated
      crowd-assignment durations.

    ``persistent`` tells callers whether the write hooks do anything; the
    in-memory backend keeps them as no-ops so the default path pays zero
    overhead.  Reading a session back (``load_*``) is the persistent
    backend's business alone — see :class:`~repro.storage.sqlite.SqliteStore`.
    """

    #: Human-readable backend name (``"memory"`` / ``"sqlite"``).
    backend_name: str = "abstract"
    #: True when its writes survive the process (page-in restore works).
    persistent: bool = False

    ledger: PairLedger

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    def commit(self) -> None:
        """Durably commit the event's writes (no-op for memory)."""

    # --------------------------------------------------------- record table
    @abc.abstractmethod
    def add_record(self, record: "Record") -> None:
        """Insert one record (caller guarantees the id is fresh)."""

    @abc.abstractmethod
    def remove_record(self, record_id: str) -> Optional["Record"]:
        """Remove and return one record; ``None`` when the id is unknown."""

    @abc.abstractmethod
    def get_record(self, record_id: str) -> Optional["Record"]:
        """Fetch one record; ``None`` when the id is unknown."""

    @abc.abstractmethod
    def has_record(self, record_id: object) -> bool:
        ...

    @abc.abstractmethod
    def record_count(self) -> int:
        ...

    @abc.abstractmethod
    def iter_records(self) -> Iterator["Record"]:
        """All resident records in arrival order."""

    @abc.abstractmethod
    def record_ids(self) -> List[str]:
        """Resident record ids in arrival order."""

    @abc.abstractmethod
    def record_at(self, index: int) -> "Record":
        """The ``index``-th resident record in arrival order."""

    # -------------------------------------------------------------- metadata
    def set_meta(self, key: str, value: object) -> None:
        """Mirror one JSON-serializable metadata value (config, counters)."""

    # --------------------------------------------------------- join mirror
    def join_append_rows(self, rows: Sequence[JoinRow]) -> None:
        """Mirror newly indexed join rows (arrival order)."""

    def join_mark_dead(self, row_no: int) -> None:
        """Mirror a retraction tombstone."""

    def join_replace(
        self,
        rows: Sequence[JoinRow],
        indices: "np.ndarray",
        row_lengths: "np.ndarray",
    ) -> None:
        """Mirror a physical compaction: the whole substrate is rewritten."""

    def extend_vocabulary(self, items: Sequence[Tuple[str, int]]) -> None:
        """Mirror newly assigned vocabulary columns."""

    def append_csr_chunk(
        self, indices: "np.ndarray", row_lengths: "np.ndarray"
    ) -> None:
        """Mirror one batch's CSR rows."""

    # ----------------------------------------------------- crowd workload
    def append_assignment_seconds(self, values: Sequence[float]) -> None:
        """Mirror crowd-assignment durations (append-only)."""
