"""The storage layer: the session's pair ledger and its write hooks.

Everything a streaming session accumulates — resident records, the
incremental join's index over them, the candidate pairs, the per-pair vote
ledger and posterior cache, and the crowd-workload counters — lives in
process memory, and every session reads only that.  A :class:`Store` is
where the *writes* of what cannot be recomputed go; the join index is
derived from the records, so no store holds it:

* :class:`Store` itself — the in-memory session's store: it holds the
  :class:`PairLedger` and every write hook is a no-op.
* :class:`~repro.storage.sqlite.SqliteStore` — the one WAL-mode SQLite file
  of a durable session.  Every applied event's changes are written into
  its tables in one transaction: records as they change, the pair
  ledger's changed rows when the event commits.

The SQLite file also holds the session's event log, and
:meth:`repro.streaming.StreamingResolver.restore` is a *page-in* of its
state (the join re-indexes the paged-in records) plus a replay of the
logged events it has not seen.

The hot path is dict-speed: the session reads the :class:`PairLedger`
mappings directly and every *mutation* goes through a ledger method.  A
ledger a :class:`~repro.storage.sqlite.SqliteStore` holds also notes which
keys changed, and the store writes only those keys' rows, once per event,
when it commits.  A durable session is bit-identical to an in-memory one —
the property tests in ``tests/test_storage.py`` assert it for random
batch/retract/update/crash schedules.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, AbstractSet, Callable, Dict, Iterable, List, Optional, Set, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.records.record import Record

PairKey = Tuple[str, str]
#: ``(worker_id, pair_key, answer)`` — the vote tuple of the crowd platform.
Vote = Tuple[str, PairKey, bool]

#: The columns of :attr:`PairLedger.tally`: a key entered or left
#: ``pairs``, ``votes`` or ``posteriors``.
PAIRS, VOTED, POSTERIORS = TALLY_COLUMNS = range(3)


class PersistenceError(RuntimeError):
    """Raised for invalid checkpoint directories or replay failures."""


class StorageError(PersistenceError):
    """Raised for a store this release cannot read (no database, a format outside its window)."""


class StoreInUse(PersistenceError):
    """Raised for a store another writer (a live session, a ``save``) holds."""


class PairLedger:
    """The hot pair/vote/posterior ledger of one streaming session.

    Reads are plain attribute access on the dicts below (the session's
    inner loops touch them constantly); every *mutation* goes through a
    method, so the ledger knows what changed.

    Attributes
    ----------
    pairs:
        Candidate pair key -> machine likelihood: the session's one
        candidate table.  :meth:`pairs_of` indexes its keys
        by record: the skip index that bounds a retraction to exactly the
        record's pairs.
    votes:
        Per-pair vote ledger: a voted pair's votes in oracle order.
    posteriors:
        The aggregated posterior cache.
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
        ran — the keys whose store rows are stale.
    tally:
        ``None``, or a callable told ``(key[0], column, +1 or -1)`` — the
        pair's first record — whenever a mutation adds ``key`` to, or
        removes it from, :attr:`pairs` (column :data:`PAIRS`),
        :attr:`votes` (:data:`VOTED`) or :attr:`posteriors`
        (:data:`POSTERIORS`): what lets a session count them per component
        (``IncrementalUnionFind.tally``).  A page-in assigns the dicts and
        tells it nothing.
    """

    def __init__(self, stored: bool = False) -> None:
        self.pairs: Dict[PairKey, Optional[float]] = {}
        self.votes: Dict[PairKey, List[Vote]] = {}
        self.posteriors: Dict[PairKey, float] = {}
        self.touched: Optional[Set[PairKey]] = set()
        self.unsaved: Optional[Set[PairKey]] = set() if stored else None
        self.tally: Optional[Callable[[str, int, int], None]] = None
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

    def take_unsaved(self) -> Set[PairKey]:
        """Hand over :attr:`unsaved` of a stored ledger and start afresh."""
        unsaved, self.unsaved = self.unsaved, set()
        return unsaved

    def _note(self, keys: Iterable[PairKey]) -> None:
        if self.unsaved is not None:
            self.unsaved.update(keys)

    # ------------------------------------------------------------ mutations
    def add_pair(self, key: PairKey, likelihood: Optional[float]) -> None:
        """Register a discovered candidate pair (keeps the higher likelihood)."""
        if key in self.pairs:
            if (likelihood or 0.0) <= (self.pairs[key] or 0.0):
                return
        elif self.tally is not None:
            self.tally(key[0], PAIRS, 1)
        self.pairs[key] = likelihood
        self._index(key)
        self._touch(key)
        self._note((key,))

    def drop_pair(self, key: PairKey) -> None:
        """Invalidate one pair entirely (retraction blast radius)."""
        if self.tally is not None:
            for column, held in ((PAIRS, self.pairs), (VOTED, self.votes),
                                 (POSTERIORS, self.posteriors)):
                if key in held:
                    self.tally(key[0], column, -1)
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
        self.posteriors.pop(key, None)

    def record_fresh_votes(self, key: PairKey, votes: List[Vote]) -> None:
        """Take a pair's crowd votes, in oracle order."""
        if self.tally is not None and key not in self.votes:
            self.tally(key[0], VOTED, 1)
        self.votes[key] = votes
        self._note((key,))

    def set_posterior(self, key: PairKey, posterior: float) -> None:
        if self.tally is not None and key not in self.posteriors:
            self.tally(key[0], POSTERIORS, 1)
        self.posteriors[key] = posterior
        self._touch(key)
        self._note((key,))

    def replace_posteriors(self, posteriors: Dict[PairKey, float]) -> None:
        """Global-scope aggregation: the whole cache is rebuilt at once."""
        if self.tally is not None:
            for key in self.posteriors.keys() - posteriors.keys():
                self.tally(key[0], POSTERIORS, -1)
            for key in posteriors.keys() - self.posteriors.keys():
                self.tally(key[0], POSTERIORS, 1)
        self._note(self.posteriors)
        self.posteriors = dict(posteriors)
        self._note(self.posteriors)
        self.touched = None


class Store:
    """Where one streaming session's writes go; the in-memory session's store.

    One :class:`Store` instance backs one streaming session.  It holds the
    :class:`PairLedger` (``self.ledger``) and offers write hooks for the
    record table and session metadata (config, truth, counters — the crowd
    assignments' duration counts among them).  Here every hook is a no-op;
    :class:`~repro.storage.sqlite.SqliteStore` writes them.  Nothing reads
    a record back through a store while the session runs: the session's
    own structures are the state.
    """

    def __init__(self) -> None:
        self.ledger = PairLedger()

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    def commit(self) -> None:
        """Durably commit the event's writes (no-op by default)."""

    # --------------------------------------------------------- record table
    def add_record(self, record: "Record") -> None:
        """Write one arriving record (the caller guarantees the id is fresh)."""

    def remove_record(self, record_id: str) -> None:
        """Write one record's removal."""

    # -------------------------------------------------------------- metadata
    def set_meta(self, key: str, value: object) -> None:
        """Write one JSON-serializable metadata value (config, counters)."""
