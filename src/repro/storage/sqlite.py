"""The SQLite store: one WAL-mode file per durable streaming session.

:class:`SqliteStore` is the one file of a durable session.  Its state
tables — records, the pair ledger (one ``ledger`` row per candidate pair:
likelihood, votes, posterior) and the workload counters in
``meta`` (assignment durations as counts, not one row each) — hold "the
state as of ``meta.events_applied``"; its ``events`` table
(``seq``, ``type``, ``payload``, ``crc``) is the session's write-ahead log —
:class:`repro.streaming.persistence.SessionJournal` owns its rows, this
module only declares it.  The log holds at most the one intent a crash
interrupted: an event deletes its intent in the commit that applies it.
The incremental join's index is not stored: it is derived from the
records, and a restore re-indexes them.  The schema is format 6 alone:
:mod:`repro.storage.upgrade` brings an earlier store to it.

A durable session writes each event's changes into the state tables
inside that event's transaction: records and meta as they change, and
the pair ledger's changed keys — which a ledger this store holds notes —
once, when :meth:`SqliteStore.commit` closes the event
(:meth:`SqliteStore.write_ledger`).  Nothing is read back while the session
runs: its state is in process memory.  ``save(X)`` writes the tables whole
into another file (:meth:`SqliteStore.clear` and the same
:meth:`SqliteStore.write_ledger` with every key, one transaction;
``events`` is not in ``_TABLES``, so a rewrite never touches a log).
:meth:`repro.streaming.StreamingResolver.restore` *pages in* the state
and replays ``events WHERE seq > meta.events_applied``.

**One writer.**  A store opened with ``lock=True`` — by a durable session
and by ``save(X)`` — holds an exclusive ``flock`` on an ``O_RDONLY``
descriptor of its directory until :meth:`SqliteStore.close`; a second such
opener gets :class:`~repro.storage.base.StoreInUse` before anything is
read or written.  Locking the directory leaves no lock file behind, and
closing that descriptor cannot drop SQLite's own POSIX locks on the store
file, which closing a second descriptor of the file would.  Readers
(``repro stats``, a copy) open the store without the lock.

Pragmas::

    journal_mode = WAL        -- crash-safe, readers never block the writer
    synchronous  = NORMAL     -- a plain store (``save(X)`` copy, detached read)
                 = FULL       -- set by ``SessionJournal`` when it attaches a log:
                                 every commit is fsynced, so a logged intent is
                                 on stable storage before it is applied
    busy_timeout = 30000 ms   -- wait for locked databases

All writes between two :meth:`commit` calls form one transaction: the
session opens a transaction implicitly at the first write of an event and
commits after the event is fully applied — state rows, counters and the
deletion of the event's intent together — so a crash mid-event rolls back
to the previous event boundary and the logged intent replays the
interrupted event.

Float fidelity: SQLite ``REAL`` is an IEEE-754 double, and JSON numbers
round-trip exactly through Python's ``repr``-based encoder, so posteriors,
likelihoods and costs come back bit-identical — the restored session's
:func:`repro.streaming.persistence.state_digest` equals the live one's.
"""

from __future__ import annotations

import fcntl
import json
import os
import sqlite3
import weakref
from pathlib import Path
from typing import AbstractSet, Iterator, List, Optional, Sequence

from repro import obs
from repro.records.record import Record
from repro.storage.base import PairKey, PairLedger, Store, StorageError, StoreInUse

#: Default store filename inside a checkpoint directory.
STORE_FILENAME = "store.sqlite"

#: The ledger's declaration (:mod:`repro.storage.upgrade` rebuilds an earlier one from it).
LEDGER_TABLE = """
CREATE TABLE IF NOT EXISTS ledger (
    id_a       TEXT NOT NULL,
    id_b       TEXT NOT NULL,
    likelihood REAL,
    votes      TEXT,
    posterior  REAL,
    PRIMARY KEY (id_a, id_b)
) WITHOUT ROWID"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    record_id  TEXT PRIMARY KEY,
    attributes TEXT NOT NULL,
    source     TEXT,
    arrival    INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS records_arrival ON records(arrival);""" + LEDGER_TABLE + """;
CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY,
    type    TEXT NOT NULL,
    payload TEXT NOT NULL,
    crc     INTEGER NOT NULL
);
"""

#: The *state* tables: what ``clear()`` empties and a snapshot rewrites.
#: ``events`` (the log) is deliberately absent.
_TABLES = ("meta", "records", "ledger")

#: The ``meta`` key of a store a session has logged to.  The log is empty
#: between events, so it no longer tells a session's store from a
#: ``save(X)`` copy, whose rewritten meta never holds the key.
LOGGED = "logged"

#: Every table the schema declares (an earlier release's others are
#: dropped by :func:`repro.storage.upgrade.upgrade`).
SCHEMA_TABLES = _TABLES + ("events",)


def _lock_directory(directory: Path) -> int:
    """Take the one-writer lock of ``directory``: returns the descriptor
    that holds it, whose closing releases it."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(descriptor)
        raise StoreInUse(
            f"{directory} is in use by another writer (a live session, or a save "
            "into it); close that session, or restore a copy of its store"
        ) from None
    return descriptor


class SqliteStore(Store):
    """Disk-backed session store over one WAL-mode SQLite file.

    ``lock=True`` makes this store its directory's one writer until
    :meth:`close` (:class:`~repro.storage.base.StoreInUse` if another holds it).
    """

    def __init__(self, path: os.PathLike, lock: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        # Released by close(), or when an unclosed store is collected.
        self._unlock = (
            weakref.finalize(self, os.close, _lock_directory(self.path.parent)) if lock else None
        )
        try:
            self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        except sqlite3.Error as error:  # pragma: no cover - bad path
            self._release()
            raise StorageError(f"cannot open sqlite store {self.path}: {error}")
        problem = None
        try:
            # Only a file this open creates gets the schema, in one
            # transaction, so a torn creation leaves every table or none.
            # An existing file holding none (zero bytes, or a WAL torn before
            # its creator's first commit) is refused by this read, before a
            # pragma writes to it; and opening a store to read it (a
            # restore, ``repro stats``) adds no table an earlier format
            # lacks.  Either way a refused file keeps its bytes.
            empty = self._conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchone() is None
            if empty and existed:
                problem = "holds no session"
            else:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                self._conn.execute("PRAGMA busy_timeout=30000")
                if empty:
                    self._conn.executescript("BEGIN;" + _SCHEMA + "COMMIT;")
                row = self._conn.execute("SELECT MAX(arrival) FROM records").fetchone()
        except sqlite3.DatabaseError as error:
            problem = f"is not a session store: {error}"
        if problem is not None:
            self._conn.close()
            self._release()
            raise StorageError(f"{self.path} {problem}")
        self._in_txn = False
        self._next_arrival = (row[0] + 1) if row[0] is not None else 0
        # Empty until :meth:`load_ledger`: opening a store to read its meta
        # (restore, ``repro stats``) must not page the ledger in.
        self.ledger = PairLedger(stored=True)

    # ---------------------------------------------------------- transactions
    def query(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        """Run one read (or pragma) statement outside the event transaction."""
        return self._conn.execute(sql, params)

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        """Run one statement inside the open per-event transaction."""
        if not self._in_txn:
            self._conn.execute("BEGIN")
            self._in_txn = True
        return self._conn.execute(sql, params)

    def executemany(self, sql: str, rows: Sequence[Sequence]) -> None:
        if not rows:
            return
        if not self._in_txn:
            self._conn.execute("BEGIN")
            self._in_txn = True
        self._conn.executemany(sql, rows)

    def commit(self) -> None:
        """Write the ledger's unsaved rows, then commit the open transaction."""
        if self.ledger.unsaved:
            self.write_ledger(self.ledger, self.ledger.take_unsaved())
        if self._in_txn:
            self._conn.execute("COMMIT")
            self._in_txn = False
            if obs.enabled():
                obs.inc("sqlite_commits_total", 1,
                        help="Transactions committed by the SQLite store.")

    def rollback(self) -> None:
        """Abandon the open transaction (crash-simulation hooks in tests)."""
        if self._in_txn:
            self._conn.execute("ROLLBACK")
            self._in_txn = False

    def close(self) -> None:
        """Roll back an open transaction, close the connection and release
        the one-writer lock, if this store holds it (idempotent)."""
        self.rollback()
        self._conn.close()
        self._release()

    def _release(self) -> None:
        if self._unlock is not None:
            self._unlock()

    def clear(self) -> None:
        """Empty every table inside the open transaction.

        A snapshot rewrites the store whole; until :meth:`commit` the
        previous contents are what a reader (or a crash) sees.
        """
        for table in _TABLES:
            self.execute(f"DELETE FROM {table}")
        self._next_arrival = 0

    # --------------------------------------------------------- record table
    def add_record(self, record: Record) -> None:
        self.execute(
            "INSERT INTO records (record_id, attributes, source, arrival) "
            "VALUES (?, ?, ?, ?)",
            (
                record.record_id,
                json.dumps(dict(record.attributes)),
                record.source,
                self._next_arrival,
            ),
        )
        self._next_arrival += 1

    def remove_record(self, record_id: str) -> None:
        self.execute("DELETE FROM records WHERE record_id = ?", (record_id,))

    def iter_records(self) -> Iterator[Record]:
        """The stored records in arrival order (page-in)."""
        cursor = self._conn.execute(
            "SELECT record_id, attributes, source FROM records ORDER BY arrival"
        )
        for record_id, attributes, source in cursor:
            yield Record(
                record_id=record_id, attributes=json.loads(attributes), source=source
            )

    # -------------------------------------------------------------- metadata
    def set_meta(self, key: str, value: object) -> None:
        self.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, json.dumps(value)),
        )

    def get_meta(self, key: str, default: object = None) -> object:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else json.loads(row[0])

    # ------------------------------------------------------ the pair ledger
    def write_ledger(
        self, ledger: PairLedger, unsaved: Optional[AbstractSet[PairKey]] = None
    ) -> None:
        """Write a ledger's rows into ``ledger``: one ``DELETE`` of the keys
        it dropped, then one ``INSERT OR REPLACE`` of the full rows it holds.

        ``unsaved`` (:attr:`PairLedger.unsaved`) names the keys whose rows
        changed.  Without it, every pair goes into the table :meth:`clear`
        emptied.
        """
        pairs, votes, posteriors = ledger.pairs, ledger.votes, ledger.posteriors
        keys = pairs if unsaved is None else unsaved
        self._write_rows(
            "DELETE FROM ledger WHERE id_a = ? AND id_b = ?",
            [key for key in keys if key not in pairs],
        )
        self._write_rows(
            "INSERT OR REPLACE INTO ledger "
            "(id_a, id_b, likelihood, votes, posterior) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (
                    key[0],
                    key[1],
                    pairs[key],
                    json.dumps([[worker, bool(answer)] for worker, _, answer in votes[key]])
                    if key in votes else None,
                    float(posteriors[key]) if key in posteriors else None,
                )
                for key in keys
                if key in pairs
            ],
        )

    def _write_rows(self, sql: str, rows: List[Sequence]) -> None:
        """One ``executemany``, or no call at all for an empty change."""
        if rows:
            self.executemany(sql, rows)

    def load_ledger(self) -> None:
        """Page the ledger's rows into this store's ledger.

        One ``SELECT``.  The dicts are assigned directly, so nothing read is
        unsaved; the record → pairs index is rebuilt from the keys.
        """
        ledger = self.ledger
        ledger.touched = None
        ledger.pairs, ledger.votes, ledger.posteriors = {}, {}, {}
        for id_a, id_b, likelihood, votes, posterior in self._conn.execute(
            "SELECT id_a, id_b, likelihood, votes, posterior FROM ledger"
        ):
            key = (id_a, id_b)
            ledger.pairs[key] = likelihood
            if votes is not None:
                ledger.votes[key] = [
                    (worker, key, bool(answer)) for worker, answer in json.loads(votes)
                ]
            if posterior is not None:
                ledger.posteriors[key] = posterior
        ledger.reindex()
