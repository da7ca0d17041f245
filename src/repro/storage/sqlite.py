"""The SQLite storage backend: one WAL-mode file per streaming session.

:class:`SqliteStore` is the one file of a durable session.  Its state
tables — records, token vocabulary, CSR chunks, candidate pairs, the vote
ledger, posteriors, HIT coverage and the workload counters —
hold "the state as of ``meta.events_applied``"; its ``events`` table
(``seq``, ``type``, ``payload``, ``crc``) is the session's write-ahead log —
:class:`repro.streaming.persistence.SessionJournal` owns its rows, this
module only declares it.

A sqlite-backed session writes each event's changes into the state tables
inside that event's transaction: records, join rows and meta as they
change, and the pair ledger's changed keys — which a ledger this store holds
notes — once, when :meth:`SqliteStore.commit` closes the event
(:meth:`SqliteStore.write_ledger`).  A memory-backed session writes the
tables whole at its checkpoint cadence (:meth:`SqliteStore.clear` and the
same :meth:`SqliteStore.write_ledger` with every key, one transaction;
``events`` is not in ``_TABLES``, so a rewrite never touches the log).
:meth:`repro.streaming.StreamingResolver.restore` *pages in* the state
and replays ``events WHERE seq > meta.events_applied``.

Pragmas::

    journal_mode = WAL        -- crash-safe, readers never block the writer
    synchronous  = NORMAL     -- a plain store (``save(X)`` copy, detached read)
                 = FULL       -- set by ``SessionJournal`` when it attaches a log:
                                 every commit is fsynced, so a logged intent is
                                 on stable storage before it is applied
    foreign_keys = ON         -- no table declares one: the ledger writer deletes
                                 a dropped pair's rows from all four pair tables
    busy_timeout = 30000 ms   -- wait for locked databases

All writes between two :meth:`commit` calls form one transaction: the
session opens a transaction implicitly at the first write of an event and
commits after the event is fully applied — state rows, counters and the
event's outcome row together — so a crash mid-event rolls back to the
previous event boundary and the logged intent replays the interrupted
event.

Float fidelity: SQLite ``REAL`` is an IEEE-754 double, and JSON numbers
round-trip exactly through Python's ``repr``-based encoder, so posteriors,
likelihoods and costs come back bit-identical — the restored session's
:func:`repro.streaming.persistence.state_digest` matches the logged one.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.records.record import Record
from repro.storage.base import JoinRow, PairKey, PairLedger, Store, StorageError

#: Default store filename inside a checkpoint directory.
STORE_FILENAME = "store.sqlite"

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
CREATE INDEX IF NOT EXISTS records_arrival ON records(arrival);
CREATE TABLE IF NOT EXISTS tokens (
    token TEXT PRIMARY KEY,
    col   INTEGER NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS join_rows (
    row_no    INTEGER PRIMARY KEY,
    record_id TEXT NOT NULL,
    source    TEXT,
    empty     INTEGER NOT NULL DEFAULT 0,
    dead      INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS csr_chunks (
    chunk_no    INTEGER PRIMARY KEY AUTOINCREMENT,
    indices     BLOB NOT NULL,
    row_lengths BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS pairs (
    ord        INTEGER PRIMARY KEY AUTOINCREMENT,
    id_a       TEXT NOT NULL,
    id_b       TEXT NOT NULL,
    likelihood REAL,
    UNIQUE (id_a, id_b)
);
CREATE TABLE IF NOT EXISTS pair_votes (
    id_a    TEXT NOT NULL,
    id_b    TEXT NOT NULL,
    votes   TEXT NOT NULL,
    rounds  INTEGER NOT NULL,
    pending INTEGER NOT NULL,
    PRIMARY KEY (id_a, id_b)
);
CREATE TABLE IF NOT EXISTS posteriors (
    id_a      TEXT NOT NULL,
    id_b      TEXT NOT NULL,
    posterior REAL NOT NULL,
    PRIMARY KEY (id_a, id_b)
);
CREATE TABLE IF NOT EXISTS covered (
    id_a TEXT NOT NULL,
    id_b TEXT NOT NULL,
    PRIMARY KEY (id_a, id_b)
);
CREATE TABLE IF NOT EXISTS assignment_seconds (
    ord     INTEGER PRIMARY KEY AUTOINCREMENT,
    seconds REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY,
    type    TEXT NOT NULL,
    payload TEXT NOT NULL,
    crc     INTEGER NOT NULL
);
"""

#: The *state* tables: what ``clear()`` empties and a snapshot rewrites.
#: ``events`` (the log) is deliberately absent.
_TABLES = (
    "meta",
    "records",
    "tokens",
    "join_rows",
    "csr_chunks",
    "pairs",
    "pair_votes",
    "posteriors",
    "covered",
    "assignment_seconds",
)

#: Tables and meta keys an earlier release kept that this one neither reads
#: nor writes (``provenance``: a write-only per-pair history; ``metrics``:
#: a copy of the writing process's metrics registry, other sessions'
#: counts included).  Opening a store leaves them alone — reading one
#: (``repro stats``) or refusing to resume it must not cost its writer
#: anything; a session of this release that takes the store over drops
#: them (:meth:`SqliteStore.drop_retired`).
_RETIRED_TABLES = ("provenance",)
_RETIRED_META = ("metrics",)


def _blob(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<i8").tobytes()


def _unblob(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<i8").astype(np.int64)


class SqliteStore(Store):
    """Disk-backed session store over one WAL-mode SQLite file."""

    backend_name = "sqlite"
    persistent = True

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        except sqlite3.Error as error:  # pragma: no cover - bad path
            raise StorageError(f"cannot open sqlite store {self.path}: {error}")
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise StorageError(f"{self.path} is not a session store: {error}")
        self._in_txn = False
        # Resident id set: makes ``in store`` / ``len(store)`` O(1) without
        # holding any record content in memory.
        self._ids: Set[str] = {
            row[0] for row in self._conn.execute("SELECT record_id FROM records")
        }
        row = self._conn.execute("SELECT MAX(arrival) FROM records").fetchone()
        self._next_arrival = (row[0] + 1) if row and row[0] is not None else 0
        # Empty until :meth:`load_ledger`: opening a store to read its meta
        # (restore, ``repro stats``) must not page four tables in.
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
        self.rollback()
        self._conn.close()

    def clear(self) -> None:
        """Empty every table inside the open transaction.

        A snapshot rewrites the store whole; until :meth:`commit` the
        previous contents are what a reader (or a crash) sees.
        """
        for table in _TABLES:
            self.execute(f"DELETE FROM {table}")
        self._ids = set()
        self._next_arrival = 0

    def drop_retired(self) -> None:
        """Drop an earlier release's tables and meta rows inside the open
        transaction."""
        for table in _RETIRED_TABLES:
            self.execute(f"DROP TABLE IF EXISTS {table}")
        self.executemany("DELETE FROM meta WHERE key = ?", [(key,) for key in _RETIRED_META])

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
        self._ids.add(record.record_id)

    def remove_record(self, record_id: str) -> Optional[Record]:
        record = self.get_record(record_id)
        if record is None:
            return None
        self.execute("DELETE FROM records WHERE record_id = ?", (record_id,))
        self._ids.discard(record_id)
        return record

    def get_record(self, record_id: str) -> Optional[Record]:
        if record_id not in self._ids:
            return None
        row = self.execute(
            "SELECT attributes, source FROM records WHERE record_id = ?",
            (record_id,),
        ).fetchone()
        if row is None:  # pragma: no cover - id set and table disagree
            return None
        return Record(
            record_id=record_id, attributes=json.loads(row[0]), source=row[1]
        )

    def has_record(self, record_id: object) -> bool:
        return record_id in self._ids

    def record_count(self) -> int:
        return len(self._ids)

    def iter_records(self) -> Iterator[Record]:
        cursor = self._conn.execute(
            "SELECT record_id, attributes, source FROM records ORDER BY arrival"
        )
        for record_id, attributes, source in cursor:
            yield Record(
                record_id=record_id, attributes=json.loads(attributes), source=source
            )

    def record_ids(self) -> List[str]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT record_id FROM records ORDER BY arrival"
            )
        ]

    def record_at(self, index: int) -> Record:
        row = self._conn.execute(
            "SELECT record_id, attributes, source FROM records "
            "ORDER BY arrival LIMIT 1 OFFSET ?",
            (index,),
        ).fetchone()
        if row is None:
            raise IndexError(index)
        return Record(record_id=row[0], attributes=json.loads(row[1]), source=row[2])

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

    # ----------------------------------------------------------- join mirror
    def join_append_rows(self, rows: Sequence[JoinRow]) -> None:
        self.executemany(
            "INSERT INTO join_rows (row_no, record_id, source, empty, dead) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (row_no, record_id, source, int(empty), int(dead))
                for row_no, record_id, source, empty, dead in rows
            ],
        )

    def join_mark_dead(self, row_no: int) -> None:
        self.execute("UPDATE join_rows SET dead = 1 WHERE row_no = ?", (row_no,))

    def join_replace(
        self,
        rows: Sequence[JoinRow],
        indices: np.ndarray,
        row_lengths: np.ndarray,
    ) -> None:
        self.execute("DELETE FROM join_rows")
        self.execute("DELETE FROM csr_chunks")
        self.join_append_rows(rows)
        if len(row_lengths):
            self.append_csr_chunk(indices, row_lengths)

    def extend_vocabulary(self, items: Sequence[Tuple[str, int]]) -> None:
        self.executemany("INSERT INTO tokens (token, col) VALUES (?, ?)", items)

    def append_csr_chunk(self, indices: np.ndarray, row_lengths: np.ndarray) -> None:
        self.execute(
            "INSERT INTO csr_chunks (indices, row_lengths) VALUES (?, ?)",
            (_blob(np.asarray(indices)), _blob(np.asarray(row_lengths))),
        )

    def load_join_state(self) -> Optional[Dict[str, object]]:
        rows = [
            (row_no, record_id, source, bool(empty), bool(dead))
            for row_no, record_id, source, empty, dead in self._conn.execute(
                "SELECT row_no, record_id, source, empty, dead "
                "FROM join_rows ORDER BY row_no"
            )
        ]
        vocabulary = {
            token: col
            for token, col in self._conn.execute(
                "SELECT token, col FROM tokens ORDER BY col"
            )
        }
        chunks: List[np.ndarray] = []
        lengths: List[np.ndarray] = []
        for indices_blob, lengths_blob in self._conn.execute(
            "SELECT indices, row_lengths FROM csr_chunks ORDER BY chunk_no"
        ):
            chunks.append(_unblob(indices_blob))
            lengths.append(_unblob(lengths_blob))
        if not rows and not vocabulary and not chunks:
            return None
        indices = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        row_lengths = (
            np.concatenate(lengths) if lengths else np.empty(0, dtype=np.int64)
        )
        indptr = np.zeros(len(row_lengths) + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=indptr[1:])
        if len(rows) != len(row_lengths):
            raise StorageError(
                f"join substrate of {self.path} is inconsistent: "
                f"{len(rows)} rows vs {len(row_lengths)} CSR row lengths"
            )
        return {
            "rows": rows,
            "vocabulary": vocabulary,
            "indices": indices,
            "indptr": indptr.tolist(),
        }

    # ------------------------------------------------------- crowd workload
    def append_assignment_seconds(self, values: Sequence[float]) -> None:
        self.executemany(
            "INSERT INTO assignment_seconds (seconds) VALUES (?)",
            [(float(value),) for value in values],
        )

    def load_assignment_seconds(self) -> List[float]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT seconds FROM assignment_seconds ORDER BY ord"
            )
        ]

    # ------------------------------------------------------ the pair ledger
    def write_ledger(
        self, ledger: PairLedger, unsaved: Optional[Mapping[PairKey, bool]] = None
    ) -> None:
        """Write a ledger's rows into the pair tables, one ``executemany`` per
        table and kind of change.

        ``unsaved`` (:attr:`PairLedger.unsaved`) names the keys whose rows
        changed: each gets its current rows, a placed pair's ``pairs`` row
        goes to the end of the table, and a row the ledger no longer holds
        is deleted.  Without it, every row goes into tables :meth:`clear`
        emptied.  ``pair_votes.rounds`` is retired: always 1, never read.
        """
        pairs, votes, posteriors, covered = (
            ledger.pairs, ledger.votes, ledger.posteriors, ledger.covered
        )
        if unsaved is None:
            keys = placed = list(pairs)
        else:
            keys = list(unsaved)
            placed = [key for key, moved in unsaved.items() if moved and key in pairs]
            for table, held in (
                ("pairs", pairs), ("pair_votes", votes),
                ("posteriors", posteriors), ("covered", covered),
            ):
                self._write_rows(
                    f"DELETE FROM {table} WHERE id_a = ? AND id_b = ?",
                    [key for key in keys if key not in held],
                )
        # REPLACE deletes a re-placed pair's row and appends it with a new ord.
        self._write_rows(
            "INSERT OR REPLACE INTO pairs (id_a, id_b, likelihood) VALUES (?, ?, ?)",
            [(key[0], key[1], pairs[key]) for key in placed],
        )
        self._write_rows(
            "INSERT OR REPLACE INTO pair_votes (id_a, id_b, votes, rounds, pending) "
            "VALUES (?, ?, ?, 1, ?)",
            [
                (
                    key[0],
                    key[1],
                    json.dumps([[worker, bool(answer)] for worker, _, answer in votes[key]]),
                    ledger.pending_votes.get(key, 0),
                )
                for key in keys
                if key in votes
            ],
        )
        self._write_rows(
            "INSERT OR REPLACE INTO posteriors (id_a, id_b, posterior) VALUES (?, ?, ?)",
            [(key[0], key[1], float(posteriors[key])) for key in keys if key in posteriors],
        )
        self._write_rows(
            "INSERT OR IGNORE INTO covered (id_a, id_b) VALUES (?, ?)",
            [key for key in keys if key in covered],
        )

    def _write_rows(self, sql: str, rows: List[Sequence]) -> None:
        """One ``executemany``, or no call at all for an empty change."""
        if rows:
            self.executemany(sql, rows)

    def load_ledger(self, into: Optional[PairLedger] = None) -> None:
        """Page the pair tables into ``into`` (default: this store's ledger).

        The dicts are assigned directly, so nothing read is unsaved; the
        record → pairs index is rebuilt from ``pairs``.
        """
        ledger = self.ledger if into is None else into
        ledger.touched = None
        ledger.pairs = {
            (id_a, id_b): likelihood
            for id_a, id_b, likelihood in self._conn.execute(
                "SELECT id_a, id_b, likelihood FROM pairs ORDER BY ord"
            )
        }
        ledger.reindex()
        ledger.votes, ledger.pending_votes = {}, {}
        for id_a, id_b, votes_json, pending_count in self._conn.execute(
            "SELECT id_a, id_b, votes, pending FROM pair_votes"
        ):
            key = (id_a, id_b)
            ledger.votes[key] = [
                (worker, key, bool(answer)) for worker, answer in json.loads(votes_json)
            ]
            # A live session pops a pair's pending counter when it is
            # aggregated (its row stores 0), so only positive counters
            # come back as dict entries.
            if pending_count:
                ledger.pending_votes[key] = pending_count
        ledger.posteriors = {
            (id_a, id_b): posterior
            for id_a, id_b, posterior in self._conn.execute(
                "SELECT id_a, id_b, posterior FROM posteriors"
            )
        }
        ledger.covered = {
            (id_a, id_b)
            for id_a, id_b in self._conn.execute("SELECT id_a, id_b FROM covered")
        }
