"""Session storage (the ``repro.storage`` subsystem).

A streaming entity-resolution session accumulates a lot of state —
records, the token vocabulary and CSR index of the machine pass, candidate
pairs, the vote ledger and posteriors.  All of it lives in process memory
and the session reads nothing else; a :class:`~repro.storage.base.Store`
holds the :class:`PairLedger` and receives the session's writes — of
everything but the machine pass's index, which is derived from the
records:

* :class:`Store` — the in-memory session's: every write is a no-op.
* :class:`SqliteStore` — a durable session's: a single WAL-mode SQLite
  file, written once per applied event (the pair ledger's changed rows
  when the event commits).

The SQLite file is the one on-disk form of a session —
``checkpoint_dir/store.sqlite``, holding both the state tables and the
``events`` table that is the session's write-ahead log, which holds no
more than the one intent a crash interrupted: each event deletes its
intent in the commit that applies it.  Restoring is a page-in of the state
(the join re-indexes the records) plus a replay of that tail
(:mod:`repro.streaming.persistence`).  A store has one writer at a time:
the session or ``save`` that opened it holds an exclusive lock on its
directory, and a second opener gets :class:`StoreInUse`.
"""

from __future__ import annotations

from repro.storage.base import PairLedger, StorageError, Store, StoreInUse
from repro.storage.sqlite import STORE_FILENAME, SqliteStore

__all__ = [
    "PairLedger",
    "STORE_FILENAME",
    "SqliteStore",
    "StorageError",
    "Store",
    "StoreInUse",
]
