"""Pluggable session storage (the ``repro.storage`` subsystem).

A streaming entity-resolution session accumulates a lot of state —
records, the token vocabulary and CSR index of the machine pass, candidate
pairs, the vote ledger and posteriors.  This package puts all
of it behind one :class:`~repro.storage.base.Store` interface with two
backends:

* :class:`MemoryStore` — the default; the live in-process structures.
  A durable session writes them into its :class:`SqliteStore` file whole,
  at its checkpoint cadence.
* :class:`SqliteStore` — a single WAL-mode SQLite file holding the whole
  session, written once per applied event (the pair ledger's changed rows
  when the event commits); record bodies stay out of process memory while
  the session runs.

The SQLite file is the one on-disk form of a session either way —
``checkpoint_dir/store.sqlite``, holding both the state tables and the
``events`` table that is the session's write-ahead log: restoring is a
page-in of the state plus a replay of the events newer than
``meta.events_applied`` (:mod:`repro.streaming.persistence`).

Select a backend with ``WorkflowConfig.storage_backend`` (CLI:
``--storage-backend``).
"""

from __future__ import annotations

from repro.storage.base import PairLedger, StorageError, Store
from repro.storage.memory import MemoryStore
from repro.storage.sqlite import STORE_FILENAME, SqliteStore

__all__ = [
    "MemoryStore",
    "PairLedger",
    "STORE_FILENAME",
    "SqliteStore",
    "StorageError",
    "Store",
]
