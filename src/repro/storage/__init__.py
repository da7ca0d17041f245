"""Pluggable session storage (the ``repro.storage`` subsystem).

A streaming entity-resolution session accumulates a lot of state —
records, the token vocabulary and CSR index of the machine pass, candidate
pairs, the vote ledger, posteriors and provenance.  This package puts all
of it behind one :class:`~repro.storage.base.Store` interface with two
backends:

* :class:`MemoryStore` — the default; the live in-process structures.
  A durable session writes them into its :class:`SqliteStore` file whole,
  at its checkpoint cadence.
* :class:`SqliteStore` — a single WAL-mode SQLite file holding the whole
  session, mirrored per mutation and committed once per applied event;
  record bodies stay out of process memory while the session runs.

The SQLite file is the one on-disk form of a session either way —
``checkpoint_dir/store.sqlite``, holding both the state tables and the
``events`` table that is the session's write-ahead log: restoring is a
page-in of the state plus a replay of the events newer than
``meta.events_applied`` (:mod:`repro.streaming.persistence`).

Select a backend with ``WorkflowConfig.storage_backend`` (CLI:
``--storage-backend``), or build one directly with :func:`open_store`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.storage.base import PairLedger, StorageError, Store
from repro.storage.memory import MemoryStore
from repro.storage.sqlite import STORE_FILENAME, SqliteStore

#: Backend names accepted by ``WorkflowConfig.storage_backend``.
BACKENDS = ("memory", "sqlite")


def open_store(backend: str, path: Optional[os.PathLike] = None) -> Store:
    """Open a storage backend by name.

    ``path`` is required (and only meaningful) for the ``"sqlite"``
    backend: the store file to create or reopen.
    """
    if backend == "memory":
        return MemoryStore()
    if backend == "sqlite":
        if path is None:
            raise StorageError(
                "the sqlite backend needs a store path (set checkpoint_dir)"
            )
        return SqliteStore(path)
    raise StorageError(f"unknown storage backend {backend!r}; expected {BACKENDS}")


__all__ = [
    "BACKENDS",
    "MemoryStore",
    "PairLedger",
    "STORE_FILENAME",
    "SqliteStore",
    "StorageError",
    "Store",
    "open_store",
]
