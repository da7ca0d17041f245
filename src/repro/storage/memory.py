"""The in-memory storage backend (the default).

:class:`MemoryStore` *is* the record table — the ordered-list-plus-id-index
structure every unbacked :class:`~repro.records.record.RecordStore` uses —
plus a plain-dict :class:`~repro.storage.base.PairLedger` that notes no
unsaved keys; every write hook (join substrate, crowd workload) is the
interface's no-op, because the live objects are the state.  A durable memory-backed session is
materialised by :func:`repro.streaming.persistence.write_snapshot`, which
writes those live objects into the session's SQLite store in bulk.
"""

from __future__ import annotations

from repro.records.record import _InMemoryRecordTable
from repro.storage.base import PairLedger, Store


class MemoryStore(_InMemoryRecordTable, Store):
    """Process-memory backend: the record table itself, no-op writes."""

    backend_name = "memory"
    persistent = False

    def __init__(self) -> None:
        super().__init__()
        self.ledger = PairLedger()
