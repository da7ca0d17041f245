"""Streaming incremental entity resolution (the ``repro.streaming`` subsystem).

CrowdER resolves a table in one batch pass; this package keeps a resolution
session open while records keep arriving — and makes that session durable
and revisable:

* :class:`IncrementalSimJoin` — the machine pass against a resident
  token/CSR index; each batch joins new-vs-old plus new-vs-new only, and
  the union of deltas is exactly the full-store join.  Retracted records
  become tombstoned rows, physically dropped by periodic compaction.
* :class:`StreamingResolver` — the session: incremental union-find with
  dirty-component tracking, HIT regeneration restricted to dirty
  components, a per-pair vote ledger, cached posteriors for clean
  components, and delta-aware :class:`~repro.core.results.ResolutionResult`
  snapshots.  The ledger indexes every candidate pair by its two records,
  which makes ``retract(record_id)`` and ``update(record)`` precise:
  exactly the record's pairs and the components they connect are
  invalidated and re-resolved, nothing else.
* :mod:`repro.streaming.persistence` — durability, all of it: one SQLite
  file holding the session's state and a write-ahead log of every session
  event, giving ``StreamingResolver.save()`` /
  ``StreamingResolver.restore()`` with a bit-identical crash-recovery
  guarantee (crash after any prefix of events, page the state in, replay
  the logged tail — same matches, posteriors and ranked pairs as a session
  that never stopped).
* :func:`resolve_stream` — replay a dataset through a session in arrival
  batches (what the ``resolve-stream`` CLI command runs).

Session lifecycle::

    from repro.streaming import StreamingResolver

    config = WorkflowConfig(likelihood_threshold=0.35,
                            checkpoint_dir="/var/lib/er-session")
    session = StreamingResolver(config)
    session.add_truth(known_matches)          # feeds the simulated crowd
    snap = session.add_batch(first_records)   # join + crowd + aggregate
    snap = session.add_batch(more_records)    # only dirty components redo work
    snap = session.retract("r42")             # invalidate r42's pairs only
    # ... process dies; later, in a fresh process:
    session = StreamingResolver.restore("/var/lib/er-session")
    snap = session.add_batch(next_records)    # continues bit-identically

Dirty-component semantics: a component is dirty for a batch if it gained a
record or a candidate pair (including via merges); only dirty components
have HITs regenerated and votes collected for their never-voted pairs, and
with component-scoped aggregation every clean component's
posteriors are preserved bit-for-bit across the batch.
"""

from repro.storage.base import StoreInUse
from repro.streaming.incremental_join import IncrementalSimJoin
from repro.streaming.persistence import (
    JournalCorruptionError,
    PersistenceError,
    SessionJournal,
)
from repro.streaming.session import StreamingResolver, resolve_stream

__all__ = [
    "IncrementalSimJoin",
    "JournalCorruptionError",
    "PersistenceError",
    "SessionJournal",
    "StoreInUse",
    "StreamingResolver",
    "resolve_stream",
]
