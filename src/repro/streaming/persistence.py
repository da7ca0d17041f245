"""Durable streaming sessions: one file, one log, one restore.

A crowdsourced resolution session is long-lived — votes arrive over hours
and cost real money — so :class:`repro.streaming.StreamingResolver` can be
made *durable*: point ``WorkflowConfig.checkpoint_dir`` at a directory.
The session class itself does no I/O; everything that knows a filename, an
event schema, a store meta key or a replay order lives here.

Directory layout::

    checkpoint_dir/
        store.sqlite             the session: its event log and its state
        store.sqlite-wal/-shm    SQLite's own write-ahead log while a connection is open

**The model.**  ``store.sqlite`` (:class:`repro.storage.sqlite.SqliteStore`)
is the only file of a session.  Its ``events`` table is the write-ahead
log; its state tables are *the state as of ``meta.events_applied``; the
log holds the rest*.  ``WorkflowConfig.storage_backend`` decides only
**when** the state tables are written: ``"sqlite"`` writes each event's
changed rows into them in the event's one transaction (the pair ledger's
when the event commits); ``"memory"`` keeps the state in process
structures and :func:`write_snapshot` bulk-writes it — inside one
transaction, so a failure half-way leaves the previous contents — every
``checkpoint_every_batches`` events and on ``save()``.  Because the file is
the same either way, :func:`restore` is one algorithm — open the file,
page the state in, replay ``events WHERE seq > meta.events_applied`` under
the stored configuration, and keep logging to the same file.

**The log.**  Each ``events`` row carries a gapless ``seq``, an event
``type``, a JSON ``payload`` and a CRC over all three
(:class:`SessionJournal`).  *Intent* events (``session``, ``truth``,
``batch``, ``retract``, ``update``, ``flush`` — the :data:`EVENTS` table
maps each to its payload codec) are committed — fsynced: a logged
connection runs ``synchronous=FULL`` — **before** the state change they
describe is applied (the write-ahead rule); *outcome* events (``commit``)
record the fresh crowd votes, the delta and a digest of the aggregated
state, in the **same transaction** as the event's state rows and
``meta.events_applied`` — so "the store says event N is applied" and "the
log holds outcome N" are one atomic fact, and the log is both redo log and
audit trail of every vote the session paid for.  Events are never deleted;
reading the tail is a primary-key range scan.  A write torn by a crash is
SQLite's to discard (WAL frame checksums); a CRC mismatch, a sequence gap
or a replay that diverges from its outcome raises
:class:`JournalCorruptionError`.

**One event, one path.**  :meth:`Durability.run` is the only place an event
is executed — *intent → apply → boundary* — for the session's five public
event methods; :func:`replay` drives the same appliers from logged payloads.

**Recovery guarantee.**  Because intent events are durable before they are
applied and every apply is deterministic (per-pair vote mode), a crash
after *any* prefix of events loses nothing: ``restore`` rebuilds exactly
the state of a session that processed that prefix, and replaying the
remaining events yields results bit-identical to a session that never
stopped.  ``tests/test_persistence.py`` and ``tests/test_storage.py``
property-test this for random event schedules, crash points (logical, torn
WAL, ``SIGKILL``) and backends.
"""

from __future__ import annotations

import json
import logging
import os
import time
import zlib
from dataclasses import asdict, dataclass, fields
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.config import WorkflowConfig
from repro.core.results import StreamingDelta
from repro.records.record import Record
from repro.storage import STORE_FILENAME, MemoryStore, SqliteStore, Store
from repro.streaming.incremental_join import IncrementalSimJoin

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

#: Fields a stored configuration (the log's ``session`` event or store
#: meta) written by an earlier release may still carry, each mapped to the
#: one stored value that still replays (``None``: any value).  The knobs
#: are gone — one selected a fork-per-batch join pool, one moved the store
#: out of its directory, one rotated a JSONL journal that no longer exists,
#: two switched the process's observability on from a session, and five
#: were result-bearing knobs only ever used at one value (bounded-staleness
#: aggregation, re-crowding voted pairs, the two-tiered generator's packing
#: solver, the match threshold, the async retry backoff) — so restore
#: drops them instead of failing on an unknown field.  A
#: result-bearing one stored at any other value than its old default
#: cannot replay bit-identically, and restore refuses it.
RETIRED_CONFIG_FIELDS = {
    "join_pool": None,
    "storage_path": None,
    "journal_segment_events": None,
    "metrics_enabled": None,
    "trace_path": None,
    "staleness_epsilon": 0,
    "recrowd_policy": "never",
    "packing_method": "column-generation",
    "decision_threshold": 0.5,
    "crowd_backoff_ticks": 2,
}

#: ``join_backend`` values an earlier release accepted for batch engines
#: that are now all the one kernel.  The field is operational and a session
#: never consulted it, so restore reads them as ``"auto"``.
RETIRED_JOIN_BACKENDS = ("prefix", "vectorized", "parallel")


class PersistenceError(RuntimeError):
    """Raised for invalid checkpoint directories or replay failures."""


class JournalCorruptionError(PersistenceError):
    """Raised when the journal is corrupt beyond a crash-truncated tail."""


# ---------------------------------------------------------------- encoding
def encode_record(record: Record) -> Dict[str, object]:
    """JSON-safe encoding of a :class:`~repro.records.record.Record`."""
    return {
        "record_id": record.record_id,
        "attributes": dict(record.attributes),
        "source": record.source,
    }


def decode_record(payload: Dict[str, object]) -> Record:
    """Inverse of :func:`encode_record`."""
    return Record(
        record_id=payload["record_id"],  # type: ignore[arg-type]
        attributes=payload["attributes"],  # type: ignore[arg-type]
        source=payload["source"],  # type: ignore[arg-type]
    )


def encode_votes(votes: Sequence[Tuple[str, Tuple[str, str], bool]]) -> List[list]:
    """JSON-safe encoding of ``(worker_id, pair_key, answer)`` votes."""
    return [[worker, [key[0], key[1]], bool(answer)] for worker, key, answer in votes]


def decode_votes(payload: Sequence[list]) -> List[Tuple[str, Tuple[str, str], bool]]:
    """Inverse of :func:`encode_votes`."""
    return [(worker, (key[0], key[1]), bool(answer)) for worker, key, answer in payload]


def _entry_crc(seq: int, event_type: str, payload_text: str) -> int:
    return zlib.crc32(f"{seq}|{event_type}|{payload_text}".encode("utf-8"))


def state_digest(posteriors: Dict[Tuple[str, str], float], cost: float, hit_count: int) -> str:
    """Cheap, exact digest of a session's aggregated state.

    Floats are hashed through ``float.hex`` so the digest is sensitive to
    the last bit — the recovery property is *bit*-identity, not closeness.
    """
    hasher = sha256()
    for key in sorted(posteriors):
        hasher.update(f"{key[0]}|{key[1]}|{posteriors[key].hex()};".encode("utf-8"))
    hasher.update(f"cost={cost.hex()};hits={hit_count}".encode("utf-8"))
    return hasher.hexdigest()


# ----------------------------------------------------------------- the log
@dataclass
class JournalEvent:
    """One verified row of the event log."""

    seq: int
    type: str
    payload: Dict[str, object]


class SessionJournal:
    """The session's write-ahead log: the ``events`` table of its store.

    Attaching a log switches the store's connection to
    ``synchronous=FULL`` — here, not through a config field — so every
    commit, an :meth:`append` in particular, is on stable storage when it
    returns.  The log is single-writer and append-only; rows are never
    updated or deleted.
    """

    def __init__(self, store: SqliteStore) -> None:
        self.store = store
        store.query("PRAGMA synchronous=FULL")
        last = store.query("SELECT MAX(seq) FROM events").fetchone()[0] or 0
        # A store-only copy (``save(X)``) holds state but no events: its
        # log starts right after what the state covers.
        self.next_seq = max(last, int(store.get_meta("events_applied", 0))) + 1

    def append(self, event_type: str, payload: Dict[str, object]) -> int:
        """Append one event and commit; returns its sequence number.

        The commit is fsynced (``synchronous=FULL``) before the call
        returns — the write-ahead rule: an intent that was appended is on
        stable storage before the event is applied.  Whatever the store's
        open transaction holds (an event's state rows — the pair ledger's
        written by that commit — and counters) commits atomically with the
        row.
        """
        seq = self.next_seq
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        started = time.perf_counter()
        self.store.execute(
            "INSERT INTO events (seq, type, payload, crc) VALUES (?, ?, ?, ?)",
            (seq, event_type, text, _entry_crc(seq, event_type, text)),
        )
        self.store.commit()
        self.next_seq = seq + 1
        if obs.enabled():
            obs.inc("journal_appends_total", 1, type=event_type,
                    help="Events appended to the write-ahead log.")
            obs.inc("journal_bytes_written_total", len(text.encode("utf-8")),
                    help="Payload bytes appended to the write-ahead log.")
            obs.inc("journal_fsyncs_total", 1,
                    help="Fsynced commits issued by log appends.")
            obs.observe("journal_append_seconds", time.perf_counter() - started,
                        help="Wall time of one log append (insert + commit).")
        return seq

    def events(self, after: int = 0) -> List[JournalEvent]:
        """The events with ``seq > after``, in order, each one verified.

        A row whose CRC does not match its contents, or a sequence that
        does not continue gaplessly from ``after``, raises
        :class:`JournalCorruptionError` naming the ``seq``.
        """
        events: List[JournalEvent] = []
        for seq, event_type, text, crc in self.store.query(
            "SELECT seq, type, payload, crc FROM events WHERE seq > ? ORDER BY seq",
            (after,),
        ):
            expected = after + len(events) + 1
            if seq != expected:
                raise JournalCorruptionError(
                    f"the event log continues at sequence {seq}, expected {expected}"
                )
            if crc != _entry_crc(seq, event_type, text):
                raise JournalCorruptionError(f"event {seq} fails its checksum")
            events.append(JournalEvent(seq, event_type, json.loads(text)))
        return events


# --------------------------------------------------------- the event table
@dataclass(frozen=True)
class EventSpec:
    """How one kind of session event crosses the log.

    ``encode`` turns the arguments the session's applier takes into the
    intent payload, ``decode`` is its inverse; ``outcome`` says whether the
    applied event is followed by a ``commit`` record (fresh votes, delta,
    digest) and counts toward the checkpoint cadence.
    """

    encode: Callable[..., Dict[str, object]]
    decode: Callable[[Dict[str, object]], tuple]
    outcome: bool = True


def _encode_batch(records, truth) -> Dict[str, object]:
    payload: Dict[str, object] = {"records": [encode_record(record) for record in records]}
    if truth is not None:
        payload["truth"] = [list(pair) for pair in truth]
    return payload


def _decode_batch(payload) -> tuple:
    truth = payload.get("truth")
    return (
        [decode_record(entry) for entry in payload["records"]],
        [tuple(pair) for pair in truth] if truth is not None else None,
    )


#: Every event a session can apply, by logged type.  The name is also the
#: session's applier (``StreamingResolver.apply(name, *arguments)``), so a
#: live event and a replayed one run the same code.
EVENTS: Dict[str, EventSpec] = {
    "truth": EventSpec(
        lambda pairs: {"pairs": [list(pair) for pair in pairs]},
        lambda payload: ([tuple(pair) for pair in payload["pairs"]],),
        outcome=False,
    ),
    "batch": EventSpec(_encode_batch, _decode_batch),
    "retract": EventSpec(
        lambda record_id: {"record_id": record_id},
        lambda payload: (payload["record_id"],),
    ),
    "update": EventSpec(
        lambda record: {"record": encode_record(record)},
        lambda payload: (decode_record(payload["record"]),),
    ),
    "flush": EventSpec(lambda: {}, lambda payload: ()),
}


# ------------------------------------------------------------- store meta
def config_payload(config: WorkflowConfig) -> Dict[str, object]:
    """JSON-safe form of a configuration (log header and store meta)."""
    payload = asdict(config)
    if payload.get("similarity_attributes") is not None:
        payload["similarity_attributes"] = list(payload["similarity_attributes"])
    return payload


def _header(config: WorkflowConfig, cross_sources) -> Dict[str, object]:
    """What identifies a session: format, configuration, source restriction.

    The payload of the log's ``session`` event and, key by key, store meta.
    """
    return {
        "version": FORMAT_VERSION,
        "config": config_payload(config),
        "cross_sources": list(cross_sources) if cross_sources else None,
    }


def _write_header(store: Store, session) -> None:
    for key, value in _header(session.config, session.cross_sources).items():
        store.set_meta(key, value)


def _write_truth(store: Store, session) -> None:
    store.set_meta("truth", sorted(list(pair) for pair in session._truth))


#: The stored key order of the ``session`` meta value.
_SESSION_META_KEYS = (
    "hit_count", "cost", "batch_index", "pairs_per_hit_seen", "generator_name", "last_delta",
)


def _write_counters(store: Store, session) -> None:
    """The crowd driver's state, the session's event counters, the log position."""
    crowd = session.driver.state_dict()
    counters = {
        **crowd["session"],
        "batch_index": session._batch_index,
        "last_delta": session._last_delta.as_dict(),
    }
    store.set_meta("session", {key: counters[key] for key in _SESSION_META_KEYS})
    store.set_meta("async", crowd["async"])
    store.set_meta("events_applied", session.durability.events_applied)


def write_snapshot(target: SqliteStore, session) -> None:
    """Rewrite ``target``'s state tables from a live session, whole.

    Everything but the ``events`` table — records, join substrate, pair
    ledger, crowd workload, meta — is rewritten inside
    ``target``'s **open transaction**; the caller commits (a cadence point
    does, together with the event's outcome row).  An exception in here
    rolls the transaction back, so the file keeps its previous contents,
    which together with the log still restore exactly.  This is how a
    memory-backed session's state reaches disk, and how ``save(X)`` copies
    a session of either backend into a foreign directory.
    """
    try:
        target.clear()
        for record in session.store:
            target.add_record(record)
        session.join.write_to(target)
        target.write_ledger(session.storage.ledger)
        target.append_assignment_seconds(session.driver.state_dict()["assignment_seconds"])
        _write_header(target, session)
        _write_truth(target, session)
        _write_counters(target, session)
    except BaseException:
        target.rollback()
        raise
    if obs.enabled():
        obs.inc("snapshot_writes_total", 1,
                help="Whole-session materialisations written to the store.")
        pages, = target.query("PRAGMA page_count").fetchone()
        page_size, = target.query("PRAGMA page_size").fetchone()
        obs.inc("snapshot_bytes_written_total", pages * page_size,
                help="Store size after each whole-session materialisation.")


# ------------------------------------------------------- durability adaptor
def _refuse_legacy_journal(directory: Path) -> None:
    """Name an earlier release's JSONL journal (existence check, never opened)."""
    legacy = sorted(directory.glob("journal*.jsonl"))
    if legacy:
        raise PersistenceError(
            f"{directory} holds {legacy[0].name}, written by an earlier release "
            "whose JSONL journal is no longer read; restore the session with the "
            "release that wrote it and save(X) it — a store-only copy this "
            "release reads"
        )


class Durability:
    """The durable side of one session: its store, its log, its cadence.

    A session owns exactly one of these and calls :meth:`run` for every
    event and :meth:`save` on demand; it never sees a file.  ``journal`` is
    ``None`` for a session without a checkpoint directory, and a
    non-persistent ``storage`` makes its writes no-ops, so the default
    in-memory session pays two attribute checks per event.  A durable
    session holds one SQLite connection — ``journal.store``, which for the
    sqlite backend is also ``storage`` — until :meth:`close`.
    """

    def __init__(self, storage: Store) -> None:
        self.storage = storage
        self.journal: Optional[SessionJournal] = None
        #: Logged events reflected in the session's current state.
        self.events_applied = 0
        self._unsaved_events = 0
        self._truth_written = 0

    @classmethod
    def create(
        cls, config: WorkflowConfig, cross_sources: Optional[Sequence[str]]
    ) -> "Durability":
        """Open the store and log of a *fresh* session.

        Refuses a directory that already holds one: the check is whether
        the store file exists, nothing is read.
        """
        if not config.checkpoint_dir:
            return cls(MemoryStore())
        directory = Path(config.checkpoint_dir)
        _refuse_legacy_journal(directory)
        path = directory / STORE_FILENAME
        if path.exists():
            raise PersistenceError(
                f"{path} already holds a session; "
                "use StreamingResolver.restore() to resume it"
            )
        store = SqliteStore(path)
        durability = cls(store if config.storage_backend == "sqlite" else MemoryStore())
        durability.journal = SessionJournal(store)
        durability.events_applied = durability.journal.append(
            "session", _header(config, cross_sources)
        )
        return durability

    def attach(self, session) -> None:
        """Stamp the session's identity into a persistent store and commit:
        the last step of constructing a session and of restoring one (whose
        directory may have moved since its header was written)."""
        if self.storage.persistent:
            _write_header(self.storage, session)
            self.boundary(session)

    @property
    def store(self) -> Optional[SqliteStore]:
        """The session's one file — where its log, else its mirror, lives."""
        if self.journal is not None:
            return self.journal.store
        return self.storage if self.storage.persistent else None

    def close(self) -> None:
        """Close the session's SQLite connection, if it holds one (idempotent).

        The last connection to close folds SQLite's WAL into the store file.
        """
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------- one event
    def intent(self, kind: str, *arguments) -> None:
        """Write-ahead rule: the intent is durable before state is touched."""
        if self.journal is not None:
            self.events_applied = self.journal.append(
                kind, EVENTS[kind].encode(*arguments)
            )

    def run(self, session, kind: str, *arguments):
        """Execute one validated event: the only path an event takes.

        *intent → apply → boundary.*  A crash before the boundary's commit
        rolls a persistent store back to the previous event and the logged
        intent replays the interrupted one.
        """
        self.intent(kind, *arguments)
        result = session.apply(kind, *arguments)
        self.boundary(session, outcome=EVENTS[kind].outcome)
        return result

    def boundary(self, session, outcome: bool = False) -> None:
        """Close an event: state rows, counters and outcome in one commit.

        Everything a persistent store wrote since the last boundary, the
        pair ledger's unsaved rows (written by the commit itself),
        ``meta.events_applied`` and — for a logged event with an
        ``outcome`` — its ``commit`` row (fresh votes, delta, digest) form
        one transaction, so the store is never ahead of its log nor behind
        an outcome it holds.  A memory-backed session writes nothing per
        event; at its checkpoint cadence the whole-state rewrite rides along
        instead.
        """
        journal, storage = self.journal, self.storage
        outcome = outcome and journal is not None
        every = session.config.checkpoint_every_batches
        if outcome:
            self.events_applied = journal.next_seq  # the row this commit carries
            self._unsaved_events += 1
        if storage.persistent:
            if len(session._truth) != self._truth_written:  # truth only grows
                _write_truth(storage, session)
                self._truth_written = len(session._truth)
            _write_counters(storage, session)
        elif outcome and 0 < every <= self._unsaved_events:
            write_snapshot(journal.store, session)
            self._unsaved_events = 0
        if outcome:
            journal.append(
                "commit",
                {
                    "delta": session._last_delta.as_dict(),
                    "votes": [
                        [key[0], key[1], encode_votes(votes)]
                        for key, votes in sorted(session._last_fresh_votes.items())
                    ],
                    "digest": session.state_digest(),
                },
            )
        else:
            storage.commit()

    # ------------------------------------------------------------------ save
    def save(self, session, path: Optional[os.PathLike] = None) -> Path:
        """Bring ``path``'s store up to the session's state.

        ``path`` defaults to the checkpoint directory.  Asked for its own
        location, a sqlite-backed session only closes a boundary (the
        store is current) and a memory-backed one rewrites the state
        tables on the log's connection; either backend saving elsewhere
        writes a store-only copy (state, no events).  Returns the file.
        """
        own = self.store
        if path is not None:
            target = Path(path) / STORE_FILENAME
        elif own is not None:
            target = own.path
        else:
            raise PersistenceError(
                "save() needs a path (or config.checkpoint_dir to be set)"
            )
        if own is None or target.resolve() != own.path.resolve():
            copy = SqliteStore(target)
            try:
                write_snapshot(copy, session)
                copy.commit()
            finally:
                copy.close()
        elif self.storage.persistent:
            self.boundary(session)
        else:
            write_snapshot(own, session)
            own.commit()
            self._unsaved_events = 0
        return target


# ----------------------------------------------------------------- restore
_DELTA_FIELDS = frozenset(spec.name for spec in fields(StreamingDelta))


def _page_in(session, source: SqliteStore) -> None:
    """Rebuild the session's live structures from a store's contents.

    ``source`` is the session's own store (sqlite backend: records and the
    ledger stay where they are) or the directory's store being copied into
    a memory-backed session.  The join substrate comes back from its stored
    rows/vocabulary/CSR chunks, the candidate pairs (and the ledger's record
    → pairs index) from the pair tables, and the union-find forest — filled in place, the fresh
    session's aggregation schedule shares it — from record arrival order
    plus the pair edges (roots only serve as grouping keys, so the rebuilt
    forest is behaviorally equivalent to the original).
    """
    storage, config = session.storage, session.config
    with obs.span("storage.page_in"):
        if storage is not source:
            for record in source.iter_records():
                storage.add_record(record)
        source.load_ledger(into=storage.ledger)
        session._apply_truth(source.get_meta("truth") or [])
        session.join = IncrementalSimJoin.from_store(
            source,
            threshold=config.likelihood_threshold,
            attributes=config.similarity_attributes,
            cross_sources=session.cross_sources,
            workers=config.join_workers or None,
            storage=storage,
        )
        for record_id in storage.record_ids():
            session.components.add(record_id)
        for key in sorted(storage.ledger.pairs):
            session.components.union(key[0], key[1])
        session.components.clear_dirty()
    counters = source.get_meta("session") or {}
    session.driver.load_state_dict({
        "session": counters,
        "async": source.get_meta("async"),
        "assignment_seconds": source.load_assignment_seconds(),
    })
    session._batch_index = int(counters.get("batch_index", 0))
    # A counter an earlier release stored (bounded staleness's, always 0
    # at its default) is dropped; commit rows' deltas are never read back.
    session._last_delta = StreamingDelta(**{
        name: value
        for name, value in counters.get("last_delta", {}).items()
        if name in _DELTA_FIELDS
    })
    session._last_fresh_votes = {}
    session.durability.events_applied = int(source.get_meta("events_applied", 0))


def replay(session, events: Sequence[JournalEvent]) -> None:
    """Apply the logged events the session has not seen yet, in order.

    Crowd votes are re-derived through the deterministic per-pair oracle,
    and every replayed event is checked against its logged ``commit``
    record — vote-for-vote and digest-for-digest — so silent divergence
    raises :class:`JournalCorruptionError` instead of propagating.  The
    events must continue exactly where the session's state ends; a gap
    raises :class:`PersistenceError`.
    """
    durability = session.durability
    pending = [event for event in events if event.seq > durability.events_applied]
    if pending and pending[0].seq != durability.events_applied + 1:
        raise PersistenceError(
            f"the event log resumes at event {pending[0].seq} but the stored state "
            f"ends at event {durability.events_applied}"
        )
    with obs.span(
        "streaming.restore", events=len(events), applied=durability.events_applied
    ):
        for event in pending:
            if event.type == "commit":
                _verify_outcome(session, event)
                session._last_fresh_votes = {}
            elif event.type in EVENTS:
                session.apply(event.type, *EVENTS[event.type].decode(event.payload))
            elif event.type != "session":
                raise JournalCorruptionError(
                    f"unknown event type {event.type!r} at sequence {event.seq}"
                )
            durability.events_applied = event.seq


def _verify_outcome(session, event: JournalEvent) -> None:
    # A stored state always ends on an event boundary (its outcome commits
    # with it), so the outcome being verified is of an event replayed here.
    recorded = {
        (entry[0], entry[1]): decode_votes(entry[2])
        for entry in event.payload["votes"]
    }
    if recorded != session._last_fresh_votes:
        raise JournalCorruptionError(
            f"votes replayed for event {event.seq} differ from the logged ones"
        )
    if event.payload["digest"] != session.state_digest():
        raise JournalCorruptionError(
            f"state digest after event {event.seq} differs from the logged one"
        )


def restore(cls, path: os.PathLike, **crowd):
    """Resume the durable session (an instance of ``cls``) in its directory.

    One algorithm for every backend: open the directory's one file, read
    the header from its meta (a session that never wrote its state tables
    has it in event 1), run under the stored configuration — its
    ``checkpoint_dir`` is wherever the directory is now — page the state
    in, and :func:`replay` the events newer than ``meta.events_applied``,
    each checked against its logged outcome.  The restored session is
    bit-identical to one that processed the same events without stopping,
    and takes the directory over: it keeps logging to the same file.
    ``crowd`` (``platform``, ``worker_pool``, ``pricing``, ``latency``) is
    passed to the session.
    """
    directory = Path(path)
    _refuse_legacy_journal(directory)
    store_path = directory / STORE_FILENAME
    if not store_path.exists():
        legacy = sorted(item.name for item in directory.glob("snapshot-*.pkl"))
        raise PersistenceError(
            f"{directory} holds no session store"
            + (f"; {legacy[-1]} was written by an earlier release, whose "
               "snapshot files are no longer read" if legacy else "")
        )
    source = SqliteStore(store_path)
    try:
        journal = SessionJournal(source)
        materialised = source.get_meta("version") is not None
        events = journal.events(after=int(source.get_meta("events_applied", 0)))
        if materialised:
            header = {key: source.get_meta(key) for key in _header(WorkflowConfig(), None)}
        elif events and events[0].type == "session":
            header = events[0].payload
        else:
            raise PersistenceError(f"{store_path} holds no session")
        if header["version"] > FORMAT_VERSION:
            raise PersistenceError(
                f"{store_path} was written in store format {header['version']}; "
                f"this release reads format {FORMAT_VERSION} and older"
            )
        _refuse_retired_result_knobs(header["config"], store_path)
        stored = {
            name: value
            for name, value in header["config"].items()
            if name not in RETIRED_CONFIG_FIELDS
        }
        if stored.get("join_backend") in RETIRED_JOIN_BACKENDS:
            stored["join_backend"] = "auto"
        config = WorkflowConfig(**{**stored, "checkpoint_dir": str(directory)})
        mirrored = config.storage_backend == "sqlite"
        durability = Durability(source if mirrored else MemoryStore())
        durability.journal = journal
        cross_sources = header["cross_sources"]
        session = cls(
            config=config,
            cross_sources=tuple(cross_sources) if cross_sources else None,
            _durability=durability,
            **crowd,
        )
        if materialised:
            _page_in(session, source)
        replay(session, events)
    except BaseException:
        source.close()
        raise
    logger.info("restored session from %s at event %d", directory, session.events_applied)
    # Accepted, and the session goes on writing this file: shed what an
    # earlier release kept.  A sqlite-backed session's drop commits with
    # the attach boundary (after the replayed state, never ahead of it).
    source.drop_retired()
    durability.attach(session)
    source.commit()
    return session


def _refuse_retired_result_knobs(stored: Dict[str, object], store_path: Path) -> None:
    """Refuse a stored header whose retired result-bearing knob was in use."""
    for name, replays in RETIRED_CONFIG_FIELDS.items():
        if replays is not None and stored.get(name, replays) != replays:
            raise PersistenceError(
                f"{store_path} was written with {name}={stored[name]!r}, a knob "
                f"this release no longer has (only {replays!r} replays); the "
                "session cannot resume bit-identically"
            )

