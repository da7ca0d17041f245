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
is the only file of a session.  Its state tables are *the state as of
``meta.events_applied``*; its ``events`` table, the write-ahead log, holds
only what they do not cover yet.  The session keeps its state in process
memory and reads nothing back; each event's changed rows are written into
the state tables in the event's one transaction (the pair ledger's when
the event commits), and that transaction deletes the event's intent, so
the log holds at most the one intent a crash interrupted.
:func:`write_snapshot` writes the state whole — inside one transaction,
so a failure half-way leaves the previous contents — into another
directory's file on ``save(X)``.  :func:`restore` opens the file, pages
the state in, replays ``events WHERE seq > meta.events_applied`` under
the stored configuration, and keeps logging to the same file.  A store
has one writer: the session holds its directory's lock
(:class:`~repro.storage.base.StoreInUse` for a second opener) until it
closes.

**The log.**  Each ``events`` row carries a gapless ``seq``, an event
``type``, a JSON ``payload`` and a CRC over all three
(:class:`SessionJournal`).  An *intent* (``session``, ``truth``,
``batch``, ``retract``, ``update``, ``flush`` — the :data:`EVENTS` table
maps each to its payload codec) is committed — fsynced: a logged
connection runs ``synchronous=FULL`` — **before** the state change it
describes is applied (the write-ahead rule), and deleted in the **same
transaction** as the event's state rows and ``meta.events_applied`` — the
checkpoint rule of ARIES, with every event its own checkpoint.  So the
log never grows with the session, and no event does work in proportion
to it.  A write torn by a crash is SQLite's to discard (WAL frame
checksums); a CRC mismatch or a sequence gap raises
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
property-test this for random event schedules and crash points (logical,
torn WAL, ``SIGKILL``).
"""

from __future__ import annotations

import json
import logging
import os
import time
import zlib
from dataclasses import asdict, dataclass
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.config import WorkflowConfig
from repro.records.record import Record
from repro.storage import STORE_FILENAME, SqliteStore, Store
from repro.storage.base import PersistenceError
from repro.storage.sqlite import LOGGED
from repro.storage.upgrade import FORMAT_VERSION, refuse_earlier_files, upgrade

logger = logging.getLogger(__name__)


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
    returns.  The log is single-writer; a row is never updated, and
    :meth:`truncate` deletes it in the commit that applies its event, so
    the log is only its tail.  Its first append marks the store
    (``meta.logged``) as a session's, which ``save(X)`` never overwrites.
    """

    def __init__(self, store: SqliteStore) -> None:
        self.store = store
        store.query("PRAGMA synchronous=FULL")
        last = store.query("SELECT MAX(seq) FROM events").fetchone()[0] or 0
        # Between events the log is empty (and a ``save(X)`` copy never
        # had one): it goes on right after what the state covers.
        self.next_seq = max(last, int(store.get_meta("events_applied", 0))) + 1
        self._marked = bool(store.get_meta(LOGGED))

    def append(self, event_type: str, payload: Dict[str, object]) -> int:
        """Append one event and commit; returns its sequence number.

        The commit is fsynced (``synchronous=FULL``) before the call
        returns — the write-ahead rule: an intent that was appended is on
        stable storage before the event is applied.  The store's open
        transaction, if any, commits with the row.
        """
        seq = self.next_seq
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        started = time.perf_counter()
        if not self._marked:
            self.store.set_meta(LOGGED, True)
        self.store.execute(
            "INSERT INTO events (seq, type, payload, crc) VALUES (?, ?, ?, ?)",
            (seq, event_type, text, _entry_crc(seq, event_type, text)),
        )
        self.store.commit()
        self._marked = True
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

    def truncate(self, through: int) -> None:
        """Delete the rows up to ``through`` in the store's open transaction:
        the commit that applies event ``through`` makes them redundant."""
        self.store.execute("DELETE FROM events WHERE seq <= ?", (through,))

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
    intent payload, ``decode`` is its inverse.
    """

    encode: Callable[..., Dict[str, object]]
    decode: Callable[[Dict[str, object]], tuple]


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


def stored_header(store: SqliteStore) -> Optional[Dict[str, object]]:
    """The header of ``store``'s session: its meta once a boundary committed,
    else the log's first event (``None``: neither is there)."""
    if store.get_meta("version") is not None:
        return {key: store.get_meta(key) for key in _header(WorkflowConfig(), None)}
    events = SessionJournal(store).events()
    return events[0].payload if events and events[0].type == "session" else None


def _write_header(store: Store, session) -> None:
    for key, value in _header(session.config, session.cross_sources).items():
        store.set_meta(key, value)


def _write_truth(store: Store, session) -> None:
    store.set_meta("truth", sorted(list(pair) for pair in session._truth))


#: The stored key order of the ``session`` meta value.
_SESSION_META_KEYS = (
    "hit_count", "cost", "batch_index", "pairs_per_hit_seen", "generator_name",
    "assignment_seconds",
)


def _write_counters(store: Store, session) -> None:
    """The crowd driver's state (its workload counters and assignment
    duration counts), the session's event counters, the log position."""
    crowd = session.driver.state_dict()
    counters = {**crowd["session"], "batch_index": session._batch_index}
    store.set_meta("session", {key: counters[key] for key in _SESSION_META_KEYS})
    store.set_meta("async", crowd["async"])
    store.set_meta("events_applied", session.durability.events_applied)


def write_snapshot(target: SqliteStore, session) -> None:
    """Rewrite ``target``'s state tables from a live session, whole.

    Everything but the ``events`` table — records, pair ledger, meta (the
    crowd workload among it) — is rewritten inside
    ``target``'s **open transaction**; the caller commits.  An exception in
    here rolls the transaction back, so the file keeps its previous
    contents.  This is how ``save(X)`` copies a session into a foreign
    directory.  The join index is not written: a restore re-indexes the
    records.
    """
    try:
        target.clear()
        for record in session.store:
            target.add_record(record)
        target.write_ledger(session.storage.ledger)
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
def _occupied(path: Path) -> PersistenceError:
    return PersistenceError(
        f"{path} already holds a session; use StreamingResolver.restore() to resume it"
    )


class Durability:
    """The durable side of one session: its store and its log.

    A session owns exactly one of these and calls :meth:`run` for every
    event and :meth:`save` on demand; it never sees a file.  ``journal`` is
    ``None`` for a session without a checkpoint directory, whose
    ``storage`` is the no-op :class:`~repro.storage.base.Store`, so the
    default in-memory session pays one attribute check per event.  A
    durable session holds one SQLite connection — ``storage``, which is
    also ``journal.store`` — until :meth:`close`.
    """

    def __init__(self, storage: Store) -> None:
        self.storage = storage
        self.journal: Optional[SessionJournal] = None
        #: Logged events reflected in the session's current state.
        self.events_applied = 0
        self._truth_written = 0

    @classmethod
    def create(
        cls, config: WorkflowConfig, cross_sources: Optional[Sequence[str]]
    ) -> "Durability":
        """Open the store and log of a *fresh* session, as its one writer.

        Refuses a directory that already holds one: the check is whether
        the store file exists, nothing is read.
        """
        if not config.checkpoint_dir:
            return cls(Store())
        directory = Path(config.checkpoint_dir)
        refuse_earlier_files(directory)
        path = directory / STORE_FILENAME
        if path.exists():
            raise _occupied(path)
        store = SqliteStore(path, lock=True)
        durability = cls(store)
        durability.journal = SessionJournal(store)
        durability.events_applied = durability.journal.append(
            "session", _header(config, cross_sources)
        )
        return durability

    def attach(self, session) -> None:
        """Stamp a durable session's identity into its store and commit:
        the last step of constructing a session and of restoring one (whose
        directory may have moved since its header was written)."""
        if self.journal is not None:
            _write_header(self.storage, session)
            self.boundary(session)

    @property
    def store(self) -> Optional[SqliteStore]:
        """The session's one file, or ``None`` for an in-memory session."""
        return None if self.journal is None else self.journal.store

    def close(self) -> None:
        """Close the session's SQLite connection, if it holds one, and
        release its directory's lock (idempotent).

        The last connection to close folds SQLite's WAL into the store file.
        """
        self.storage.close()

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
        rolls the store back to the previous event and the logged intent
        replays the interrupted one.
        """
        self.intent(kind, *arguments)
        result = session.apply(kind, *arguments)
        self.boundary(session)
        return result

    def boundary(self, session) -> None:
        """Close an event: its state rows, the counters and the deletion of
        its intent in one commit.

        Everything the store wrote since the last boundary, the pair
        ledger's unsaved rows (written by the commit itself),
        ``meta.events_applied`` and the deletion of every logged row up to
        it form one transaction: the state covers exactly the events the
        log no longer holds, and a crash leaves at most the one intent
        whose commit it interrupted.  An in-memory session has nothing to
        close.
        """
        journal, storage = self.journal, self.storage
        if journal is None:
            return
        if len(session._truth) != self._truth_written:  # truth only grows
            _write_truth(storage, session)
            self._truth_written = len(session._truth)
        _write_counters(storage, session)
        journal.truncate(self.events_applied)
        storage.commit()

    # ------------------------------------------------------------------ save
    def save(self, session, path: Optional[os.PathLike] = None) -> Path:
        """Bring ``path``'s store up to the session's state.

        ``path`` defaults to the checkpoint directory.  Asked for its own
        location, a durable session only closes a boundary (its store is
        current after every event); saving elsewhere writes a store-only
        copy (state, no events), holding the directory's one-writer lock
        while it writes — over an earlier store-only copy, never over a
        store a session has logged to (another session's).  Returns the
        file.
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
            copy = SqliteStore(target, lock=True)
            try:
                if copy.get_meta(LOGGED):
                    raise _occupied(target)
                # An earlier format's ledger takes no current rows.
                if copy.get_meta("version") is not None:
                    upgrade(copy, copy.get_meta("version"))
                write_snapshot(copy, session)
                copy.commit()
            finally:
                copy.close()
        else:
            self.boundary(session)
        return target


# ----------------------------------------------------------------- restore
def _page_in(session, source: SqliteStore) -> None:
    """Rebuild the session's live structures from its store's contents.

    The records come back in arrival order and the session's own join
    indexes them — the index is a function of the records alone, and its
    deltas are ordered by record id, so a row numbering without the
    original's tombstones changes no later result.  The candidate pairs
    (and the ledger's record → pairs index) come from the ledger's rows —
    filled in place, the fresh session's aggregation schedule shares the
    ledger — and the union-find forest from record arrival order plus the
    pair edges (roots only serve as grouping keys, so the rebuilt forest
    is behaviorally equivalent to the original).  What is derived from
    those rows is rebuilt with them: each component's tallies, and, once
    the driver knows what is in flight, the session's unvoted pairs.
    """
    with obs.span("storage.page_in"):
        records = list(source.iter_records())
        for record in records:
            session.store.add(record)
            session.components.add(record.record_id)
        session.join.index(records)
        source.load_ledger()
        session._apply_truth(source.get_meta("truth") or [])
        for key in sorted(source.ledger.pairs):
            session.components.union(key[0], key[1])
            session._tally_pair(key)
        session.components.clear_dirty()
    counters = source.get_meta("session") or {}
    session.driver.load_state_dict({"session": counters, "async": source.get_meta("async")})
    session._reclassify(source.ledger.pairs)
    session._batch_index = int(counters.get("batch_index", 0))
    session.durability.events_applied = int(source.get_meta("events_applied", 0))


def replay(session, events: Sequence[JournalEvent]) -> None:
    """Apply the logged events the session has not seen yet, in order.

    Crowd votes are re-derived through the deterministic per-pair oracle.
    The tail is at most one intent (and the ``session`` header of a store
    whose first boundary never committed).  The events must continue
    exactly where the session's state ends; a gap raises
    :class:`PersistenceError`, and an unknown type
    :class:`JournalCorruptionError`.
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
            if event.type in EVENTS:
                session.apply(event.type, *EVENTS[event.type].decode(event.payload))
            elif event.type != "session":
                raise JournalCorruptionError(
                    f"unknown event type {event.type!r} at sequence {event.seq}"
                )
            durability.events_applied = event.seq


def restore(cls, path: os.PathLike):
    """Resume the durable session (an instance of ``cls``) in its directory.

    Open the directory's one file, read the header from its meta (a store
    whose state tables were never written has it in event 1), bring the
    store to this release's format (:mod:`repro.storage.upgrade`), run
    under the stored configuration — its ``checkpoint_dir`` is wherever
    the directory is now — page the state in (the join re-indexes the
    records), and :func:`replay` the events newer than
    ``meta.events_applied``.  The restored session is bit-identical to one
    that processed the same events without stopping, and takes the
    directory over as its one writer (:class:`~repro.storage.base.StoreInUse`
    while another holds it): it keeps logging to the same file.  All of it
    up to the first boundary — which deletes the replayed tail — is one
    transaction, so a refused restore leaves the file as it was.
    """
    directory = Path(path)
    refuse_earlier_files(directory, restoring=True)
    store_path = directory / STORE_FILENAME
    source = SqliteStore(store_path, lock=True)
    try:
        header = stored_header(source)
        if header is None:
            raise PersistenceError(f"{store_path} holds no session")
        materialised = source.get_meta("version") is not None
        journal = SessionJournal(source)
        events = journal.events(after=int(source.get_meta("events_applied", 0)))
        upgrade(source, header["version"])
        try:
            config = WorkflowConfig(**{**header["config"], "checkpoint_dir": str(directory)})
        except (TypeError, ValueError) as error:
            raise PersistenceError(
                f"{store_path} holds a configuration this release cannot run: {error}"
            ) from None
        durability = Durability(source)
        durability.journal = journal
        cross_sources = header["cross_sources"]
        session = cls(
            config=config,
            cross_sources=tuple(cross_sources) if cross_sources else None,
            _durability=durability,
        )
        if materialised:
            _page_in(session, source)
        replay(session, events)
    except BaseException:
        source.close()
        raise
    logger.info("restored session from %s at event %d", directory, session.events_applied)
    durability.attach(session)
    return session
