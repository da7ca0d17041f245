"""Durable streaming sessions: one store, one journal, one restore.

A crowdsourced resolution session is long-lived — votes arrive over hours
and cost real money — so :class:`repro.streaming.StreamingResolver` can be
made *durable*: point ``WorkflowConfig.checkpoint_dir`` at a directory.
The session class itself does no I/O; everything that knows a filename, a
journal event schema, a store meta key or a replay order lives here.

Directory layout::

    checkpoint_dir/
        journal.jsonl            the *active* journal segment (one JSON object per line)
        journal-<a>-<b>.jsonl    closed segments holding events <a>..<b>
        store.sqlite             the session's state as of ``meta.events_applied``
        archive/                 closed segments the store already covers

**The model.**  ``store.sqlite`` (:class:`repro.storage.sqlite.SqliteStore`)
is the only materialised form of a session: *the state as of
``meta.events_applied``; the journal holds the rest*.
``WorkflowConfig.storage_backend`` decides only **when** that file is
written: ``"sqlite"`` mirrors every mutation into it, one transaction per
event; ``"memory"`` keeps the state in process structures and
:func:`write_snapshot` bulk-writes it — one transaction, so a failure
half-way leaves the previous contents — every
``checkpoint_every_batches`` events and on ``save()``.  Because the file
is the same either way, :func:`restore` is one algorithm — open the store
once, page it in, replay the journal tail — and a ``config=`` override
that flips the backend simply continues on the same file.

**Journal.**  Each line carries a monotonically increasing ``seq``, an
event ``type``, a ``payload`` and a CRC over all three.  *Intent* events
(``session``, ``truth``, ``batch``, ``retract``, ``update``, ``flush`` —
the :data:`EVENTS` table maps each to its payload codec) are written
**before** the state change they describe is applied (the write-ahead
rule); *outcome* events (``commit``) are written after, and record the
fresh crowd votes, the delta and a digest of the aggregated state — so the
journal is simultaneously a redo log and an audit trail of every vote the
session paid for.  A line truncated by a crash mid-write is detected (bad
JSON or CRC on the final line) and dropped; corruption anywhere earlier
raises :class:`JournalCorruptionError`.

**Segment rotation.**  The active file is rotated — atomically renamed to
``journal-<first>-<last>.jsonl`` — once it holds
``WorkflowConfig.journal_segment_events`` events, so no single file grows
without bound.  :meth:`SessionJournal.compact_covered` then *archives*
every closed segment whose events the store covers: the segment moves
into ``archive/`` and stops being scanned on restore.  Rotation is a
single ``os.replace`` and archival never touches the active file, so a
crash at any point in the lifecycle leaves a readable journal.

**One event, one path.**  :meth:`Durability.run` is the only place an event
is executed: *intent → apply → store boundary → outcome → cadence*.  The
five public event methods of the session validate their arguments and call
it; :func:`replay` drives the same appliers from journal payloads.

**Recovery guarantee.**  Because intent events are journaled before they
are applied and every apply is deterministic (per-pair vote mode), a crash
after *any* prefix of events loses nothing: ``restore`` rebuilds exactly
the state of a session that processed that prefix, and replaying the
remaining events yields results bit-identical to a session that never
stopped.  ``tests/test_persistence.py`` and ``tests/test_storage.py``
property-test this for random event schedules, crash points and backends.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
import zlib
from dataclasses import asdict, dataclass, replace
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.config import RESULT_CONFIG_FIELDS, WorkflowConfig
from repro.core.results import StreamingDelta
from repro.graph.union_find import IncrementalUnionFind
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record
from repro.storage import STORE_FILENAME, SqliteStore, Store, open_store
from repro.streaming.incremental_join import IncrementalSimJoin
from repro.streaming.provenance import ProvenanceLedger

logger = logging.getLogger(__name__)

JOURNAL_FILENAME = "journal.jsonl"
SEGMENT_PATTERN = re.compile(r"^journal-(\d+)-(\d+)\.jsonl$")
ARCHIVE_DIRNAME = "archive"
FORMAT_VERSION = 1

#: Fields a stored configuration (journal ``session`` event or store meta)
#: written by an earlier release may still carry.  The knobs are gone —
#: ``join_pool`` selected a fork-per-batch pool that no longer exists — so
#: restore drops them instead of failing on an unknown field.
RETIRED_CONFIG_FIELDS = ("join_pool",)

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


def encode_slot_votes(
    slot_votes: Dict[Tuple[str, str], Dict[int, Tuple[str, Tuple[str, str], bool]]],
) -> List[list]:
    """JSON-safe encoding of the async layer's partial per-pair vote slots.

    One entry per in-flight pair: ``[id_a, id_b, [[slot, worker, answer],
    ...]]`` — the pair key is not repeated inside each vote, it is
    reconstructed on decode.
    """
    return [
        [
            key[0],
            key[1],
            [[slot, vote[0], bool(vote[2])] for slot, vote in sorted(slots.items())],
        ]
        for key, slots in sorted(slot_votes.items())
    ]


def decode_slot_votes(
    payload: Sequence[list],
) -> Dict[Tuple[str, str], Dict[int, Tuple[str, Tuple[str, str], bool]]]:
    """Inverse of :func:`encode_slot_votes`."""
    return {
        (id_a, id_b): {
            slot: (worker, (id_a, id_b), bool(answer))
            for slot, worker, answer in slots
        }
        for id_a, id_b, slots in payload
    }


def encode_pair_map(mapping: Dict[Tuple[str, str], int]) -> List[list]:
    """JSON-safe encoding of a ``pair key -> int`` map (e.g. in-flight rounds)."""
    return [[key[0], key[1], value] for key, value in sorted(mapping.items())]


def decode_pair_map(payload: Sequence[list]) -> Dict[Tuple[str, str], int]:
    """Inverse of :func:`encode_pair_map`."""
    return {(id_a, id_b): value for id_a, id_b, value in payload}


def _line_crc(seq: int, event_type: str, payload: Dict[str, object]) -> int:
    canonical = json.dumps(
        {"seq": seq, "type": event_type, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(canonical.encode("utf-8"))


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


# ----------------------------------------------------------------- journal
@dataclass
class JournalEvent:
    """One parsed journal line."""

    seq: int
    type: str
    payload: Dict[str, object]


def journal_present(directory: os.PathLike) -> bool:
    """True when the directory holds an active or closed journal segment."""
    directory = Path(directory)
    if (directory / JOURNAL_FILENAME).exists():
        return True
    if not directory.is_dir():
        return False
    return any(SEGMENT_PATTERN.match(name) for name in os.listdir(directory))


class SessionJournal:
    """Append-only, CRC-checked, crash-tolerant, *segmented* event log.

    Appends go to the active file (``journal.jsonl``) and are flushed and
    fsynced before they return.  With a positive
    ``segment_events`` the active file is rotated — atomically renamed to
    ``journal-<first>-<last>.jsonl`` — once it holds that many events;
    :meth:`compact_covered` then archives closed segments whose events a
    snapshot (or the SQLite store) already covers.  ``segment_events=0``
    (the constructor default) never rotates, which is the pre-segmentation
    behavior.
    """

    def __init__(
        self,
        directory: os.PathLike,
        start_seq: int = 1,
        segment_events: int = 0,
    ) -> None:
        if segment_events < 0:
            raise ValueError("segment_events must be non-negative (0 = no rotation)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILENAME
        self.segment_events = segment_events
        # Parse (and, if a crash left a torn tail line in the active file,
        # repair) every segment once; the journal is single-writer, so the
        # caches stay accurate.
        self._segments: List[Tuple[int, int, Path]] = []
        self._events = self._scan_and_repair()
        self._next_seq = max(
            self._events[-1].seq + 1 if self._events else 1, start_seq
        )
        # A crash may have interrupted the session between filling the
        # active file and rotating it; finish the rotation now.
        self._maybe_rotate()

    @property
    def event_count(self) -> int:
        """Number of valid, non-archived events across all segments."""
        return len(self._events)

    def segments(self) -> List[Tuple[int, int, Path]]:
        """Closed (rotated, not yet archived) segments as ``(first, last, path)``."""
        return list(self._segments)

    def append(self, event_type: str, payload: Dict[str, object]) -> int:
        """Append one event; returns its sequence number.

        The line is written, flushed and fsynced before the
        call returns — the write-ahead rule callers rely on.  May rotate
        the active file afterwards (see ``segment_events``).
        """
        seq = self._next_seq
        line = json.dumps(
            {
                "seq": seq,
                "type": event_type,
                "payload": payload,
                "crc": _line_crc(seq, event_type, payload),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        started = time.perf_counter()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if obs.enabled():
            obs.inc("journal_appends_total", 1, type=event_type,
                    help="Events appended to the write-ahead journal.")
            obs.inc("journal_bytes_written_total", len(line.encode("utf-8")) + 1,
                    help="Bytes appended to the write-ahead journal.")
            obs.inc("journal_fsyncs_total", 1,
                    help="fsync calls issued by journal appends.")
            obs.observe("journal_append_seconds", time.perf_counter() - started,
                        help="Wall time of one journal append (write+flush+fsync).")
        self._events.append(JournalEvent(seq=seq, type=event_type, payload=payload))
        self._next_seq += 1
        if self._active_first_seq is None:
            self._active_first_seq = seq
        self._active_last_seq = seq
        self._active_count += 1
        self._maybe_rotate()
        return seq

    def events(self) -> List[JournalEvent]:
        """All valid non-archived events, in order (a copy of the cache).

        A final line of the *active* file that failed to parse or checksum
        was treated as a crash artifact and truncated away when the
        journal was opened; the same failure anywhere else — mid-stream in
        the active file or anywhere in a closed segment — raises
        :class:`JournalCorruptionError`, and so do sequence-number gaps.
        """
        return list(self._events)

    # ------------------------------------------------------------ lifecycle
    def release_applied(self, covered_seq: int) -> None:
        """Drop events at or below ``covered_seq`` from the in-memory cache.

        The on-disk files are untouched — this is the live session telling
        the journal it will never re-read events it has already applied
        (restore always re-scans the files in a fresh instance), so their
        decoded payloads need not stay resident.  Without this a long
        session would hold every record batch and vote payload it ever
        journaled in RAM.  After a release, :meth:`events` and
        :attr:`event_count` reflect only the retained tail; reopen the
        directory to see everything.
        """
        if self._events and self._events[0].seq <= covered_seq:
            self._events = [
                event for event in self._events if event.seq > covered_seq
            ]

    def set_segment_events(self, segment_events: int) -> None:
        """Change the rotation threshold (rotating now if already over it).

        Restore opens the journal before the session config is known (the
        config may live in the journal's own first event), so the
        configured threshold is applied after the fact.
        """
        if segment_events < 0:
            raise ValueError("segment_events must be non-negative (0 = no rotation)")
        self.segment_events = segment_events
        self._maybe_rotate()

    def _maybe_rotate(self) -> None:
        if self.segment_events <= 0 or self._active_count < self.segment_events:
            return
        target = self.directory / (
            f"journal-{self._active_first_seq:012d}-{self._active_last_seq:012d}.jsonl"
        )
        os.replace(self.path, target)
        self._segments.append(
            (self._active_first_seq, self._active_last_seq, target)
        )
        self._active_first_seq = None
        self._active_last_seq = None
        self._active_count = 0
        if obs.enabled():
            obs.inc("journal_rotations_total", 1,
                    help="Active-journal rotations into closed segments.")

    def compact_covered(self, covered_seq: int) -> List[Path]:
        """Archive every closed segment fully covered by ``covered_seq``.

        A segment whose last event is at or below the covered sequence
        (the position a snapshot or the SQLite store has durably applied)
        is moved into ``archive/`` and dropped from the scan set — restore
        never needs it again, but the audit trail survives on disk.
        Segments with newer events, and the active file, are untouched.
        Returns the archived paths.
        """
        archived: List[Path] = []
        keep: List[Tuple[int, int, Path]] = []
        for first, last, path in self._segments:
            if last <= covered_seq:
                archive_dir = self.directory / ARCHIVE_DIRNAME
                archive_dir.mkdir(exist_ok=True)
                target = archive_dir / path.name
                os.replace(path, target)
                archived.append(target)
            else:
                keep.append((first, last, path))
        if archived:
            self._segments = keep
            first_kept = (
                self._segments[0][0]
                if self._segments
                else (self._active_first_seq or self._next_seq)
            )
            self._events = [
                event for event in self._events if event.seq >= first_kept
            ]
            if obs.enabled():
                obs.inc("journal_segments_archived_total", len(archived),
                        help="Closed journal segments moved into archive/.")
        return archived

    # -------------------------------------------------------------- parsing
    def _scan_and_repair(self) -> List[JournalEvent]:
        """Parse all segments plus the active file, repairing a torn tail.

        Closed segments were rotated whole, so they are parsed strictly —
        any bad line is corruption.  Only the active file can carry a
        crash-torn final line, which is physically removed, not merely
        skipped: appending after a skipped partial line would merge the
        new event into the garbage bytes and silently lose it, breaking
        the write-ahead guarantee.
        """
        events: List[JournalEvent] = []
        segment_names = sorted(
            (int(match.group(1)), int(match.group(2)), name)
            for name in os.listdir(self.directory)
            if (match := SEGMENT_PATTERN.match(name))
        )
        for _, _, name in segment_names:
            path = self.directory / name
            parsed = self._parse_file(path, events, repair_tail=False)
            if not parsed:
                raise JournalCorruptionError(f"journal segment {name} is empty")
            self._segments.append((parsed[0].seq, parsed[-1].seq, path))
            events.extend(parsed)
        active = self._parse_file(self.path, events, repair_tail=True)
        self._active_count = len(active)
        self._active_first_seq = active[0].seq if active else None
        self._active_last_seq = active[-1].seq if active else None
        events.extend(active)
        return events

    def _parse_file(
        self, path: Path, prior: List[JournalEvent], repair_tail: bool
    ) -> List[JournalEvent]:
        if not path.exists():
            return []
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        lines = raw.splitlines()
        events: List[JournalEvent] = []
        valid_bytes = 0
        for index, line in enumerate(lines):
            is_last = index == len(lines) - 1
            if not line.strip():
                valid_bytes += len(line.encode("utf-8")) + 1
                continue
            try:
                entry = json.loads(line)
                seq, event_type = entry["seq"], entry["type"]
                payload, crc = entry["payload"], entry["crc"]
                if crc != _line_crc(seq, event_type, payload):
                    raise ValueError("checksum mismatch")
            except (ValueError, KeyError, TypeError) as error:
                if repair_tail and is_last:
                    break  # crash-truncated tail line: repaired below
                raise JournalCorruptionError(
                    f"{path.name} line {index + 1} is corrupt mid-stream: {error}"
                ) from error
            # The first event overall may start above 1 (a journal created
            # after a snapshot-only restore, or whose oldest segments were
            # archived, fast-forwards past the covered events); after that,
            # sequence numbers must be gapless — including across the
            # segment/active boundary.
            previous = events[-1] if events else (prior[-1] if prior else None)
            if previous is not None and seq != previous.seq + 1:
                raise JournalCorruptionError(
                    f"{path.name} line {index + 1} has sequence {seq}, "
                    f"expected {previous.seq + 1}"
                )
            events.append(JournalEvent(seq=seq, type=event_type, payload=payload))
            valid_bytes += len(line.encode("utf-8")) + 1
        # Repair the tail so future appends start on a clean line: torn
        # garbage is truncated away; a valid final line that lost only its
        # newline (valid_bytes overcounts by the assumed "\n") gets one.
        raw_byte_count = len(raw.encode("utf-8"))
        if valid_bytes < raw_byte_count:
            with open(path, "a+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        elif valid_bytes > raw_byte_count:
            with open(path, "ab") as handle:
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
        return events


# --------------------------------------------------------- the event table
@dataclass(frozen=True)
class EventSpec:
    """How one kind of session event crosses the journal.

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


#: Every event a session can apply, by journal type.  The name is also the
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
    """JSON-safe form of a configuration (journal header and store meta)."""
    payload = asdict(config)
    if payload.get("similarity_attributes") is not None:
        payload["similarity_attributes"] = list(payload["similarity_attributes"])
    return payload


def result_config_changed(new: WorkflowConfig, stored: Dict[str, object]) -> bool:
    """True when ``new`` differs from a stored payload on a result-bearing field."""
    payload = config_payload(new)
    return any(payload[name] != stored.get(name) for name in RESULT_CONFIG_FIELDS)


def _write_header(store: Store, session) -> None:
    """The session-identifying meta: format, configuration, source restriction."""
    store.set_meta("version", FORMAT_VERSION)
    store.set_meta("config", config_payload(session.config))
    store.set_meta(
        "cross_sources", list(session.cross_sources) if session.cross_sources else None
    )


def _write_truth(store: Store, session) -> None:
    store.set_meta("truth", sorted(list(pair) for pair in session._truth))


def _write_counters(store: Store, session) -> None:
    """The crowd-workload counters, async crowd state and journal position."""
    store.set_meta(
        "session",
        {
            "hit_count": session._hit_count,
            "cost": session._cost,
            "batch_index": session._batch_index,
            "pairs_per_hit_seen": session._pairs_per_hit_seen,
            "generator_name": session._generator_name,
            "last_delta": session._last_delta.as_dict(),
        },
    )
    crowd = session.crowd
    store.set_meta(
        "async",
        None
        if crowd is None
        else {
            "platform": crowd.state_dict(),
            "slot_votes": encode_slot_votes(session._slot_votes),
            "inflight_rounds": encode_pair_map(session._inflight_rounds),
            "starved": [[key[0], key[1]] for key in sorted(session._starved_pairs)],
        },
    )
    store.set_meta("events_applied", session.durability.events_applied)
    if obs.enabled():
        # The live metrics snapshot, so `repro stats --store` can build a
        # cost report from the store alone.  Purely additive meta — restore
        # only merges it back into the registry, the digest never reads it.
        snapshot = obs.snapshot()
        if snapshot is not None:
            store.set_meta("metrics", snapshot.to_dict())


def write_snapshot(directory: os.PathLike, session) -> Path:
    """Materialise a live session into ``directory/store.sqlite``, whole.

    Everything — records, join substrate, pair ledger, provenance, crowd
    workload, meta — is rewritten inside **one transaction**, so an
    exception (or a crash) anywhere in here leaves the file's previous
    contents, which together with the journal still restore exactly.
    This is how a memory-backed session reaches disk, and how ``save(X)``
    copies a session of either backend into a foreign directory.
    """
    path = Path(directory) / STORE_FILENAME
    target = SqliteStore(path)
    try:
        target.clear()
        for record in session.store:
            target.add_record(record)
        session.join.write_to(target)
        target.write_ledger(session.storage.ledger)
        session.provenance.write_to(target)
        target.append_assignment_seconds(session._assignment_seconds)
        _write_header(target, session)
        _write_truth(target, session)
        _write_counters(target, session)
        target.commit()
    finally:
        target.close()  # rolls an unfinished transaction back
    if obs.enabled():
        obs.inc("snapshot_writes_total", 1,
                help="Whole-session materialisations written to the store.")
        obs.inc("snapshot_bytes_written_total", path.stat().st_size,
                help="Store file size after each whole-session materialisation.")
    return path


# ------------------------------------------------------- durability adaptor
def _store_path(
    directory: Optional[Path], backend: Optional[str], storage_path: Optional[str]
) -> Optional[Path]:
    """Where a session keeps its store (``None``: nowhere).

    Only the sqlite backend honours ``storage_path``; a memory-backed
    session's store always sits in its checkpoint directory.
    """
    if backend == "sqlite" and storage_path:
        return Path(storage_path)
    return directory / STORE_FILENAME if directory is not None else None


class Durability:
    """The durable side of one session: store boundary, journal, cadence.

    A session owns exactly one of these and calls :meth:`run` for every
    event and :meth:`save` on demand; it never sees a file.  ``journal`` is
    ``None`` for a session without a checkpoint directory, and a
    non-persistent ``storage`` makes the store boundary a no-op, so the
    default in-memory session pays two attribute checks per event.
    """

    def __init__(self, storage: Store) -> None:
        self.storage = storage
        self.journal: Optional[SessionJournal] = None
        #: Journal events reflected in the session's current state.
        self.events_applied = 0
        self._unsaved_events = 0
        self._truth_written = 0

    @classmethod
    def create(
        cls, config: WorkflowConfig, cross_sources: Optional[Sequence[str]]
    ) -> "Durability":
        """Open the store and journal of a *fresh* session.

        Refuses a location that already holds one: the check is whether the
        session's store file or a journal segment exists, nothing is read.
        """
        directory = Path(config.checkpoint_dir) if config.checkpoint_dir else None
        store_path = _store_path(directory, config.storage_backend, config.storage_path)
        if store_path is not None and store_path.exists():
            occupied: Optional[Path] = store_path
        elif directory is not None and journal_present(directory):
            occupied = directory
        else:
            occupied = None
        if occupied is not None:
            raise PersistenceError(
                f"{occupied} already holds a session; "
                "use StreamingResolver.restore() to resume it"
            )
        durability = cls(open_store(config.storage_backend, store_path))
        if directory is not None:
            durability.journal = SessionJournal(
                directory, segment_events=config.journal_segment_events
            )
            durability.events_applied = durability.journal.append(
                "session",
                {
                    "version": FORMAT_VERSION,
                    "config": config_payload(config),
                    "cross_sources": list(cross_sources) if cross_sources else None,
                },
            )
        return durability

    def attach(self, session) -> None:
        """Stamp the session's identity into a persistent store and commit.

        The last step of constructing a fresh session and of restoring one
        (whose configuration an override may have changed).
        """
        if self.storage.persistent:
            _write_header(self.storage, session)
            self.boundary(session)

    # ------------------------------------------------------------- one event
    def intent(self, kind: str, *arguments) -> None:
        """Write-ahead rule: record the intent before touching state."""
        if self.journal is not None:
            self.events_applied = self.journal.append(
                kind, EVENTS[kind].encode(*arguments)
            )

    def run(self, session, kind: str, *arguments):
        """Execute one validated event: the only path an event takes.

        *intent → apply → store boundary → outcome → cadence.*  A crash
        before the boundary rolls a persistent store back to the previous
        event and the journaled intent replays the interrupted one.
        """
        self.intent(kind, *arguments)
        result = session.apply(kind, *arguments)
        self.boundary(session)
        journal = self.journal
        if journal is not None:
            outcome = EVENTS[kind].outcome
            if outcome:
                self.events_applied = journal.append(
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
            # Applied events are never re-read from this live instance
            # (restore re-scans the files), so their payloads need not stay
            # resident.
            journal.release_applied(self.events_applied)
            if outcome:
                self._unsaved_events += 1
                every = session.config.checkpoint_every_batches
                if every > 0 and self._unsaved_events >= every:
                    session.save()
        return result

    def boundary(self, session) -> None:
        """Event boundary of a persistent store: counters plus one commit.

        All mirrored writes since the last boundary form one transaction,
        so the store always holds the state as of a whole event.
        """
        storage = self.storage
        if not storage.persistent:
            return
        if len(session._truth) != self._truth_written:  # truth only grows
            _write_truth(storage, session)
            self._truth_written = len(session._truth)
        _write_counters(storage, session)
        storage.commit()

    # ------------------------------------------------------------------ save
    def save(self, session, path: Optional[os.PathLike] = None) -> Path:
        """Bring ``path``'s store up to the session's state; retire the journal.

        ``path`` defaults to the checkpoint directory.  A sqlite-backed
        session asked for its own location only closes a boundary (the
        store is already current); anything else — a memory-backed session,
        or either backend saving into a foreign directory — goes through
        :func:`write_snapshot`.  Closed journal segments the store now
        covers are archived.  Returns the store file's path.
        """
        storage = self.storage
        directory = self.journal.directory if self.journal is not None else None
        if path is not None:
            directory = Path(path)
        own = storage.persistent and (
            path is None
            or (directory / STORE_FILENAME).resolve() == Path(storage.path).resolve()
        )
        if own:
            self.boundary(session)
            saved = Path(storage.path)
        elif directory is None:
            raise PersistenceError(
                "save() needs a path (or config.checkpoint_dir to be set)"
            )
        else:
            saved = write_snapshot(directory, session)
        if self.journal is not None and directory == self.journal.directory:
            self._unsaved_events = 0
            self.journal.compact_covered(self.events_applied)
        return saved


# ----------------------------------------------------------------- restore
def _page_in(session, source: SqliteStore) -> None:
    """Rebuild the session's live structures from a store's contents.

    ``source`` is the session's own store (sqlite backend: records and the
    ledger stay where they are) or the directory's store being copied into
    a memory-backed session.  The join substrate comes back from its stored
    rows/vocabulary/CSR chunks, provenance from its table, candidates from
    the pair ledger, and the union-find forest from record arrival order
    plus the pair edges (roots only serve as grouping keys, so the rebuilt
    forest is behaviorally equivalent to the original).
    """
    storage, config = session.storage, session.config
    with obs.span("storage.page_in"):
        if storage is not source:
            for record in source.iter_records():
                storage.add_record(record)
        source.load_ledger(into=storage.ledger)
        truth = source.get_meta("truth") or []
        session._truth = {(pair[0], pair[1]) for pair in truth}
        session.join = IncrementalSimJoin.from_store(
            source,
            threshold=config.likelihood_threshold,
            attributes=config.similarity_attributes,
            cross_sources=session.cross_sources,
            workers=config.join_workers or None,
            storage=storage,
        )
        session.provenance = ProvenanceLedger.from_store(source, backing=storage)
        session.candidates = PairSet(
            RecordPair(key[0], key[1], likelihood=likelihood)
            for key, likelihood in storage.ledger.pairs.items()
        )
        session.components = IncrementalUnionFind()
        for record_id in storage.record_ids():
            session.components.add(record_id)
        for key in sorted(storage.ledger.pairs):
            session.components.union(key[0], key[1])
        session.components.clear_dirty()
    counters = source.get_meta("session") or {}
    session._hit_count = int(counters.get("hit_count", 0))
    session._cost = counters.get("cost", 0.0)
    session._assignment_seconds = source.load_assignment_seconds()
    session._pairs_per_hit_seen = counters.get("pairs_per_hit_seen")
    session._generator_name = counters.get("generator_name", "")
    session._batch_index = int(counters.get("batch_index", 0))
    session._last_delta = StreamingDelta(**counters.get("last_delta", {}))
    crowd_state = source.get_meta("async")
    if session.crowd is not None and crowd_state:
        session.crowd.load_state_dict(crowd_state["platform"])
        session._slot_votes = decode_slot_votes(crowd_state.get("slot_votes", []))
        session._inflight_rounds = decode_pair_map(crowd_state.get("inflight_rounds", []))
        session._starved_pairs = {
            (id_a, id_b) for id_a, id_b in crowd_state.get("starved", [])
        }
    session._last_fresh_votes = None
    session.durability.events_applied = int(source.get_meta("events_applied", 0))
    if obs.enabled():
        # Resume cumulative counters from the stored snapshot so a restart
        # doesn't reset `repro stats` to zero.
        obs.merge_snapshot(source.get_meta("metrics"))


def replay(session, events: Sequence[JournalEvent], verify: bool = True) -> None:
    """Apply the journal events the session has not seen yet, in order.

    Crowd votes are re-derived through the deterministic per-pair oracle.
    With ``verify`` every replayed event is checked against its journaled
    ``commit`` record — vote-for-vote and digest-for-digest — so silent
    divergence raises :class:`JournalCorruptionError` instead of
    propagating.  The events must continue exactly where the session's
    state ends; a gap (segments archived past what the store covers)
    raises :class:`PersistenceError`.
    """
    durability = session.durability
    pending = [event for event in events if event.seq > durability.events_applied]
    if pending and pending[0].seq != durability.events_applied + 1:
        raise PersistenceError(
            f"the journal resumes at event {pending[0].seq} but the stored state "
            f"ends at event {durability.events_applied}"
        )
    with obs.span(
        "streaming.restore", events=len(events), applied=durability.events_applied
    ):
        for event in pending:
            if event.type == "commit":
                if verify:
                    _verify_outcome(session, event)
                session._last_fresh_votes = {}
            elif event.type in EVENTS:
                session.apply(event.type, *EVENTS[event.type].decode(event.payload))
            elif event.type != "session":
                raise JournalCorruptionError(
                    f"unknown journal event type {event.type!r} at sequence {event.seq}"
                )
            durability.events_applied = event.seq
    if session._last_fresh_votes is None:
        session._last_fresh_votes = {}


def _verify_outcome(session, event: JournalEvent) -> None:
    # After a page-in the fresh votes of the last stored event are
    # unknowable (sentinel None) — the digest still pins the whole
    # aggregated state.
    if session._last_fresh_votes is not None:
        recorded = {
            (entry[0], entry[1]): decode_votes(entry[2])
            for entry in event.payload["votes"]
        }
        if recorded != session._last_fresh_votes:
            raise JournalCorruptionError(
                f"votes replayed for event {event.seq} differ from the journal"
            )
    if event.payload["digest"] != session.state_digest():
        raise JournalCorruptionError(
            f"state digest after event {event.seq} differs from the journal"
        )


def restore(
    cls,
    path: os.PathLike,
    config: Optional[WorkflowConfig] = None,
    verify: bool = True,
    resume_journal: bool = True,
    **crowd,
):
    """Resume a durable session (an instance of ``cls``) from its directory.

    One algorithm for every backend: open the directory's store **once**,
    read its header, page its contents in, and :func:`replay` the journal
    events newer than ``meta.events_applied`` (all of them when there is no
    store yet).  The restored session is bit-identical to one that
    processed the same events without stopping, and (with
    ``resume_journal``) keeps journaling to the same directory.

    ``config`` overrides the stored configuration.  An override of
    ``storage_backend`` continues on the same store file — a memory-backed
    session starts mirroring into it, a sqlite-backed one copies it into
    process structures and goes back to writing it at the cadence.  When
    the override differs on a field that changes *what the session
    computes* (``repro.core.config.RESULT_CONFIG_FIELDS``), a bit-identical
    resume is impossible — instead of refusing, restore **re-joins**: the
    old session is restored under its own configuration just long enough
    to harvest its records, ground truth and source restriction, its
    artifacts move to ``archive/rejoin-<events>/``, and a fresh durable
    session in the same directory re-ingests everything under the new
    configuration in ``stream_batch_size`` chunks.  ``crowd`` (``platform``,
    ``worker_pool``, ``pricing``, ``latency``) is passed to the session.
    """
    directory = Path(path)
    journal = SessionJournal(directory) if journal_present(directory) else None
    events = journal.events() if journal is not None else []
    header = events[0].payload if events and events[0].type == "session" else None
    named = asdict(config) if config is not None else (header or {}).get("config", {})
    store_path = _store_path(
        directory, named.get("storage_backend"), named.get("storage_path")
    )
    source = SqliteStore(store_path) if store_path.exists() else None
    if source is not None and source.get_meta("version") is not None:
        # The store's header is the configuration of the state it holds (a
        # previous override rewrote it); it wins over the journal's.
        header = {
            "config": source.get_meta("config"),
            "cross_sources": source.get_meta("cross_sources"),
        }
    elif source is not None:
        source.close()  # created, never committed: the journal has it all
        source = None
    if header is None:
        legacy = sorted(item.name for item in directory.glob("snapshot-*.pkl"))
        raise PersistenceError(
            f"{directory} contains neither a store nor a journal"
            + (
                f"; {legacy[-1]} was written by an earlier release, "
                "whose snapshot files are no longer read"
                if legacy
                else ""
            )
        )
    rejoin = config is not None and result_config_changed(config, header["config"])
    if config is None or rejoin:
        stored = {
            name: value
            for name, value in header["config"].items()
            if name not in RETIRED_CONFIG_FIELDS
        }
        if stored.get("join_backend") in RETIRED_JOIN_BACKENDS:
            stored["join_backend"] = "auto"
        run_config = WorkflowConfig(**stored)
    else:
        run_config = config
    keep_journal = resume_journal and not rejoin
    if run_config.storage_backend == "sqlite":
        storage: Store = source if source is not None else SqliteStore(store_path)
    else:
        storage = open_store("memory")
    cross_sources = header["cross_sources"]
    session = cls(
        config=replace(
            run_config, checkpoint_dir=str(directory) if keep_journal else None
        ),
        cross_sources=tuple(cross_sources) if cross_sources else None,
        _durability=Durability(storage),
        **({} if rejoin else crowd),
    )
    if source is not None:
        try:
            _page_in(session, source)
        finally:
            if source is not storage:
                source.close()
    replay(session, events, verify=verify)
    logger.info("restored session from %s at event %d", directory, session.events_applied)
    session.durability.attach(session)
    if rejoin:
        return _rejoin(cls, session, directory, config, crowd)
    if keep_journal:
        if journal is None:
            journal = SessionJournal(
                directory,
                start_seq=session.events_applied + 1,
                segment_events=run_config.journal_segment_events,
            )
        else:
            journal.set_segment_events(run_config.journal_segment_events)
        session.durability.journal = journal
    return session


def _rejoin(cls, old, directory: Path, config: WorkflowConfig, crowd):
    """Restore under a *changed* result config: harvest, archive, re-join."""
    records = list(old.store)
    truth = sorted(old._truth)
    applied = old.events_applied
    old.storage.close()

    bucket = directory / ARCHIVE_DIRNAME / f"rejoin-{applied:012d}"
    bucket.mkdir(parents=True, exist_ok=True)
    for item in sorted(directory.iterdir()):
        name = item.name
        if (
            name == JOURNAL_FILENAME
            or SEGMENT_PATTERN.match(name)
            or name.startswith(STORE_FILENAME)
        ):
            item.replace(bucket / name)

    session = cls(
        config=replace(config, checkpoint_dir=str(directory)),
        cross_sources=old.cross_sources,
        **crowd,
    )
    if truth:
        session.add_truth(truth)
    size = max(1, config.stream_batch_size)
    for start in range(0, len(records), size):
        session.add_batch(records[start : start + size])
    return session
