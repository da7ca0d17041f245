"""The one upgrade path: the only module that knows an earlier store format
or a retired configuration name (``docs/storage.md`` tabulates the formats).

A reader — a restore, ``repro stats`` — runs :func:`upgrade` on the store
and :func:`upgrade_header` on its stored configuration, then reads format 5
only.  :func:`upgrade` writes in the store's open transaction: a restore
that takes the store over commits it, a refusal or a read rolls it back.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping

from repro.storage.base import StorageError
from repro.storage.sqlite import LEDGER_TABLE, LOGGED, SCHEMA_TABLES, STORE_FILENAME, SqliteStore

#: The store format this release writes.  A release refuses a newer one: a
#: format-2 reader would take format 3 for a store with an empty join index,
#: a format-3 reader a format-4 session, whose log is empty between events,
#: for a ``save(X)`` copy it may overwrite, and a format-4 reader would find
#: no ``ledger.pending`` column in format 5.
FORMAT_VERSION = 5

#: Fields a stored configuration (the log's ``session`` event or store
#: meta) written by an earlier release may still carry, each mapped to the
#: one stored value that still replays (``None``: any value).  The knobs
#: are gone — one selected a fork-per-batch join pool, one moved the store
#: out of its directory, one rotated a JSONL journal that no longer exists,
#: two switched the process's observability on from a session, two chose
#: when a durable session's state was written (a per-event mirror or a
#: whole rewrite every few events; the results were bit-identical), and
#: six were result-bearing knobs only ever used at one value in a session
#: (bounded-staleness aggregation, re-crowding voted pairs, the two-tiered
#: generator's packing solver, the match threshold, the async retry
#: backoff, the cluster-HIT generator).  A result-bearing one stored at any
#: other value cannot replay bit-identically.
RETIRED_CONFIG_FIELDS = {
    "join_pool": None,
    "storage_path": None,
    "journal_segment_events": None,
    "metrics_enabled": None,
    "trace_path": None,
    "storage_backend": None,
    "checkpoint_every_batches": None,
    "staleness_epsilon": 0,
    "recrowd_policy": "never",
    "packing_method": "column-generation",
    "decision_threshold": 0.5,
    "crowd_backoff_ticks": 2,
    "cluster_generator": "two-tiered",
}

#: ``join_backend`` values an earlier release accepted for batch engines
#: that are now all the one kernel.  A session never consulted the field,
#: so they read as ``"auto"``.
RETIRED_JOIN_BACKENDS = ("prefix", "vectorized", "parallel")

#: The flat fields an earlier release stored for the async crowd (beside
#: ``crowd_mode``), each with the ``AsyncCrowd`` field it became.
FLAT_CROWD_FIELDS = {
    "vote_timeout": "vote_timeout",
    "max_inflight_hits": "max_inflight_hits",
    "backpressure_policy": "backpressure_policy",
    "crowd_max_retries": "max_retries",
    "fault_plan": "fault_plan",
}

def upgrade_header(stored: Mapping[str, object]) -> Dict[str, object]:
    """A stored configuration in this release's field names.

    Refuses (``ValueError``) a retired result-bearing knob at a value that
    does not replay and drops the other retired names; a retired
    ``join_backend`` reads as ``"auto"``; the flat async crowd fields nest
    as the ``crowd`` dict ``WorkflowConfig`` takes (``"sync"`` drops them).
    """
    for name, replays in RETIRED_CONFIG_FIELDS.items():
        if replays is not None and stored.get(name, replays) != replays:
            raise ValueError(
                f"{name}={stored[name]!r} is a knob this release no longer has "
                f"(only {replays!r} replays), so the session cannot resume "
                "bit-identically"
            )
    config = {name: value for name, value in stored.items() if name not in RETIRED_CONFIG_FIELDS}
    if config.get("join_backend") in RETIRED_JOIN_BACKENDS:
        config["join_backend"] = "auto"
    crowd = {new: config.pop(old) for old, new in FLAT_CROWD_FIELDS.items() if old in config}
    if config.pop("crowd_mode", "sync") == "async":
        config["crowd"] = crowd
    return config


def _refuse_pending(store: SqliteStore, table: str) -> None:
    """Refuse a count of votes no posterior has seen: no session leaves one
    at an event boundary, and dropping it would skip a re-aggregation."""
    if store.query(f"SELECT 1 FROM {table} WHERE pending != 0 LIMIT 1").fetchone():
        raise StorageError(f"{store.path} holds votes no posterior has seen ({table}.pending)")


def to_2(store: SqliteStore) -> None:
    """Move format 1's pair tables into ``ledger``, one row per pair: ``pairs``
    (every candidate), ``pair_votes`` (a voted pair's votes), ``posteriors``
    and ``covered``, joined on ``(id_a, id_b)``."""
    _refuse_pending(store, "pair_votes")
    store.execute("""
        INSERT INTO ledger
        SELECT p.id_a, p.id_b, p.likelihood, v.votes, s.posterior, c.id_a IS NOT NULL
        FROM pairs AS p
        LEFT JOIN pair_votes AS v ON v.id_a = p.id_a AND v.id_b = p.id_b
        LEFT JOIN posteriors AS s ON s.id_a = p.id_a AND s.id_b = p.id_b
        LEFT JOIN covered AS c ON c.id_a = p.id_a AND c.id_b = p.id_b
    """)


def to_3(store: SqliteStore) -> None:
    """Nothing moves: format 3 keeps no join index (a restore rebuilds it),
    and :func:`upgrade` drops format 2's three undeclared index tables."""


def to_4(store: SqliteStore) -> None:
    """Format 4 deletes an event's intent in the commit that applies it and
    logs no ``commit`` outcome: delete the rows the state already covers
    (``seq <= meta.events_applied``), keeping only the unapplied tail.  A
    log that held rows was a session's (an earlier format never deleted
    one), which format 4 marks in meta."""
    if store.query("SELECT 1 FROM events LIMIT 1").fetchone():
        store.execute(
            "DELETE FROM events WHERE seq <= ?", (int(store.get_meta("events_applied", 0)),)
        )
        store.set_meta(LOGGED, True)


def to_5(store: SqliteStore) -> None:
    """Format 5 keeps state, not history: count the ``assignment_seconds``
    rows, one per crowd assignment (every earlier schema declared the
    table), into the ``session`` value, and rebuild ``ledger`` without its
    ``pending`` column (format 1 has none); :func:`upgrade` then drops the
    old table and ``assignment_seconds``."""
    if any(column == "pending" for _, column, *_ in store.query("PRAGMA table_info(ledger)")):
        _refuse_pending(store, "ledger")
        # Rebuilt, not ``DROP COLUMN``, which SQLite only has from 3.35.
        store.execute("ALTER TABLE ledger RENAME TO ledger_4")
        store.execute(LEDGER_TABLE)
        store.execute(
            "INSERT INTO ledger "
            "SELECT id_a, id_b, likelihood, votes, posterior, covered FROM ledger_4"
        )
    counts = store.query(
        "SELECT seconds, COUNT(*) FROM assignment_seconds GROUP BY seconds ORDER BY seconds"
    ).fetchall()
    if counts:
        counters = store.get_meta("session") or {}
        store.set_meta("session", {**counters, "assignment_seconds": [list(row) for row in counts]})


#: ``STEPS[n]`` brings a store from format ``n`` to format ``n + 1``.
STEPS = {1: to_2, 2: to_3, 3: to_4, 4: to_5}


def upgrade(store: SqliteStore, version: int) -> None:
    """Bring ``store``, written in format ``version``, to :data:`FORMAT_VERSION`.

    Refuses a newer format and runs the steps from ``version`` on.  Then it
    sheds, whatever the version (an earlier ``save(X)`` can stamp a newer
    one over a copy), every undeclared table, the ``metrics`` meta row, the
    ``session`` value's ``last_delta`` and the ``async`` platform's ``seen``
    ids.  A store with nothing to shed is written nothing, so reading a live
    session's store takes no write lock.
    """
    if version > FORMAT_VERSION:
        raise StorageError(
            f"{store.path} was written in store format {version}; "
            f"this release reads format {FORMAT_VERSION} and older"
        )
    for step in range(version, FORMAT_VERSION):
        STEPS[step](store)
    for table, in store.query(
        "SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
    ).fetchall():
        if table not in SCHEMA_TABLES:
            store.execute(f'DROP TABLE "{table}"')
    if store.query("SELECT 1 FROM meta WHERE key = 'metrics'").fetchone():
        store.execute("DELETE FROM meta WHERE key = 'metrics'")
    counters = store.get_meta("session")
    if counters and counters.pop("last_delta", None) is not None:
        store.set_meta("session", counters)
    flight = store.get_meta("async")
    if flight and flight["platform"].pop("seen", None) is not None:
        store.set_meta("async", flight)
    if version != FORMAT_VERSION:
        store.set_meta("version", FORMAT_VERSION)


def refuse_earlier_files(directory: Path, restoring: bool = False) -> None:
    """Refuse a directory holding an earlier release's JSONL journal and,
    for a restore, one with no store file, naming any ``snapshot-*.pkl``
    there.  Existence checks: neither kind of file is ever opened."""
    legacy = sorted(directory.glob("journal*.jsonl"))
    if legacy:
        raise StorageError(
            f"{directory} holds {legacy[0].name}, written by an earlier release "
            "whose JSONL journal is no longer read; restore the session with the "
            "release that wrote it and save(X) it — a store-only copy this "
            "release reads"
        )
    if restoring and not (directory / STORE_FILENAME).exists():
        legacy = sorted(item.name for item in directory.glob("snapshot-*.pkl"))
        raise StorageError(
            f"{directory} holds no session store"
            + (f"; {legacy[-1]} was written by an earlier release, whose "
               "snapshot files are no longer read" if legacy else "")
        )
