"""The one upgrade path: the only module that knows an earlier store format
(``docs/storage.md`` tabulates the formats).

This release reads store formats 5 and 6 and refuses anything older.  A
reader — a restore, ``repro stats``, a ``save(X)`` over an earlier copy —
runs :func:`upgrade` on the store, then reads format 6 only.
:func:`upgrade` writes in the store's open transaction: a restore that
takes the store over commits it, a refusal or a read rolls it back.
"""

from __future__ import annotations

from pathlib import Path

from repro.storage.base import StorageError
from repro.storage.sqlite import LEDGER_TABLE, SCHEMA_TABLES, STORE_FILENAME, SqliteStore

#: The store format this release writes.  A release refuses a newer one: a
#: format-5 reader, for one, would find no ``ledger.covered`` column in
#: format 6.
FORMAT_VERSION = 6


def to_6(store: SqliteStore) -> None:
    """Format 6 stores no HIT coverage, which every HIT batch derives:
    rebuild ``ledger`` without its ``covered`` column; :func:`upgrade` then
    drops the old table."""
    # Rebuilt, not ``DROP COLUMN``, which SQLite only has from 3.35.
    store.execute("ALTER TABLE ledger RENAME TO ledger_5")
    store.execute(LEDGER_TABLE)
    store.execute("INSERT INTO ledger SELECT id_a, id_b, likelihood, votes, posterior FROM ledger_5")


#: ``STEPS[n]`` brings a store from format ``n`` to format ``n + 1``.  The
#: window is the current format and the one before it: a format bump adds a
#: step and deletes the oldest, with its fixture.
STEPS = {5: to_6}


def upgrade(store: SqliteStore, version: int) -> None:
    """Bring ``store``, written in format ``version``, to :data:`FORMAT_VERSION`.

    Refuses a format outside the window — newer than this release, or older
    than its oldest step — before it writes anything, and runs the steps
    from ``version`` on.  Then it sheds, whatever the version (an earlier
    ``save(X)`` can stamp a newer one over a copy), every undeclared table,
    the ``metrics`` meta row, the ``session`` value's ``last_delta`` and the
    ``async`` platform's ``seen`` ids.  A store with nothing to shed is
    written nothing, so reading a live session's store takes no write lock.
    """
    if not min(STEPS) <= version <= FORMAT_VERSION:
        refusal = (
            f"{store.path} was written in store format {version}; this release reads "
            f"formats {min(STEPS)} to {FORMAT_VERSION} only"
        )
        if version < min(STEPS):
            refusal += (" — restore it once under a release that still upgrades it "
                        "(docs/storage.md names the last one)")
        raise StorageError(refusal)
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
