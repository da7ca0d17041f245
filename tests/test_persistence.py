"""Tests for durable streaming sessions (repro.streaming.persistence).

The central contract: a session that crashes after *any* prefix of logged
events and is restored produces — after replaying the remaining events —
results bit-identical to a session that never stopped: same matches, same
posteriors (to the last float bit), same ranked pairs, same crowd cost.
On top of that, the event log (a table of the session's one SQLite file)
must detect tampering loudly (CRC, sequence gaps, diverging outcomes) and
survive what a crash really leaves behind (a torn SQLite WAL, a
``SIGKILL``), the store's state must be rewritten atomically, the store
must never be ahead of its log, and both storage backends must leave — and
restore from — the same file.
"""

import ast
import dataclasses
import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.core.config import WorkflowConfig
from repro.datasets.restaurant import RestaurantGenerator
from repro.records.record import Record
from repro.storage import STORE_FILENAME, SqliteStore
from repro.streaming import (
    JournalCorruptionError,
    PersistenceError,
    SessionJournal,
    StreamingResolver,
    persistence,
)

from strategies import crash_copy, drive, event_schedules


def make_dataset(record_count=60, duplicate_pairs=10, seed=13):
    return RestaurantGenerator(
        record_count=record_count, duplicate_pairs=duplicate_pairs, seed=seed
    ).generate()


def make_config(**overrides):
    base = dict(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority"
    )
    base.update(overrides)
    return WorkflowConfig(**base)


def assert_sessions_identical(left, right):
    """Bit-identical session state: results, digest and workload counters."""
    snap_left, snap_right = left.snapshot(), right.snapshot()
    assert snap_left.matches == snap_right.matches
    assert snap_left.posteriors == snap_right.posteriors
    assert snap_left.likelihoods == snap_right.likelihoods
    assert snap_left.ranked_pairs == snap_right.ranked_pairs
    assert snap_left.cost == snap_right.cost
    assert snap_left.hit_count == snap_right.hit_count
    assert snap_left.assignment_count == snap_right.assignment_count
    assert left.state_digest() == right.state_digest()
    assert left.covered_pairs() == right.covered_pairs()


def stored_events_applied(directory):
    """The log position the directory's state tables reflect (None: never written)."""
    store = SqliteStore(directory / STORE_FILENAME)
    try:
        return store.get_meta("events_applied")
    finally:
        store.close()


def logged_events(directory, after=0):
    """The verified events of a directory's log, read on a connection of its own."""
    store = SqliteStore(directory / STORE_FILENAME)
    try:
        return SessionJournal(store).events(after=after)
    finally:
        store.close()


def rewrite_event(directory, seq, edit, fix_crc):
    """Tamper with one logged payload (optionally recomputing its CRC)."""
    connection = sqlite3.connect(str(directory / STORE_FILENAME))
    with connection:
        event_type, text = connection.execute(
            "SELECT type, payload FROM events WHERE seq = ?", (seq,)
        ).fetchone()
        payload = json.loads(text)
        edit(payload)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        connection.execute("UPDATE events SET payload = ? WHERE seq = ?", (text, seq))
        if fix_crc:
            connection.execute(
                "UPDATE events SET crc = ? WHERE seq = ?",
                (persistence._entry_crc(seq, event_type, text), seq),
            )
    connection.close()


def stream(resolver, dataset, size=17):
    resolver.add_truth(dataset.ground_truth)
    records = list(dataset.store)
    for start in range(0, len(records), size):
        resolver.add_batch(records[start : start + size])
    return resolver


# ----------------------------------------------------------------- the log
class TestSessionJournal:
    @pytest.fixture
    def journal(self, tmp_path):
        store = SqliteStore(tmp_path / STORE_FILENAME)
        yield SessionJournal(store)
        store.close()

    def test_append_and_read_back(self, tmp_path, journal):
        assert journal.append("batch", {"records": [1, 2]}) == 1
        assert journal.append("flush", {}) == 2
        for events in (journal.events(), logged_events(tmp_path)):
            assert [(e.seq, e.type) for e in events] == [(1, "batch"), (2, "flush")]
            assert events[0].payload == {"records": [1, 2]}
        assert [e.seq for e in journal.events(after=1)] == [2]

    def test_an_appended_event_is_on_stable_storage(self, tmp_path, journal):
        """Attaching a log makes every commit fsync (``synchronous=FULL`` = 2);
        a store nobody logs to stays on the cheaper ``NORMAL`` (1)."""
        assert journal.store.query("PRAGMA synchronous").fetchone()[0] == 2
        plain = SqliteStore(tmp_path / "plain" / STORE_FILENAME)
        assert plain.query("PRAGMA synchronous").fetchone()[0] == 1
        plain.close()

    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_a_logged_session_commits_with_synchronous_full(self, tmp_path, backend):
        resolver = StreamingResolver(
            config=make_config(storage_backend=backend, checkpoint_dir=str(tmp_path))
        )
        store = resolver.durability.journal.store
        assert store.query("PRAGMA synchronous").fetchone()[0] == 2
        resolver.durability.close()
        restored = StreamingResolver.restore(tmp_path)
        store = restored.durability.journal.store
        assert store.query("PRAGMA synchronous").fetchone()[0] == 2
        restored.durability.close()

    def test_a_rewritten_payload_fails_its_checksum(self, tmp_path, journal):
        for n in range(3):
            journal.append("batch", {"n": n})
        rewrite_event(tmp_path, 2, lambda payload: payload.update(n=99), fix_crc=False)
        with pytest.raises(JournalCorruptionError, match="event 2 "):
            journal.events()
        assert [e.seq for e in journal.events(after=2)] == [3]

    def test_a_deleted_row_is_a_sequence_gap(self, tmp_path, journal):
        for n in range(3):
            journal.append("batch", {"n": n})
        journal.store.execute("DELETE FROM events WHERE seq = 2")
        journal.store.commit()
        with pytest.raises(JournalCorruptionError, match="sequence 3, expected 2"):
            journal.events()

    def test_the_log_of_a_store_only_copy_starts_after_its_state(self, tmp_path):
        """A ``save(X)`` copy holds state but no events; a log attached to
        it continues at ``meta.events_applied + 1``."""
        store = SqliteStore(tmp_path / STORE_FILENAME)
        store.set_meta("events_applied", 7)
        store.commit()
        journal = SessionJournal(store)
        assert journal.append("flush", {}) == 8
        assert [e.seq for e in journal.events(after=7)] == [8]
        store.close()


# ------------------------------------------------------- materialisation
class TestMaterialisation:
    """``store.sqlite`` is the one on-disk form of a session's state."""

    def test_rewrite_replaces_the_previous_contents(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        resolver = StreamingResolver(config=make_config())
        resolver.add_truth(dataset.ground_truth)
        resolver.add_batch(records[:20])
        resolver.save(tmp_path)
        resolver.add_batch(records[20:40])
        resolver.retract(records[3].record_id)
        assert resolver.save(tmp_path) == tmp_path / STORE_FILENAME
        assert sorted(item.name for item in tmp_path.iterdir()) == [STORE_FILENAME]
        restored = StreamingResolver.restore(tmp_path)
        assert_sessions_identical(resolver, restored)
        assert sorted(restored.store.record_ids) == sorted(resolver.store.record_ids)
        restored.durability.close()

    def test_failed_materialisation_keeps_the_previous_store(
        self, tmp_path, monkeypatch
    ):
        """An exception in the middle of a materialisation rolls the one
        transaction back: the previous store contents plus the journal
        still restore bit-identically."""
        dataset = make_dataset()
        records = list(dataset.store)
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=0)
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        resolver.add_batch(records[:20])
        resolver.save()
        covered = stored_events_applied(tmp_path)
        resolver.add_batch(records[20:40])
        resolver.update(records[5].with_attributes(name="revised"))

        def torn(self, ledger):
            raise OSError("disk full half-way through the rewrite")

        with monkeypatch.context() as failing:
            # Records and the join substrate are already rewritten when the
            # ledger write fails.
            failing.setattr(SqliteStore, "write_ledger", torn)
            with pytest.raises(OSError):
                resolver.save()
        assert stored_events_applied(tmp_path) == covered
        # The session still holds its directory: restore a copy of it.
        copy = crash_copy(tmp_path, tmp_path / "copy", after=resolver.events_applied)
        restored = StreamingResolver.restore(copy)
        assert restored.durability.store.get_meta("events_applied") == covered
        assert_sessions_identical(resolver, restored)
        restored.durability.close()
        # ... and the session itself carries on: the next save succeeds.
        resolver.save()
        assert stored_events_applied(tmp_path) == resolver.events_applied

    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_save_to_a_foreign_directory_materialises_there(self, tmp_path, backend):
        """``save(X)`` writes ``X/store.sqlite`` for either backend (a
        sqlite-backed session used to ignore ``X``)."""
        home, foreign = tmp_path / "home", tmp_path / "foreign"
        dataset = make_dataset()
        resolver = stream(
            StreamingResolver(
                config=make_config(storage_backend=backend, checkpoint_dir=str(home))
            ),
            dataset,
        )
        assert resolver.save(foreign) == foreign / STORE_FILENAME
        assert sorted(item.name for item in foreign.iterdir()) == [STORE_FILENAME]
        restored = StreamingResolver.restore(foreign)
        assert_sessions_identical(resolver, restored)
        assert resolver.save() == home / STORE_FILENAME  # its own place, as ever
        restored.durability.close()
        resolver.durability.close()

    def test_backends_leave_stores_that_page_in_identically(self, tmp_path):
        """The same schedule through a memory- and a sqlite-backed session
        leaves two stores that each page in to the same session, under the
        backend that wrote it."""
        dataset = make_dataset()
        records = list(dataset.store)
        sessions = {}
        for backend in ("memory", "sqlite"):
            config = make_config(
                storage_backend=backend, checkpoint_dir=str(tmp_path / backend)
            )
            session = stream(StreamingResolver(config=config), dataset)
            session.retract(records[2].record_id)
            session.update(records[4].with_attributes(name="rewritten"))
            session.flush()
            session.save()
            sessions[backend] = session
        assert_sessions_identical(sessions["memory"], sessions["sqlite"])
        for written, session in sessions.items():
            session.durability.close()
            restored = StreamingResolver.restore(tmp_path / written)
            assert restored.storage.backend_name == written
            assert_sessions_identical(sessions["memory"], restored)
            restored.durability.close()

    def test_legacy_snapshot_only_directory_is_refused_unread(self, tmp_path):
        """A directory holding only ``snapshot-*.pkl`` raises naming the
        file; its bytes are never interpreted."""
        legacy = tmp_path / "snapshot-000000000007.pkl"
        # Anything that tried to load this would fail differently (or worse).
        legacy.write_bytes(b"cos\nsystem\n(S'false'\ntR.")
        with pytest.raises(PersistenceError, match="snapshot-000000000007.pkl"):
            StreamingResolver.restore(tmp_path)
        assert legacy.read_bytes() == b"cos\nsystem\n(S'false'\ntR."


    @pytest.mark.parametrize(
        "name", ("journal.jsonl", "journal-000000000001-000000000004.jsonl")
    )
    @pytest.mark.parametrize("beside_a_store", (False, True))
    def test_legacy_jsonl_journal_is_refused_by_name_unread(
        self, tmp_path, name, beside_a_store
    ):
        """The JSONL journal of an earlier release is no longer read: restore
        and a fresh session both refuse the directory naming the file and the
        way out, on an existence check alone."""
        if beside_a_store:
            StreamingResolver(config=make_config()).save(tmp_path)
        legacy = tmp_path / name
        legacy.write_bytes(b"\x00 not json, not a journal \x00")
        for attempt in (
            lambda: StreamingResolver.restore(tmp_path),
            lambda: StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path))),
        ):
            with pytest.raises(PersistenceError, match=name) as refused:
                attempt()
            assert "save(X)" in str(refused.value)
        assert legacy.read_bytes() == b"\x00 not json, not a journal \x00"


class TestStructure:
    @staticmethod
    def imported_modules(path):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        return names

    def test_no_module_imports_or_mentions_pickle(self):
        for path in sorted(Path(next(iter(repro.__path__))).rglob("*.py")):
            assert "pickle" not in path.read_text(), path

    def test_the_session_module_does_no_io_imports(self):
        from repro.streaming import session

        imported = self.imported_modules(Path(session.__file__))
        for forbidden in ("pathlib", "sqlite3", "os", "repro.storage.sqlite"):
            assert not any(
                name == forbidden or name.startswith(forbidden + ".")
                for name in imported
            ), forbidden
        assert "repro.storage.SqliteStore" not in imported

    def test_the_session_module_knows_no_crowd_mode(self):
        """Everything that publishes a HIT or waits for a vote sits behind the
        crowd driver: the session imports no platform, fault plan or HIT
        generator, never reads ``crowd_mode``, and folds votes in one place."""
        from repro.streaming import session

        path = Path(session.__file__)
        imported = self.imported_modules(path)
        for forbidden in ("repro.crowd.async_platform", "repro.crowd.faults", "repro.hit"):
            assert not any(
                name == forbidden or name.startswith(forbidden + ".")
                for name in imported
            ), forbidden
        tree = ast.parse(path.read_text())
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not {"crowd_mode", "crowd"} & attributes
        folds = [
            source.name
            for source in Path(next(iter(repro.__path__))).rglob("*.py")
            if source.parent.name != "storage"
            for node in ast.walk(ast.parse(source.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "record_fresh_votes"
        ]
        assert folds == ["session.py"]

    def test_persistence_names_no_crowd_state(self):
        """The stored form of the crowd state is the driver's ``state_dict``."""
        source = Path(persistence.__file__).read_text()
        for name in ("slot_votes", "inflight", "starved", "hit_count =", "_cost"):
            assert name not in source, name
        assert source.count("driver.state_dict()") >= 1
        assert source.count("driver.load_state_dict(") == 1

    def test_only_the_crowd_driver_and_its_platform_keep_a_state_dict(self):
        """The crowd side's stored form has one owner (the driver, which
        nests the async platform's); nothing else in ``src/`` serialises itself."""
        owners = set()
        for path in Path(next(iter(repro.__path__))).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and item.name in (
                            "state_dict", "load_state_dict", "from_state_dict"
                        ):
                            owners.add(node.name)
        assert owners == {"AsyncCrowdPlatform", "CrowdDriver"}


# ------------------------------------------------------- save/restore basics
class TestSaveRestore:
    def test_save_restore_round_trip_without_journal(self, tmp_path):
        dataset = make_dataset()
        resolver = StreamingResolver(config=make_config())
        resolver.add_truth(dataset.ground_truth)
        records = list(dataset.store)
        for start in range(0, len(records), 17):
            resolver.add_batch(records[start : start + 17])
        resolver.save(tmp_path)
        restored = StreamingResolver.restore(tmp_path)
        assert_sessions_identical(resolver, restored)

    def test_durable_session_restores_bit_identically(self, tmp_path):
        dataset = make_dataset()
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=2)
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        records = list(dataset.store)
        for start in range(0, len(records), 17):
            resolver.add_batch(records[start : start + 17])
        resolver.durability.close()
        restored = StreamingResolver.restore(tmp_path)
        assert_sessions_identical(resolver, restored)
        restored.durability.close()

    def test_restored_session_continues_identically(self, tmp_path):
        dataset = make_dataset(record_count=80, duplicate_pairs=12)
        records = list(dataset.store)
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=3)
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 40, 13):
            resolver.add_batch(records[start:][: min(13, 40 - start)])
        # Both go on writing, so the restored twin resumes a copy.
        restored = StreamingResolver.restore(
            crash_copy(tmp_path, tmp_path / "twin", after=resolver.events_applied)
        )
        # Both sessions now see the same future: arrivals, a retraction, an
        # update and a flush; they must stay in lockstep bit-for-bit.
        tail = records[40:]
        victim = records[3].record_id
        revised = records[5].with_attributes(name="revised beyond recognition")
        for session in (resolver, restored):
            session.add_batch(tail[:20])
            session.retract(victim)
            session.update(revised)
            session.add_batch(tail[20:])
            session.flush()
        assert_sessions_identical(resolver, restored)
        resolver.durability.close()
        restored.durability.close()

    def _written_by_an_earlier_release(self, tmp_path, monkeypatch, durability, legacy):
        """Run a session whose stored config carries the ``legacy`` entries;
        returns it with the config its store meta / journal header holds."""
        config_payload = persistence.config_payload
        dataset = make_dataset()
        records = list(dataset.store)
        journaled = durability == "journal"
        with monkeypatch.context() as patched:
            patched.setattr(
                persistence, "config_payload",
                lambda config: {**config_payload(config), **legacy},
            )
            config = (
                make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=0)
                if journaled else make_config()
            )
            resolver = StreamingResolver(config=config)
            resolver.add_truth(dataset.ground_truth)
            for start in range(0, len(records), 17):
                resolver.add_batch(records[start : start + 17])
            if journaled:
                stored = logged_events(tmp_path)[0].payload["config"]
            else:
                resolver.save(tmp_path)
                store = SqliteStore(tmp_path / STORE_FILENAME)
                stored = store.get_meta("config")
                store.close()
        return resolver, stored

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    def test_session_written_with_retired_knobs_restores(
        self, tmp_path, monkeypatch, durability
    ):
        """A checkpoint of an earlier release still carries retired knobs in
        its stored config (store ``config`` meta / the log's ``session``
        event); restore drops them — the result-bearing ones at their old
        defaults, and the observability pair at any value, without switching
        observability on."""
        legacy = {
            "join_pool": "fork",
            "storage_path": str(tmp_path / "elsewhere.sqlite"),
            "journal_segment_events": 512,
            "metrics_enabled": True,
            "trace_path": str(tmp_path / "trace.jsonl"),
            "staleness_epsilon": 0,
            "recrowd_policy": "never",
            "packing_method": "column-generation",
            "decision_threshold": 0.5,
            "crowd_backoff_ticks": 2,
        }
        assert set(legacy) == set(persistence.RETIRED_CONFIG_FIELDS)
        obs.deactivate()
        resolver, stored = self._written_by_an_earlier_release(
            tmp_path, monkeypatch, durability, legacy
        )
        assert {name: stored[name] for name in legacy} == legacy
        resolver.durability.close()
        restored = StreamingResolver.restore(tmp_path)
        assert_sessions_identical(resolver, restored)
        restored.durability.close()
        assert not obs.enabled()
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    @pytest.mark.parametrize("name, value", (
        ("staleness_epsilon", 8),
        ("recrowd_policy", "dirty"),
        ("packing_method", "ffd"),
        ("decision_threshold", 0.7),
        ("crowd_backoff_ticks", 3),
    ))
    def test_a_retired_result_knob_in_use_refuses_to_restore(
        self, tmp_path, monkeypatch, durability, name, value
    ):
        """Such a session cannot replay bit-identically: restore names the
        knob and its value before paging anything in."""
        self._written_by_an_earlier_release(tmp_path, monkeypatch, durability, {name: value})
        monkeypatch.setattr(persistence, "_page_in", lambda *_: pytest.fail("paged in"))
        with pytest.raises(PersistenceError, match=f"{name}={value!r}"):
            StreamingResolver.restore(tmp_path)

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    def test_a_newer_store_format_refuses_to_restore(self, tmp_path, monkeypatch, durability):
        """A header (store meta / the log's ``session`` event) whose
        ``version`` is newer than this release's format is refused before
        page-in, naming both numbers — not silently read as this format."""
        with monkeypatch.context() as patched:
            patched.setattr(persistence, "FORMAT_VERSION", 99)
            self._written_by_an_earlier_release(tmp_path, monkeypatch, durability, {})
        if durability == "journal":
            assert logged_events(tmp_path)[0].payload["version"] == 99
        else:
            store = SqliteStore(tmp_path / STORE_FILENAME)
            assert store.get_meta("version") == 99
            store.close()
        monkeypatch.setattr(persistence, "_page_in", lambda *_: pytest.fail("paged in"))
        with pytest.raises(PersistenceError, match="store format 99; this release reads format 1"):
            StreamingResolver.restore(tmp_path)

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    @pytest.mark.parametrize("retired", persistence.RETIRED_JOIN_BACKENDS)
    def test_session_written_with_a_retired_join_backend_restores(
        self, tmp_path, monkeypatch, retired, durability
    ):
        """``join_backend`` used to name batch engines that are now all the
        one kernel; a stored header carrying one restores as ``"auto"``."""
        resolver, stored = self._written_by_an_earlier_release(
            tmp_path, monkeypatch, durability, {"join_backend": retired}
        )
        assert stored["join_backend"] == retired
        resolver.durability.close()
        restored = StreamingResolver.restore(tmp_path)
        assert restored.config.join_backend == "auto"
        assert_sessions_identical(resolver, restored)
        restored.durability.close()

    def test_save_requires_a_path_or_checkpoint_dir(self):
        resolver = StreamingResolver(config=make_config())
        with pytest.raises(PersistenceError):
            resolver.save()

    def test_restore_of_empty_directory_fails(self, tmp_path):
        with pytest.raises(PersistenceError):
            StreamingResolver.restore(tmp_path / "void")

    def test_fresh_session_refuses_occupied_checkpoint_dir(self, tmp_path):
        config = make_config(checkpoint_dir=str(tmp_path))
        StreamingResolver(config=config).add_batch(
            [Record("r1", {"t": "alpha"}), Record("r2", {"t": "alpha"})]
        )
        with pytest.raises(PersistenceError):
            StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))

    def test_occupancy_is_an_existence_check(self, tmp_path):
        """A store file in the directory means occupied; the constructor
        does not open or load it to find out."""
        (tmp_path / STORE_FILENAME).write_bytes(b"\x00 not a store \x00")
        with pytest.raises(PersistenceError, match="already holds a session"):
            StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        assert (tmp_path / STORE_FILENAME).read_bytes() == b"\x00 not a store \x00"

    def test_sqlite_backend_without_a_checkpoint_dir_fails_at_construction(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            make_config(storage_backend="sqlite")

    def test_replay_verification_catches_tampering(self, tmp_path):
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=0)
        resolver = StreamingResolver(config=config)
        resolver.add_truth([("r1", "r2")])
        resolver.add_batch(
            [Record("r1", {"t": "alpha beta"}), Record("r2", {"t": "alpha beta"})]
        )
        resolver.durability.close()
        truth, commit = (
            next(event.seq for event in logged_events(tmp_path) if event.type == kind)
            for kind in ("truth", "commit")
        )
        # An outcome whose digest was tampered with passes its (recomputed)
        # CRC and still fails verification ...
        crashed = crash_copy(tmp_path, tmp_path / "digest", after=commit)
        rewrite_event(
            crashed, commit, lambda payload: payload.update(digest="0" * 64), fix_crc=True
        )
        with pytest.raises(JournalCorruptionError, match="digest"):
            StreamingResolver.restore(crashed)
        # ... and so does a rewritten intent: the replay diverges from the
        # votes and digest its outcome recorded.
        rewrite_event(tmp_path, truth, lambda payload: payload.update(pairs=[]), fix_crc=True)
        with pytest.raises(JournalCorruptionError):
            StreamingResolver.restore(tmp_path)

    def test_snapshot_restore_skips_replayed_prefix(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=1)
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 20):
            resolver.add_batch(records[start : start + 20])
        assert stored_events_applied(tmp_path) == resolver.events_applied  # current
        resolver.durability.close()
        restored = StreamingResolver.restore(tmp_path)
        assert restored.events_applied == resolver.events_applied
        assert_sessions_identical(resolver, restored)
        restored.durability.close()


# ----------------------------------------------- crash-recovery (property)
def run_schedule(resolver, dataset, schedule):
    """Apply a deterministic event schedule to a session."""
    records = list(dataset.store)
    cursor = 0
    for action, argument in schedule:
        if action == "batch":
            batch = records[cursor : cursor + argument]
            cursor += argument
            if batch:
                resolver.add_batch(batch)
        elif action == "retract":
            resident = sorted(resolver.store.record_ids)
            if resident:
                resolver.retract(resident[argument % len(resident)])
        elif action == "update":
            resident = sorted(resolver.store.record_ids)
            if resident:
                record = resolver.store.get(resident[argument % len(resident)])
                resolver.update(
                    record.with_attributes(name=f"revision {argument}")
                )
        elif action == "flush":
            resolver.flush()


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    data=st.data(),
    schedule=st.lists(
        st.one_of(
            st.tuples(st.just("batch"), st.integers(min_value=1, max_value=25)),
            st.tuples(st.just("retract"), st.integers(min_value=0, max_value=10_000)),
            st.tuples(st.just("update"), st.integers(min_value=0, max_value=10_000)),
            st.tuples(st.just("flush"), st.just(0)),
        ),
        min_size=2,
        max_size=7,
    ),
)
def test_property_crash_at_any_point_recovers_bit_identically(
    tmp_path_factory, data, schedule
):
    """Crash after any log prefix -> restore -> replay tail == no crash.

    One uninterrupted durable session runs a random schedule of batches,
    retractions, updates and flushes.  Its store is then copied as a crash
    after a random log entry would have left it, the session is restored
    from the surviving prefix, and the same schedule is re-driven from
    where the log left off by replaying the *full* log against the restored
    state — the result must equal the uninterrupted session bit-for-bit.
    """
    directory = tmp_path_factory.mktemp("crash")
    dataset = make_dataset(record_count=50, duplicate_pairs=8, seed=29)
    config = make_config(
        checkpoint_dir=str(directory), checkpoint_every_batches=data.draw(
            st.sampled_from([0, 1, 3]), label="checkpoint_every"
        )
    )
    resolver = StreamingResolver(config=config)
    resolver.add_truth(dataset.ground_truth)
    run_schedule(resolver, dataset, schedule)

    full_log = logged_events(directory)
    crash_after = data.draw(
        st.integers(min_value=1, max_value=len(full_log)), label="crash_after"
    )

    # Simulate the crash: only the first `crash_after` log entries (and
    # state tables written at or before that point) survive.
    crash_dir = crash_copy(directory, tmp_path_factory.mktemp("recover"), crash_after)
    restored = StreamingResolver.restore(crash_dir)
    assert restored.events_applied <= crash_after

    # Re-drive the lost tail: replay the full log's remaining events
    # through the public replay entry point (exactly what a re-submitted
    # workload would do), then compare against the uninterrupted session.
    persistence.replay(restored, full_log)
    assert_sessions_identical(resolver, restored)
    restored.durability.close()
    resolver.durability.close()


# ------------------------------------------ what a crash really leaves behind
@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), schedule=event_schedules(min_size=2, max_size=5))
def test_property_torn_wal_restores_a_prefix_and_converges(
    tmp_path_factory, backend, data, schedule
):
    """Crash safety rests on SQLite's WAL, so tear it.

    The store and its ``-wal`` are copied while the session is open and the
    WAL copy is truncated at an arbitrary byte: SQLite recovers the longest
    checksummed prefix of committed transactions, so restore (verifying)
    lands on *some* event at or before the live one — never on a half
    event — and replaying the rest of the log converges bit-identically.
    """
    directory = tmp_path_factory.mktemp("live")
    dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
    config = make_config(
        storage_backend=backend,
        checkpoint_dir=str(directory),
        checkpoint_every_batches=data.draw(st.sampled_from([0, 2]), label="cadence"),
    )
    resolver = StreamingResolver(config=config)
    resolver.add_truth(dataset.ground_truth)
    drive(resolver, list(dataset.store), schedule)
    full_log = logged_events(directory)

    torn = tmp_path_factory.mktemp("torn")
    shutil.copy(directory / STORE_FILENAME, torn / STORE_FILENAME)
    wal = (directory / (STORE_FILENAME + "-wal")).read_bytes()
    keep = data.draw(st.integers(min_value=0, max_value=len(wal)), label="wal_bytes")
    (torn / (STORE_FILENAME + "-wal")).write_bytes(wal[:keep])

    try:
        restored = StreamingResolver.restore(torn)
    except PersistenceError:
        # Only a tear before the constructor's first commit leaves nothing
        # to restore: the session never existed.
        assert logged_events(torn) == []
    else:
        assert restored.events_applied <= resolver.events_applied
        persistence.replay(restored, full_log)
        assert_sessions_identical(resolver, restored)
        restored.durability.close()
    resolver.durability.close()


_KILLED_CHILD = """
    import sys, time
    from repro.core.config import WorkflowConfig
    from repro.datasets.restaurant import RestaurantGenerator
    from repro.streaming import StreamingResolver

    backend, directory = sys.argv[1:]
    dataset = RestaurantGenerator(record_count=120, duplicate_pairs=20, seed=13).generate()
    records = list(dataset.store)
    resolver = StreamingResolver(config=WorkflowConfig(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority",
        storage_backend=backend, checkpoint_dir=directory, checkpoint_every_batches=3,
    ))
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, len(records), 4):
        resolver.add_batch(records[start : start + 4])
        if start == 8:
            print("ready", flush=True)
    time.sleep(600)  # finished before the kill landed: wait for it
"""


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_sigkill_mid_stream_restores_and_finishes_identically(tmp_path, backend):
    """A real process, really killed: whatever ``SIGKILL`` left in the
    directory restores, and the rest of the schedule ends where an
    uninterrupted run does."""
    source_root = str(Path(next(iter(repro.__path__))).parent)
    child = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(_KILLED_CHILD), backend, str(tmp_path)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    try:
        assert child.stdout.readline().strip() == b"ready"
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stdout.close()

    dataset = make_dataset(record_count=120, duplicate_pairs=20, seed=13)
    records = list(dataset.store)
    uninterrupted = StreamingResolver(config=make_config())
    uninterrupted.add_truth(dataset.ground_truth)
    for start in range(0, len(records), 4):
        uninterrupted.add_batch(records[start : start + 4])

    restored = StreamingResolver.restore(tmp_path)
    assert restored.storage.backend_name == backend
    done = restored.record_count
    assert 12 <= done <= len(records) and done % 4 == 0
    for start in range(done, len(records), 4):
        restored.add_batch(records[start : start + 4])
    assert_sessions_identical(uninterrupted, restored)
    restored.durability.close()
    assert sorted(item.name for item in tmp_path.iterdir()) == [STORE_FILENAME]


@pytest.mark.parametrize("crowd_mode", ("sync", "async"))
@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_a_durable_session_is_one_file(tmp_path, backend, crowd_mode):
    """Running, saving and restoring (a restored session too) never leave
    anything in the directory but ``store.sqlite`` (and, while a connection
    is open, SQLite's own ``-wal``/``-shm``)."""
    one_file = {STORE_FILENAME}
    while_open = one_file | {STORE_FILENAME + "-wal", STORE_FILENAME + "-shm"}

    def listing():
        return {item.name for item in tmp_path.iterdir()}

    dataset = make_dataset()
    records = list(dataset.store)
    config = make_config(
        storage_backend=backend,
        checkpoint_dir=str(tmp_path),
        checkpoint_every_batches=2,
        crowd_mode=crowd_mode,
    )
    resolver = StreamingResolver(config=config)
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, 40, 10):
        resolver.add_batch(records[start : start + 10])
    assert listing() == while_open
    resolver.save()
    assert listing() == while_open
    resolver.durability.close()
    resolver.durability.close()  # idempotent
    assert listing() == one_file

    for victim in range(2):
        restored = StreamingResolver.restore(tmp_path)
        restored.retract(records[victim].record_id)
        restored.flush()
        assert listing() == while_open
        restored.durability.close()
        assert listing() == one_file


# --------------------------------------------- the store is never ahead of its log
def log_and_state_positions(directory):
    """``(MAX(events.seq), meta.events_applied)`` inside one read transaction."""
    connection = sqlite3.connect(str(directory / STORE_FILENAME), isolation_level=None)
    try:
        connection.execute("BEGIN")
        logged = connection.execute("SELECT MAX(seq) FROM events").fetchone()[0]
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'events_applied'"
        ).fetchone()
        return logged, (json.loads(row[0]) if row else None)
    finally:
        connection.close()


@pytest.mark.parametrize("start", ("fresh", "restored"))
@pytest.mark.parametrize("crowd_mode", ("sync", "async"))
@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_the_state_and_the_log_advance_in_one_commit(tmp_path, backend, crowd_mode, start):
    """After every event ``meta.events_applied == MAX(events.seq)``: the
    state rows (mirrored, or rewritten at a cadence of 1), the counters and
    the outcome row are one transaction, so no reader — and no crash — ever
    sees the store ahead of the log or an outcome without its state.  A
    restored session keeps them in step too: it takes the log over, so
    every event it applies after the restore — and the votes it buys for
    it — are logged."""
    dataset = make_dataset()
    records = list(dataset.store)
    config = make_config(
        storage_backend=backend,
        checkpoint_dir=str(tmp_path),
        checkpoint_every_batches=1,
        crowd_mode=crowd_mode,
    )
    resolver = StreamingResolver(config=config)
    # An event without an outcome never triggers the cadence: the
    # memory-backed store has no state yet, the mirrored one is current.
    resolver.add_truth(dataset.ground_truth)
    logged, applied = log_and_state_positions(tmp_path)
    assert applied == (logged if backend == "sqlite" else None)
    events = [
        lambda: resolver.add_batch(records[:15]),
        lambda: resolver.add_batch(records[15:30]),
        lambda: resolver.retract(records[2].record_id),
        lambda: resolver.update(records[4].with_attributes(name="rewritten")),
        lambda: resolver.add_batch(records[30:45]),
        lambda: resolver.flush(),
        lambda: resolver.save(),
    ]
    for index, event in enumerate(events):
        if start == "restored" and index == 2:
            resolver.durability.close()
            resolver = StreamingResolver.restore(tmp_path)
            logged, applied = log_and_state_positions(tmp_path)
            assert logged == applied == resolver.events_applied
        event()
        logged, applied = log_and_state_positions(tmp_path)
        assert logged == applied == resolver.events_applied
    resolver.durability.close()
    logged, applied = log_and_state_positions(tmp_path)
    assert logged == applied

    # Between cadence points a memory-backed store trails its log; it never leads.
    lagging = tmp_path / "lagging"
    resolver = StreamingResolver(
        config=dataclasses.replace(
            config,
            storage_backend="memory",
            checkpoint_dir=str(lagging),
            checkpoint_every_batches=2,
        )
    )
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, 45, 9):
        resolver.add_batch(records[start : start + 9])
        logged, applied = log_and_state_positions(lagging)
        assert (applied or 0) <= logged == resolver.events_applied
    resolver.durability.close()
