"""Tests for durable streaming sessions (repro.streaming.persistence).

The central contract: a session that crashes after *any* prefix of logged
events and is restored produces — after replaying the remaining events —
results bit-identical to a session that never stopped: same matches, same
posteriors (to the last float bit), same ranked pairs, same crowd cost.
On top of that, the event log (a table of the session's one SQLite file)
must detect tampering loudly (CRC, sequence gaps, unknown event types) and
survive what a crash really leaves behind (a torn SQLite WAL, a
``SIGKILL``), a ``save(X)`` copy must be rewritten atomically, the log
must hold nothing the state tables cover, and a store must have one
writer at a time.
"""

import ast
import json
import os
import re
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
from repro.crowd import AsyncCrowd
from repro.datasets.restaurant import RestaurantGenerator
from repro.records.record import Record
from repro.storage import STORE_FILENAME, SqliteStore
from repro.streaming import (
    JournalCorruptionError,
    PersistenceError,
    SessionJournal,
    StoreInUse,
    StreamingResolver,
    persistence,
)

from strategies import (
    UNREADABLE_STORES,
    crash_points,
    drive,
    drive_logged,
    event_schedules,
    make_unreadable,
    resume,
    store_copy,
)


def make_dataset(record_count=60, duplicate_pairs=10, seed=13):
    return RestaurantGenerator(
        record_count=record_count, duplicate_pairs=duplicate_pairs, seed=seed
    ).generate()


#: The crowd of each ``crowd_mode`` test parameter.
CROWDS = {"sync": None, "async": AsyncCrowd()}


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
    assert (set(left.storage.ledger.votes) | set(left.driver.inflight)
            == set(right.storage.ledger.votes) | set(right.driver.inflight))


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

    def test_a_logged_session_commits_with_synchronous_full(self, tmp_path):
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
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
        """An exception in the middle of a ``save(X)`` rewrite rolls its one
        transaction back: ``X`` keeps its previous contents, which still
        restore bit-identically to the state they were saved from."""
        dataset = make_dataset()
        records = list(dataset.store)
        resolver, earlier = (StreamingResolver(config=make_config()) for _ in range(2))
        for session in (resolver, earlier):
            session.add_truth(dataset.ground_truth)
            session.add_batch(records[:20])
        resolver.save(tmp_path / "copy")
        resolver.add_batch(records[20:40])
        resolver.update(records[5].with_attributes(name="revised"))

        def torn(self, ledger):
            raise OSError("disk full half-way through the rewrite")

        with monkeypatch.context() as failing:
            # Records and the join substrate are already rewritten when the
            # ledger write fails.
            failing.setattr(SqliteStore, "write_ledger", torn)
            with pytest.raises(OSError):
                resolver.save(tmp_path / "copy")
        restored = StreamingResolver.restore(tmp_path / "copy")
        assert_sessions_identical(earlier, restored)
        restored.durability.close()
        # ... and the session itself carries on: the next save succeeds.
        resolver.save(tmp_path / "copy")
        restored = StreamingResolver.restore(tmp_path / "copy")
        assert_sessions_identical(resolver, restored)
        restored.durability.close()

    def test_save_refuses_another_sessions_store(self, tmp_path):
        """``save(X)`` used to rewrite the state of whatever store ``X``
        held and keep its log, so restoring ``X`` replayed that session's
        events onto this one's state.  A store whose log holds events is
        refused, unwritten; a store-only copy is still overwritten."""
        dataset = make_dataset()
        logged = stream(
            StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path / "logged"))),
            dataset,
        )
        logged.durability.close()
        other = StreamingResolver(config=make_config())
        other.add_batch(list(dataset.store)[:20])
        with pytest.raises(PersistenceError, match="already holds a session"):
            other.save(tmp_path / "logged")
        restored = StreamingResolver.restore(tmp_path / "logged")
        assert_sessions_identical(logged, restored)
        restored.durability.close()
        logged.save(tmp_path / "copy")
        other.save(tmp_path / "copy")
        copied = StreamingResolver.restore(tmp_path / "copy")
        assert_sessions_identical(other, copied)
        copied.durability.close()

    def test_save_to_a_foreign_directory_materialises_there(self, tmp_path):
        """``save(X)`` of a durable session writes ``X/store.sqlite`` (a
        per-event writer used to ignore ``X``)."""
        home, foreign = tmp_path / "home", tmp_path / "foreign"
        dataset = make_dataset()
        resolver = stream(
            StreamingResolver(config=make_config(checkpoint_dir=str(home))), dataset
        )
        assert resolver.save(foreign) == foreign / STORE_FILENAME
        assert sorted(item.name for item in foreign.iterdir()) == [STORE_FILENAME]
        restored = StreamingResolver.restore(foreign)
        assert_sessions_identical(resolver, restored)
        assert resolver.save() == home / STORE_FILENAME  # its own place, as ever
        restored.durability.close()
        resolver.durability.close()

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

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_STORES))
    def test_an_unreadable_store_is_refused_naming_the_file_and_the_cause(
        self, tmp_path, kind
    ):
        """Bytes that are no database, a stored config key no release had and
        a stored value the config rejects are each refused with a
        ``PersistenceError`` naming the file and the cause, and the file is
        left as it was."""
        session = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        session.add_batch(list(make_dataset().store)[:20])
        session.durability.close()
        make_unreadable(tmp_path, kind)
        path = tmp_path / STORE_FILENAME
        before = path.read_bytes()
        with pytest.raises(PersistenceError) as refused:
            StreamingResolver.restore(tmp_path)
        assert str(path) in str(refused.value)
        assert UNREADABLE_STORES[kind] in str(refused.value)
        assert path.read_bytes() == before


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

    def test_only_the_upgrade_module_knows_an_earlier_format(self):
        """Format steps and branches live in ``storage/upgrade.py`` alone:
        every other module reads the current store format only."""
        earlier = re.compile(
            r"\bto_\d\b|\bSTEPS\b|format[ -][1-5]\b|RETIRED|FLAT_CROWD|upgrade_header"
            r"|decode_votes|\"commit\""
        )
        root = Path(next(iter(repro.__path__)))
        knowing = [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*.py"))
            if earlier.search(path.read_text())
        ]
        assert knowing == ["storage/upgrade.py"]

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
        config = make_config(checkpoint_dir=str(tmp_path))
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
        config = make_config(checkpoint_dir=str(tmp_path))
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 40, 13):
            resolver.add_batch(records[start:][: min(13, 40 - start)])
        # Both go on writing, so the restored twin resumes a copy.
        restored = StreamingResolver.restore(store_copy(tmp_path, tmp_path / "twin"))
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

    def test_values_an_earlier_release_stored_restore_and_continue(
        self, tmp_path, monkeypatch
    ):
        """A session refuses an attribute value that is neither a string nor
        ``None``, but an earlier release stored one wherever the join did
        not read it.  Such a store restores, from its records table and by
        replaying its log, and goes on as the session that wrote it."""
        dataset = make_dataset(record_count=80, duplicate_pairs=12)
        records = list(dataset.store)
        live = tmp_path / "live"
        config = make_config(
            checkpoint_dir=str(live), similarity_attributes=["name", "address"]
        )
        odd = [
            Record("odd-null", {"name": None, "address": records[0].get("address")}),
            Record("odd-number", {"name": records[1].get("name"), "price": 5}),
        ]
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        resolver.add_batch(records[:30])
        with monkeypatch.context() as patched, crash_points(live, tmp_path) as copies:
            patched.setattr(
                "repro.streaming.session.check_attribute_values", lambda record: None
            )
            resolver.add_batch(odd + records[30:40])
        # After the batch's commit its records are in the records table; a
        # crash after its intent's commit leaves them only in the log, so
        # that copy replays the batch.
        replayed, paged = copies
        resolver.add_batch(records[40:50])
        sessions = [resolver]
        for directory in (paged, replayed):
            restored = StreamingResolver.restore(directory)
            assert restored.store.get("odd-null").attributes["name"] is None
            assert restored.store.get("odd-number").attributes["price"] == 5
            restored.add_batch(records[40:50])
            sessions.append(restored)
        for session in sessions:
            session.update(Record("odd-number", {"name": "odd", "price": "5"}))
            session.add_batch(records[50:])
            session.flush()
        assert_sessions_identical(sessions[0], sessions[1])
        assert_sessions_identical(sessions[0], sessions[2])
        for session in sessions:
            session.durability.close()

    def _written_by_an_earlier_release(self, tmp_path, monkeypatch, durability, legacy):
        """Run a session whose stored config carries the ``legacy`` entries and
        close it, or save it when it is not durable; returns it with the
        config its store meta holds."""
        config_payload = persistence.config_payload
        dataset = make_dataset()
        records = list(dataset.store)
        journaled = durability == "journal"

        with monkeypatch.context() as patched:
            patched.setattr(
                persistence, "config_payload",
                lambda config: {**config_payload(config), **legacy},
            )
            durable = {"checkpoint_dir": str(tmp_path)} if journaled else {}
            resolver = StreamingResolver(config=make_config(**durable))
            resolver.add_truth(dataset.ground_truth)
            for start in range(0, len(records), 17):
                resolver.add_batch(records[start : start + 17])
            if journaled:
                resolver.durability.close()
            else:
                resolver.save(tmp_path)
            store = SqliteStore(tmp_path / STORE_FILENAME)
            stored = store.get_meta("config")
            store.close()
        return resolver, stored

    def _refused_before_page_in(self, tmp_path, monkeypatch, match):
        """Restore ``tmp_path`` expecting a :class:`PersistenceError` that
        matches ``match`` before anything is paged in, and check the store
        holds what it held before."""
        def contents():
            connection = sqlite3.connect(str(tmp_path / STORE_FILENAME))
            try:
                return list(connection.iterdump())
            finally:
                connection.close()

        before = contents()
        monkeypatch.setattr(persistence, "_page_in", lambda *_: pytest.fail("paged in"))
        with pytest.raises(PersistenceError, match=match):
            StreamingResolver.restore(tmp_path)
        assert contents() == before

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    @pytest.mark.parametrize("name, value", (
        ("staleness_epsilon", 8),
        ("recrowd_policy", "dirty"),
        ("packing_method", "ffd"),
        ("decision_threshold", 0.7),
        ("crowd_backoff_ticks", 3),
        ("cluster_generator", "bfs"),
    ))
    def test_a_retired_result_knob_in_use_refuses_to_restore(
        self, tmp_path, monkeypatch, durability, name, value
    ):
        """Such a session cannot replay bit-identically: restore names the
        knob before paging anything in."""
        self._written_by_an_earlier_release(tmp_path, monkeypatch, durability, {name: value})
        self._refused_before_page_in(tmp_path, monkeypatch, f"cannot run: .*'{name}'")

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    @pytest.mark.parametrize("name, value", (
        ("join_pool", "fork"),
        ("storage_path", "elsewhere.sqlite"),
        ("journal_segment_events", 512),
        ("metrics_enabled", True),
        ("trace_path", "trace.jsonl"),
        ("checkpoint_every_batches", 3),
        ("staleness_epsilon", 0),
        ("recrowd_policy", "never"),
        ("packing_method", "column-generation"),
        ("decision_threshold", 0.5),
        ("crowd_backoff_ticks", 2),
        ("cluster_generator", "two-tiered"),
    ))
    def test_a_retired_knob_refuses_to_restore_at_any_value(
        self, tmp_path, monkeypatch, durability, name, value
    ):
        """Only store formats 1-3 were written with a knob that is gone, and
        those are refused; a current store that names one is refused too,
        naming it, even at the value that used to replay — not run with the
        knob dropped.  Observability stays off and no file is made."""
        if name.endswith("_path"):
            value = str(tmp_path / value)
        obs.deactivate()
        self._written_by_an_earlier_release(tmp_path, monkeypatch, durability, {name: value})
        self._refused_before_page_in(tmp_path, monkeypatch, f"cannot run: .*'{name}'")
        assert not obs.enabled()
        assert not (tmp_path / "trace.jsonl").exists()
        assert not (tmp_path / "elsewhere.sqlite").exists()

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    @pytest.mark.parametrize("crowd_mode", ("sync", "async"))
    def test_flat_crowd_fields_refuse_to_restore(
        self, tmp_path, monkeypatch, durability, crowd_mode
    ):
        """The six flat fields an earlier release stored for the async crowd
        are not read as a ``crowd``: the store is refused, naming the first."""
        legacy = {
            "crowd_mode": crowd_mode,
            "vote_timeout": 3,
            "max_inflight_hits": 5,
            "backpressure_policy": "shed",
            "crowd_max_retries": 2,
            "fault_plan": {"seed": 4, "drop_probability": 0.2},
        }
        _resolver, stored = self._written_by_an_earlier_release(
            tmp_path, monkeypatch, durability, legacy
        )
        assert stored["crowd"] is None
        self._refused_before_page_in(tmp_path, monkeypatch, "cannot run: .*'crowd_mode'")

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    @pytest.mark.parametrize("retired", ("prefix", "vectorized", "parallel"))
    def test_a_retired_join_backend_refuses_to_restore(
        self, tmp_path, monkeypatch, retired, durability
    ):
        """``join_backend`` used to name batch engines that are now all the
        one kernel; a stored header naming one is no longer read as
        ``"auto"`` but refused."""
        _resolver, stored = self._written_by_an_earlier_release(
            tmp_path, monkeypatch, durability, {"join_backend": retired}
        )
        assert stored["join_backend"] == retired
        self._refused_before_page_in(tmp_path, monkeypatch, "cannot run: join_backend must be")

    def test_an_outcome_row_in_the_log_is_refused(self, tmp_path):
        """Store formats 1-3 logged a ``commit`` outcome after each event.  A
        current store's log holds intents only, so a ``commit`` row past its
        state — even one whose checksum holds — is an unknown event type, and
        the refused restore leaves the file as it was."""
        dataset = make_dataset()
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        stream(resolver, dataset)
        resolver.durability.close()
        path = tmp_path / STORE_FILENAME
        seq = stored_events_applied(tmp_path) + 1
        connection = sqlite3.connect(str(path))
        with connection:
            text = json.dumps({"delta": {}, "digest": "0" * 64, "votes": []})
            connection.execute(
                "INSERT INTO events VALUES (?, 'commit', ?, ?)",
                (seq, text, persistence._entry_crc(seq, "commit", text)),
            )
        connection.close()
        assert [event.type for event in logged_events(tmp_path, after=seq - 1)] == ["commit"]
        before = path.read_bytes()
        with pytest.raises(JournalCorruptionError, match="commit"):
            StreamingResolver.restore(tmp_path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    def test_a_newer_store_format_refuses_to_restore(self, tmp_path, monkeypatch, durability):
        """A header (store meta) whose ``version`` is newer than this
        release's format is refused before page-in, naming both numbers —
        not silently read as this format."""
        with monkeypatch.context() as patched:
            patched.setattr(persistence, "FORMAT_VERSION", 99)
            self._written_by_an_earlier_release(tmp_path, monkeypatch, durability, {})
        store = SqliteStore(tmp_path / STORE_FILENAME)
        assert store.get_meta("version") == 99
        store.close()
        monkeypatch.setattr(persistence, "_page_in", lambda *_: pytest.fail("paged in"))
        with pytest.raises(
            PersistenceError,
            match=(
                "store format 99; this release reads formats 5 to "
                f"{persistence.FORMAT_VERSION} only$"
            ),
        ):
            StreamingResolver.restore(tmp_path)

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

    def test_snapshot_restore_skips_replayed_prefix(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        config = make_config(checkpoint_dir=str(tmp_path))
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
    """Crash after any commit -> restore -> the rest of the schedule == no crash.

    One uninterrupted durable session runs a random schedule of batches,
    retractions, updates and flushes, and its store is copied after every
    commit — each copy is what a crash right then leaves.  The session is
    restored from a random copy, and the schedule is re-driven from where
    the restored state ends — the result must equal the uninterrupted
    session bit-for-bit.
    """
    directory = tmp_path_factory.mktemp("crash")
    dataset = make_dataset(record_count=50, duplicate_pairs=8, seed=29)
    records = list(dataset.store)
    with crash_points(directory, tmp_path_factory.mktemp("recover")) as copies:
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(directory)))
        resolver.add_truth(dataset.ground_truth)
        marks = drive_logged(resolver, records, schedule)

    crashed = copies[data.draw(st.integers(min_value=0, max_value=len(copies) - 1), label="crash")]
    restored = StreamingResolver.restore(crashed)
    assert restored.events_applied <= resolver.events_applied
    assert logged_events(crashed) == []  # the restore's commit applied the tail

    # Re-drive the lost events (exactly what a re-submitted workload would
    # do), then compare against the uninterrupted session.
    if restored.events_applied < marks[0][0]:
        restored.add_truth(dataset.ground_truth)
    resume(restored, records, schedule, marks)
    assert_sessions_identical(resolver, restored)
    restored.durability.close()
    resolver.durability.close()


# ------------------------------------------ what a crash really leaves behind
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), schedule=event_schedules(min_size=2, max_size=5))
def test_property_torn_wal_restores_a_prefix_and_converges(tmp_path_factory, data, schedule):
    """Crash safety rests on SQLite's WAL, so tear it.

    The store and its ``-wal`` are copied while the session is open and the
    WAL copy is truncated at an arbitrary byte: SQLite recovers the longest
    checksummed prefix of committed transactions, so restore (verifying)
    lands on *some* event at or before the live one — never on a half
    event — and re-driving the rest of the schedule converges bit-identically.
    """
    directory = tmp_path_factory.mktemp("live")
    dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
    records = list(dataset.store)
    resolver = StreamingResolver(config=make_config(checkpoint_dir=str(directory)))
    resolver.add_truth(dataset.ground_truth)
    marks = drive_logged(resolver, records, schedule)

    torn = tmp_path_factory.mktemp("torn")
    shutil.copy(directory / STORE_FILENAME, torn / STORE_FILENAME)
    wal = (directory / (STORE_FILENAME + "-wal")).read_bytes()
    keep = data.draw(st.integers(min_value=0, max_value=len(wal)), label="wal_bytes")
    (torn / (STORE_FILENAME + "-wal")).write_bytes(wal[:keep])

    try:
        restored = StreamingResolver.restore(torn)
    except PersistenceError as refused:
        # Only a tear before the constructor's first commits (the schema,
        # then the logged header) leaves nothing to restore: the session
        # never existed.  Torn before the schema, the file holds no table,
        # and no reader opens it.
        assert "holds no session" in str(refused)
    else:
        assert restored.events_applied <= resolver.events_applied
        if restored.events_applied < marks[0][0]:
            restored.add_truth(dataset.ground_truth)
        resume(restored, records, schedule, marks)
        assert_sessions_identical(resolver, restored)
        restored.durability.close()
    resolver.durability.close()


_KILLED_CHILD = """
    import sys, time
    from repro.core.config import WorkflowConfig
    from repro.datasets.restaurant import RestaurantGenerator
    from repro.streaming import StreamingResolver

    directory, = sys.argv[1:]
    dataset = RestaurantGenerator(record_count=120, duplicate_pairs=20, seed=13).generate()
    records = list(dataset.store)
    resolver = StreamingResolver(config=WorkflowConfig(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority",
        checkpoint_dir=directory,
    ))
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, len(records), 4):
        resolver.add_batch(records[start : start + 4])
        if start == 8:
            print("ready", flush=True)
    time.sleep(600)  # finished before the kill landed: wait for it
"""


def test_sigkill_mid_stream_restores_and_finishes_identically(tmp_path):
    """A real process, really killed: whatever ``SIGKILL`` left in the
    directory restores, and the rest of the schedule ends where an
    uninterrupted run does."""
    source_root = str(Path(next(iter(repro.__path__))).parent)
    child = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(_KILLED_CHILD), str(tmp_path)],
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
    done = restored.record_count
    assert 12 <= done <= len(records) and done % 4 == 0
    for start in range(done, len(records), 4):
        restored.add_batch(records[start : start + 4])
    assert_sessions_identical(uninterrupted, restored)
    restored.durability.close()
    assert sorted(item.name for item in tmp_path.iterdir()) == [STORE_FILENAME]


@pytest.mark.parametrize("crowd_mode", ("sync", "async"))
def test_a_durable_session_is_one_file(tmp_path, crowd_mode):
    """Running, saving and restoring (a restored session too) never leave
    anything in the directory but ``store.sqlite`` (and, while a connection
    is open, SQLite's own ``-wal``/``-shm``)."""
    one_file = {STORE_FILENAME}
    while_open = one_file | {STORE_FILENAME + "-wal", STORE_FILENAME + "-shm"}

    def listing():
        return {item.name for item in tmp_path.iterdir()}

    dataset = make_dataset()
    records = list(dataset.store)
    config = make_config(checkpoint_dir=str(tmp_path), crowd=CROWDS[crowd_mode])
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


# --------------------------------------------------- one writer per store
def test_a_live_sessions_store_has_one_writer(tmp_path):
    """Restoring a directory whose session is still open used to take it
    over beside the live writer (which then failed on its next log append,
    or — once applied rows are deleted — would write over it silently).
    Restoring it, saving into it and a fresh session on it are refused
    before anything is read or written, and the live session goes on
    bit-identically to one nobody disturbed; closed, it restores."""
    dataset = make_dataset()
    records = list(dataset.store)
    live = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
    undisturbed = StreamingResolver(config=make_config())
    for session in (live, undisturbed):
        session.add_truth(dataset.ground_truth)
        session.add_batch(records[:20])
    path = tmp_path / STORE_FILENAME
    intruder = stream(StreamingResolver(config=make_config()), make_dataset(seed=5))

    def contents():
        return {item.name: item.read_bytes() for item in sorted(tmp_path.iterdir())}

    before = contents()
    for attempt in (
        lambda: StreamingResolver.restore(tmp_path),
        lambda: intruder.save(tmp_path),
    ):
        with pytest.raises(StoreInUse, match="in use by another writer"):
            attempt()
    with pytest.raises(PersistenceError, match="already holds a session"):
        StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
    assert contents() == before
    for session in (live, undisturbed):
        session.add_batch(records[20:40])
        session.retract(records[3].record_id)
        session.flush()
    assert_sessions_identical(undisturbed, live)
    live.durability.close()
    restored = StreamingResolver.restore(tmp_path)
    assert_sessions_identical(undisturbed, restored)
    restored.durability.close()
    assert sorted(item.name for item in tmp_path.iterdir()) == [path.name]


def test_a_save_holds_its_directory_while_it_writes(tmp_path, monkeypatch):
    """``save(X)`` is ``X``'s one writer while it rewrites the store: a
    restore of ``X`` in the middle of it is refused."""
    dataset = make_dataset()
    session = stream(StreamingResolver(config=make_config()), dataset)
    write_ledger, refused = SqliteStore.write_ledger, []

    def restore_midway(store, ledger, *arguments):
        with pytest.raises(StoreInUse):
            StreamingResolver.restore(tmp_path)
        refused.append(store.path)
        return write_ledger(store, ledger, *arguments)

    session.save(tmp_path)  # a store-only copy to restore mid-save
    monkeypatch.setattr(SqliteStore, "write_ledger", restore_midway)
    session.save(tmp_path)
    assert refused == [tmp_path / STORE_FILENAME]
    monkeypatch.undo()
    restored = StreamingResolver.restore(tmp_path)
    assert_sessions_identical(session, restored)
    restored.durability.close()


def test_a_second_process_cannot_restore_a_live_directory(tmp_path):
    """The lock is the kernel's, so it holds across processes:
    ``resolve-stream --resume`` on the directory of a session this process
    has open exits 2, names the conflict and leaves the store alone."""
    live = stream(
        StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path))), make_dataset()
    )
    path = tmp_path / STORE_FILENAME
    before = logged_events(tmp_path), stored_events_applied(tmp_path)
    source_root = str(Path(next(iter(repro.__path__))).parent)
    second = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resolve-stream", "--dataset", "paper-example",
         "--checkpoint-dir", str(tmp_path), "--resume"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert second.returncode == 2, second.stderr
    assert "in use by another writer" in second.stderr
    assert (logged_events(tmp_path), stored_events_applied(tmp_path)) == before
    live.flush()
    live.durability.close()
    restored = StreamingResolver.restore(tmp_path)
    assert_sessions_identical(live, restored)
    restored.durability.close()
    assert path.exists()


# ------------------------------------------- the log is only its tail
def log_and_state_positions(directory):
    """``(logged seqs, meta.events_applied)`` inside one read transaction."""
    connection = sqlite3.connect(str(directory / STORE_FILENAME), isolation_level=None)
    try:
        connection.execute("BEGIN")
        logged = [seq for seq, in connection.execute("SELECT seq FROM events ORDER BY seq")]
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'events_applied'"
        ).fetchone()
        return logged, (json.loads(row[0]) if row else None)
    finally:
        connection.close()


@pytest.mark.parametrize("start", ("fresh", "restored"))
@pytest.mark.parametrize("crowd_mode", ("sync", "async"))
def test_the_state_and_the_log_advance_in_one_commit(tmp_path, monkeypatch, crowd_mode, start):
    """Inside an event the log holds exactly its intent, ``events_applied +
    1``, durable before the state changes; after the event it is empty:
    the commit that writes the event's state rows and counters deletes the
    intent, so no reader — and no crash — ever sees the state and the log
    cover the same event, or the log grow with the session.  A restored
    session keeps to it too: it takes the log over, so every event it
    applies after the restore is logged before it is applied."""
    dataset = make_dataset()
    records = list(dataset.store)
    inside = []
    apply = StreamingResolver.apply

    def observed(session, kind, *arguments):
        inside.append(log_and_state_positions(tmp_path))
        return apply(session, kind, *arguments)

    monkeypatch.setattr(StreamingResolver, "apply", observed)
    config = make_config(checkpoint_dir=str(tmp_path), crowd=CROWDS[crowd_mode])
    resolver = StreamingResolver(config=config)
    assert log_and_state_positions(tmp_path) == ([], resolver.events_applied)
    events = [
        lambda: resolver.add_truth(dataset.ground_truth),
        lambda: resolver.add_batch(records[:15]),
        lambda: resolver.add_batch(records[15:30]),
        lambda: resolver.retract(records[2].record_id),
        lambda: resolver.update(records[4].with_attributes(name="rewritten")),
        lambda: resolver.add_batch(records[30:45]),
        lambda: resolver.flush(),
    ]
    for index, event in enumerate(events):
        if start == "restored" and index == 3:
            resolver.durability.close()
            resolver = StreamingResolver.restore(tmp_path)
            assert log_and_state_positions(tmp_path) == ([], resolver.events_applied)
        event()
        applied = resolver.events_applied
        assert inside.pop() == ([applied], applied - 1)
        assert log_and_state_positions(tmp_path) == ([], applied)
    resolver.save()  # its own place: a boundary, no event
    assert log_and_state_positions(tmp_path) == ([], resolver.events_applied)
    assert not inside
    resolver.durability.close()
    assert log_and_state_positions(tmp_path) == ([], resolver.events_applied)


# ------------------------------------- one write schedule: every event commits its rows
def half_truth(dataset, which):
    truth = sorted(dataset.ground_truth)
    return truth[: len(truth) // 2] if which == 0 else truth[len(truth) // 2 :]


#: The event under test, applied after :func:`written_prefix`.
EVENTS_UNDER_TEST = {
    "truth": lambda session, dataset, records: session.add_truth(half_truth(dataset, 1)),
    "batch": lambda session, dataset, records: session.add_batch(records[35:50]),
    "retract": lambda session, dataset, records: session.retract(records[3].record_id),
    "update": lambda session, dataset, records: session.update(
        records[5].with_attributes(name="rewritten")
    ),
    "flush": lambda session, dataset, records: session.flush(),
}


def written_prefix(dataset, crowd_mode, directory=None):
    """A session (durable when ``directory`` is given) after half the truth
    and two arrival batches."""
    records = list(dataset.store)
    durable = {} if directory is None else {"checkpoint_dir": str(directory)}
    resolver = StreamingResolver(config=make_config(crowd=CROWDS[crowd_mode], **durable))
    resolver.add_truth(half_truth(dataset, 0))
    resolver.add_batch(records[:20])
    resolver.add_batch(records[20:35])
    return resolver


def finish_alike(*sessions, records):
    """Run the same tail on every session: what a restore left must carry on."""
    for session in sessions:
        session.add_batch(records[50:])
        session.flush()


class _Crash(Exception):
    """Stands for the process dying inside an event."""


@pytest.mark.parametrize("kind", sorted(EVENTS_UNDER_TEST) + ["save"])
@pytest.mark.parametrize("crowd_mode", ("sync", "async"))
def test_the_state_tables_alone_hold_every_committed_event(tmp_path, crowd_mode, kind):
    """An event writes the rows it changed when it commits, so right after
    any event the store's state tables — its log is empty then — restore
    to the live session, which a restored session then follows
    event for event: nothing is left for a replay to redo."""
    dataset = make_dataset()
    records = list(dataset.store)
    resolver = written_prefix(dataset, crowd_mode, tmp_path / "live")
    if kind == "save":
        resolver.save()
    else:
        EVENTS_UNDER_TEST[kind](resolver, dataset, records)
    copy = store_copy(tmp_path / "live", tmp_path / "copy")
    assert stored_events_applied(copy) == resolver.events_applied
    assert logged_events(copy) == []
    restored = StreamingResolver.restore(copy)
    assert restored.events_applied == resolver.events_applied
    assert_sessions_identical(resolver, restored)
    finish_alike(resolver, restored, records=records)
    assert_sessions_identical(resolver, restored)
    restored.durability.close()
    resolver.durability.close()


@pytest.mark.parametrize("kind", sorted(EVENTS_UNDER_TEST))
@pytest.mark.parametrize("crowd_mode", ("sync", "async"))
def test_a_crash_inside_an_event_replays_that_event_alone(
    tmp_path, monkeypatch, crowd_mode, kind
):
    """A crash after an event's intent is logged and before its commit
    leaves the store at the previous event with that intent as the log's
    only tail: restore replays the one event and lands where a session
    that never stopped does."""
    dataset = make_dataset()
    records = list(dataset.store)
    resolver = written_prefix(dataset, crowd_mode, tmp_path / "live")
    before = resolver.events_applied

    def crash(self, session):
        raise _Crash

    with monkeypatch.context() as crashing:
        crashing.setattr(persistence.Durability, "boundary", crash)
        with pytest.raises(_Crash):
            EVENTS_UNDER_TEST[kind](resolver, dataset, records)
    # Copied while the interrupted transaction is still open: only what
    # committed reaches the copy.
    copy = store_copy(tmp_path / "live", tmp_path / "copy")
    resolver.durability.close()
    assert stored_events_applied(copy) == before
    assert [(event.seq, event.type) for event in logged_events(copy, after=before)] == [
        (before + 1, kind)
    ]

    uninterrupted = written_prefix(dataset, crowd_mode)
    EVENTS_UNDER_TEST[kind](uninterrupted, dataset, records)
    restored = StreamingResolver.restore(copy)
    assert restored.events_applied == before + 1
    assert_sessions_identical(uninterrupted, restored)
    finish_alike(uninterrupted, restored, records=records)
    assert_sessions_identical(uninterrupted, restored)
    restored.durability.close()
    assert log_and_state_positions(copy) == ([], restored.events_applied)
