"""Tests for the pluggable storage layer (repro.storage).

The central contract: a streaming session backed by the SQLite store is
**bit-identical** to one backed by process memory — same matches, same
posteriors to the last float bit, same digests — for any schedule of
batches, retractions, updates, flushes and crashes, and restoring a
SQLite-backed session is a *page-in* of committed state (plus a short
replay of the logged tail) rather than a replay of the whole log.
"""

import dataclasses
import inspect
import json
import os
import shutil
import sqlite3

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import drive, event_schedules

from repro import obs
from repro.core.config import WorkflowConfig
from repro.datasets.restaurant import RestaurantGenerator
from repro.hit.pair_generation import PairHITGenerator
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import CostReport
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record, RecordStore
from repro.simjoin.columnar import argsort_descending
from repro.storage import SqliteStore, StorageError
from repro.storage.sqlite import STORE_FILENAME
from repro.streaming import PersistenceError, StreamingResolver, persistence


def make_dataset(record_count=45, duplicate_pairs=8, seed=31):
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
    assert sorted(left.store.record_ids) == sorted(right.store.record_ids)


#: The per-pair history table an earlier release created in every store.
PARENT_PROVENANCE_SCHEMA = """
CREATE TABLE provenance (
    id_a             TEXT NOT NULL,
    id_b             TEXT NOT NULL,
    discovered_batch INTEGER NOT NULL,
    hit_ids          TEXT NOT NULL,
    vote_events      TEXT NOT NULL,
    PRIMARY KEY (id_a, id_b)
);
CREATE INDEX provenance_a ON provenance(id_a);
CREATE INDEX provenance_b ON provenance(id_b);
"""


def plant_parent_provenance(path, pairs):
    """Give the store at ``path`` the earlier release's table, one row per pair."""
    connection = sqlite3.connect(str(path))
    with connection:
        connection.executescript(PARENT_PROVENANCE_SCHEMA)
        connection.executemany(
            "INSERT INTO provenance VALUES (?, ?, 1, ?, ?)",
            [(a, b, json.dumps(["b1:h0"]), json.dumps([[1, 0, 3]])) for a, b in pairs],
        )
    connection.close()


def plant_parent_metrics(path, hits):
    """Give the store at ``path`` the ``metrics`` meta row an earlier release
    wrote: a copy of its process's registry, ``hits`` HITs from sessions
    that are not this store's among it."""
    registry = MetricsRegistry()
    registry.counter("hits_issued_total").inc(hits)
    registry.counter("crowd_assignments_total").inc(3 * hits)
    registry.counter("crowd_cost_dollars_total").inc(0.075 * hits)
    connection = sqlite3.connect(str(path))
    with connection:
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('metrics', ?)",
            (json.dumps(registry.snapshot().to_dict()),),
        )
    connection.close()


def parent_metrics_row(path):
    """Whether the earlier release's ``metrics`` meta row is still there."""
    connection = sqlite3.connect(str(path))
    try:
        return connection.execute("SELECT 1 FROM meta WHERE key = 'metrics'").fetchone() is not None
    finally:
        connection.close()


def parent_provenance_rows(path):
    """Rows of the earlier release's table, or ``None`` once it is gone."""
    connection = sqlite3.connect(str(path))
    try:
        return connection.execute("SELECT COUNT(*) FROM provenance").fetchone()[0]
    except sqlite3.OperationalError:
        return None
    finally:
        connection.close()


def schema_objects(store, fragment):
    """Names of the ``sqlite_master`` objects containing ``fragment``."""
    return [
        name
        for name, in store.query(
            "SELECT name FROM sqlite_master WHERE name LIKE ?", (f"%{fragment}%",)
        )
    ]


def assert_ledger_indexes_the_candidates(session, record_ids):
    """``pairs_of(r)`` is exactly the candidate pairs containing ``r``."""
    ledger = session.storage.ledger
    keys = set(ledger.pairs)
    assert session.candidate_count == len(keys)
    for record_id in record_ids:
        assert ledger.pairs_of(record_id) == {key for key in keys if record_id in key}


def assert_tables_are_the_ledger(session):
    """The four pair tables of the session's store hold exactly its ledger:
    ``pairs`` in the ledger's order, and no row of a dropped key."""
    ledger = session.storage.ledger

    def rows(sql):
        return session.durability.store.query(sql).fetchall()

    stored_pairs = rows("SELECT id_a, id_b, likelihood FROM pairs ORDER BY ord")
    assert [((a, b), likelihood) for a, b, likelihood in stored_pairs] == list(
        ledger.pairs.items()
    )
    assert {
        (a, b): (json.loads(votes), pending)
        for a, b, votes, pending in rows("SELECT id_a, id_b, votes, pending FROM pair_votes")
    } == {
        key: ([[worker, answer] for worker, _, answer in votes], ledger.pending_votes.get(key, 0))
        for key, votes in ledger.votes.items()
    }
    assert {
        (a, b): posterior
        for a, b, posterior in rows("SELECT id_a, id_b, posterior FROM posteriors")
    } == ledger.posteriors
    assert set(rows("SELECT id_a, id_b FROM covered")) == ledger.covered


def session_fingerprint(session):
    """State summary that can outlive the session's storage handle."""
    snap = session.snapshot()
    return {
        "matches": snap.matches,
        "posteriors": snap.posteriors,
        "likelihoods": snap.likelihoods,
        "ranked_pairs": snap.ranked_pairs,
        "cost": snap.cost,
        "hit_count": snap.hit_count,
        "assignment_count": snap.assignment_count,
        "digest": session.state_digest(),
        "covered": session.covered_pairs(),
        "record_ids": sorted(session.store.record_ids),
    }


# ------------------------------------------------------------- store basics
class TestOpenStore:
    def test_garbage_file_is_rejected(self, tmp_path):
        target = tmp_path / "store.sqlite"
        target.write_bytes(b"this is not a database at all, not even close")
        with pytest.raises(StorageError):
            SqliteStore(target)


class TestSqliteRoundTrips:
    def test_records_survive_reopen_in_arrival_order(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        store.add_record(Record("b", {"name": "beta"}, source="s1"))
        store.add_record(Record("a", {"name": "alpha"}))
        store.remove_record("zzz")  # unknown ids are a no-op
        store.commit()
        store.close()
        reopened = SqliteStore(path)
        assert reopened.record_ids() == ["b", "a"]
        assert reopened.get_record("b").source == "s1"
        assert reopened.get_record("a").attributes == {"name": "alpha"}
        assert reopened.record_at(1).record_id == "a"
        assert reopened.record_count() == 2
        assert reopened.has_record("b") and not reopened.has_record("zzz")
        reopened.close()

    def test_record_store_delegates_to_backing(self, tmp_path):
        store = SqliteStore(tmp_path / STORE_FILENAME)
        records = RecordStore(name="stream", backing=store)
        records.add(Record("r1", {"name": "x"}))
        assert "r1" in records and len(records) == 1
        assert [record.record_id for record in records] == ["r1"]
        records.remove("r1")
        assert len(records) == 0
        store.close()

    def test_meta_round_trips_json_values(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        store.set_meta("config", {"threshold": 0.35, "attrs": None})
        store.set_meta("events_applied", 17)
        store.commit()
        store.close()
        reopened = SqliteStore(path)
        assert reopened.get_meta("config") == {"threshold": 0.35, "attrs": None}
        assert reopened.get_meta("events_applied") == 17
        assert reopened.get_meta("missing", "fallback") == "fallback"
        reopened.close()

    def test_join_substrate_round_trips(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        store.extend_vocabulary([("alpha", 0), ("beta", 1)])
        store.join_append_rows([(0, "r1", None, False, False), (1, "r2", "s", True, False)])
        store.append_csr_chunk(np.array([0, 1], dtype=np.int64), np.array([2, 0], dtype=np.int64))
        store.join_mark_dead(1)
        store.commit()
        store.close()
        reopened = SqliteStore(path)
        state = reopened.load_join_state()
        assert state["rows"] == [(0, "r1", None, False, False), (1, "r2", "s", True, True)]
        assert state["vocabulary"] == {"alpha": 0, "beta": 1}
        assert state["indices"].tolist() == [0, 1]
        assert state["indptr"] == [0, 2, 2]
        reopened.close()

    def test_ledger_mutations_survive_reopen(self, tmp_path):
        """A stored ledger's mutations reach the pair tables when the store
        commits: nothing is written before, every changed key once then."""
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        key, other = ("r1", "r2"), ("r3", "r4")
        store.ledger.add_pair(key, 0.75)
        store.ledger.add_pair(other, None)
        store.ledger.record_fresh_votes(key, [("w1", key, True), ("w2", key, False)])
        store.ledger.mark_covered([key])
        store.ledger.set_posterior(key, 2.0 / 3.0)
        store.ledger.clear_pending([key])
        store.ledger.drop_pair(other)
        assert list(store.ledger.unsaved) == [key, other]
        for table in ("pairs", "pair_votes", "posteriors", "covered"):
            assert store.query(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)
        store.commit()
        assert store.ledger.unsaved == {}
        # The retired vote-round column holds 1, the value every voted pair has.
        assert store.query("SELECT rounds FROM pair_votes").fetchall() == [(1,)]
        store.close()
        reopened = SqliteStore(path)
        reopened.load_ledger()  # opening reads no table; page-in asks for it
        ledger = reopened.ledger
        assert ledger.pairs == {key: 0.75}
        assert ledger.votes == {key: [("w1", key, True), ("w2", key, False)]}
        assert ledger.pending_votes == {}  # cleared counters stay popped
        assert ledger.posteriors == {key: 2.0 / 3.0}  # bit-exact REAL round trip
        assert ledger.covered == {key}
        reopened.close()

    def test_provenance_and_workload_round_trip(self, tmp_path):
        """The record → pairs index (retraction's provenance) is rebuilt
        from the ``pairs`` table at page-in; nothing else stores it."""
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        for key in (("r1", "r2"), ("r1", "r3"), ("r2", "r3")):
            store.ledger.add_pair(key, 0.5)
        store.commit()
        store.ledger.drop_pair(("r1", "r3"))
        store.append_assignment_seconds([1.5, 2.25])
        store.commit()
        store.close()
        reopened = SqliteStore(path)
        assert reopened.ledger.pairs_of("r1") == set()  # opening pages nothing in
        reopened.load_ledger()
        assert list(reopened.ledger.pairs) == [("r1", "r2"), ("r2", "r3")]
        assert reopened.ledger.pairs_of("r1") == {("r1", "r2")}
        assert reopened.ledger.pairs_of("r2") == {("r1", "r2"), ("r2", "r3")}
        assert reopened.ledger.pairs_of("r3") == {("r2", "r3")}
        assert reopened.ledger.pairs_of("ghost") == set()
        assert reopened.load_assignment_seconds() == [1.5, 2.25]
        reopened.close()

    def test_rollback_discards_the_open_event(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        store.add_record(Record("r1", {"name": "x"}))
        store.commit()
        store.add_record(Record("r2", {"name": "y"}))
        store.rollback()  # crash mid-event: back to the last event boundary
        store.close()
        reopened = SqliteStore(path)
        assert reopened.record_ids() == ["r1"]
        reopened.close()


# --------------------------------------------------- backend bit-identity
class TestBackendBitIdentity:
    def test_simple_run_matches_memory_backend(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        mem = StreamingResolver(config=make_config())
        sql = StreamingResolver(
            config=make_config(storage_backend="sqlite", checkpoint_dir=str(tmp_path))
        )
        for session in (mem, sql):
            session.add_truth(dataset.ground_truth)
            for start in range(0, len(records), 15):
                session.add_batch(records[start : start + 15])
            session.retract(records[2].record_id)
            session.update(records[4].with_attributes(name="rewritten"))
            session.flush()
        assert_sessions_identical(mem, sql)
        sql.storage.close()

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        data=st.data(),
        schedule=event_schedules(min_size=2, max_size=6),
    )
    def test_property_sqlite_equals_memory_across_crash_schedules(
        self, tmp_path_factory, data, schedule
    ):
        """Random schedules with a crash+restore at a random point.

        The memory-backed session runs the schedule uninterrupted; the
        SQLite-backed durable session runs a prefix, crashes (its open
        transaction rolls back, the process state is dropped), restores by
        paging the store back in, and runs the rest — the final states
        must be bit-identical.
        """
        dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
        records = list(dataset.store)
        mem = StreamingResolver(config=make_config())
        mem.add_truth(dataset.ground_truth)
        drive(mem, records, schedule)

        directory = tmp_path_factory.mktemp("sqlsession")
        config = make_config(
            storage_backend="sqlite",
            checkpoint_dir=str(directory),
            checkpoint_every_batches=0,
        )
        sql = StreamingResolver(config=config)
        sql.add_truth(dataset.ground_truth)
        crash_at = data.draw(
            st.integers(min_value=0, max_value=len(schedule)), label="crash_at"
        )
        cursor = drive(sql, records, schedule[:crash_at])
        sql.storage.rollback()
        sql.storage.close()
        sql = StreamingResolver.restore(str(directory))
        drive(sql, records, schedule[crash_at:], cursor=cursor)
        assert_sessions_identical(mem, sql)
        sql.storage.close()

    def test_crash_mid_event_replays_from_the_journal_intent(self, tmp_path):
        """The store rolls back to the last event boundary; the journaled
        intent replays the interrupted event on restore."""
        dataset = make_dataset()
        records = list(dataset.store)
        config = make_config(
            storage_backend="sqlite", checkpoint_dir=str(tmp_path)
        )
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 30, 10):
            resolver.add_batch(records[start : start + 10])
        # Crash mid-event: the intent hits the journal, the store
        # transaction is rolled back before the event-boundary commit.
        batch = records[30:40]
        resolver.durability.intent("batch", batch, None)
        resolver.apply("batch", batch, None)
        resolver.storage.rollback()
        resolver.storage.close()

        restored = StreamingResolver.restore(str(tmp_path))
        uninterrupted = StreamingResolver(config=make_config())
        uninterrupted.add_truth(dataset.ground_truth)
        for start in range(0, 40, 10):
            uninterrupted.add_batch(records[start : start + 10])
        assert_sessions_identical(uninterrupted, restored)
        restored.storage.close()


# ----------------------------------------------------------- page-in restore
class TestPageInRestore:
    def test_restore_pages_in_without_snapshot_or_replay(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        config = make_config(
            storage_backend="sqlite",
            checkpoint_dir=str(tmp_path),
            checkpoint_every_batches=0,  # no cadence: the mirrored store is the state
        )
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 12):
            resolver.add_batch(records[start : start + 12])
        expected = session_fingerprint(resolver)
        resolver.storage.close()
        restored = StreamingResolver.restore(str(tmp_path))
        assert session_fingerprint(restored) == expected
        restored.storage.close()

    def test_restored_session_continues_in_lockstep(self, tmp_path):
        dataset = make_dataset(record_count=60, duplicate_pairs=10)
        records = list(dataset.store)
        config = make_config(
            storage_backend="sqlite", checkpoint_dir=str(tmp_path)
        )
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 40, 13):
            resolver.add_batch(records[start:][: min(13, 40 - start)])
        resolver.storage.close()
        twin_dir = tmp_path.parent / (tmp_path.name + "-twin")
        twin = StreamingResolver(
            config=make_config(storage_backend="sqlite", checkpoint_dir=str(twin_dir))
        )
        twin.add_truth(dataset.ground_truth)
        for start in range(0, 40, 13):
            twin.add_batch(records[start:][: min(13, 40 - start)])
        restored = StreamingResolver.restore(str(tmp_path))
        tail = records[40:]
        victim = records[3].record_id
        revised = records[5].with_attributes(name="revised beyond recognition")
        for session in (twin, restored):
            session.add_batch(tail[:10])
            session.retract(victim)
            session.update(revised)
            session.add_batch(tail[10:])
            session.flush()
        assert_sessions_identical(twin, restored)
        twin.storage.close()
        restored.storage.close()

    def test_store_written_with_retired_knobs_pages_in(self, tmp_path):
        """A store-only directory of an earlier release carries ``join_pool``,
        ``storage_path`` and ``journal_segment_events`` in its config meta
        (and no ``checkpoint_dir``), plus a ``join_maintain_inverted`` entry;
        page-in ignores all of them."""
        dataset = make_dataset()
        records = list(dataset.store)
        home, copy = tmp_path / "home", tmp_path / "copy"
        resolver = StreamingResolver(
            config=make_config(storage_backend="sqlite", checkpoint_dir=str(home))
        )
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 15):
            resolver.add_batch(records[start : start + 15])
        expected = session_fingerprint(resolver)
        resolver.save(copy)  # state, no events: what "store only" means now
        resolver.durability.close()
        store = SqliteStore(copy / STORE_FILENAME)
        legacy = {
            "join_pool": "fork",
            "storage_path": str(copy / STORE_FILENAME),
            "journal_segment_events": 512,
            "checkpoint_dir": None,
        }
        store.set_meta("config", {**store.get_meta("config"), **legacy})
        store.set_meta("join_maintain_inverted", False)
        store.commit()
        store.close()
        restored = StreamingResolver.restore(str(copy))
        assert session_fingerprint(restored) == expected
        assert restored.config.checkpoint_dir == str(copy)
        # ... and it is a live durable session again: its log starts right
        # after the state it was copied with.
        tail = [Record("late", dict(records[0].attributes))]
        restored.add_batch(tail)
        assert restored.events_applied == resolver.events_applied + 2
        assert restored.durability.journal.events(after=resolver.events_applied)
        restored.durability.close()

    def test_store_carrying_the_provenance_table_restores_and_sheds_it(self, tmp_path):
        """An earlier release kept a per-pair history table (``provenance``,
        two indexes, one JSON row per pair) that nothing read, and a copy of
        its process's metrics registry in a ``metrics`` meta row.  Its store
        restores bit-identically — into a registry that counts no HIT, as
        page-in publishes nothing — retracts exactly, and loses both."""
        dataset = make_dataset()
        records = list(dataset.store)
        resolver = StreamingResolver(
            config=make_config(storage_backend="sqlite", checkpoint_dir=str(tmp_path))
        )
        twin = StreamingResolver(config=make_config())
        for session in (resolver, twin):
            session.add_truth(dataset.ground_truth)
            for start in range(0, len(records), 15):
                session.add_batch(records[start : start + 15])
        expected = session_fingerprint(resolver)
        pairs = sorted(resolver.storage.ledger.pairs)
        resolver.durability.close()
        plant_parent_provenance(tmp_path / STORE_FILENAME, pairs)
        plant_parent_metrics(tmp_path / STORE_FILENAME, hits=1000)

        obs.activate()
        try:
            restored = StreamingResolver.restore(str(tmp_path))
            assert obs.snapshot().counter_total("hits_issued_total") == 0
        finally:
            obs.deactivate()
        assert session_fingerprint(restored) == expected
        assert schema_objects(restored.durability.store, "provenance") == []
        assert restored.durability.store.get_meta("metrics") is None
        victim = records[2].record_id
        victim_pairs = [key for key in pairs if victim in key]
        assert victim_pairs  # the retraction has something to invalidate
        assert restored.retract(victim).delta.invalidated_pairs == len(victim_pairs)
        twin.retract(victim)
        assert_sessions_identical(twin, restored)
        restored.durability.close()

    def test_a_parent_store_keeps_its_provenance_until_a_session_takes_it_over(
        self, tmp_path
    ):
        """Reading a store (``repro stats``) or refusing to restore it leaves
        the earlier release's table and rows and its ``metrics`` meta row in
        place, so that release can still resume it; a memory-backed resume
        that keeps the log drops them.  The report ignores the copied
        registry: it is the session's own cost."""
        dataset = make_dataset()
        records = list(dataset.store)
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 15):
            resolver.add_batch(records[start : start + 15])
        resolver.save()
        expected = session_fingerprint(resolver)
        pairs = sorted(resolver.storage.ledger.pairs)
        resolver.durability.close()
        path = tmp_path / STORE_FILENAME
        plant_parent_provenance(path, pairs)
        plant_parent_metrics(path, hits=1000)

        report = CostReport.from_store(str(path))
        assert (report.hits_issued, report.assignments, report.crowd_cost_dollars) == (
            expected["hit_count"], expected["assignment_count"], expected["cost"]
        )
        assert parent_provenance_rows(path) == len(pairs)
        assert parent_metrics_row(path)

        def store_threshold(value):
            store = SqliteStore(path)
            store.set_meta("config", {**store.get_meta("config"), "decision_threshold": value})
            store.commit()
            store.close()

        store_threshold(0.7)
        with pytest.raises(PersistenceError, match="decision_threshold=0.7"):
            StreamingResolver.restore(str(tmp_path))
        assert parent_provenance_rows(path) == len(pairs)
        assert parent_metrics_row(path)

        store_threshold(0.5)  # the value that replays
        restored = StreamingResolver.restore(str(tmp_path))
        assert restored.storage.backend_name == "memory"
        assert session_fingerprint(restored) == expected
        assert parent_provenance_rows(path) is None
        assert not parent_metrics_row(path)
        restored.durability.close()

    def test_fresh_session_refuses_an_occupied_store(self, tmp_path):
        config = make_config(storage_backend="sqlite", checkpoint_dir=str(tmp_path))
        first = StreamingResolver(config=config)
        first.add_batch([Record("r1", {"t": "alpha"}), Record("r2", {"t": "alpha"})])
        first.storage.close()
        with pytest.raises(PersistenceError):
            StreamingResolver(config=config)


# ------------------------------------------- the ledger's record -> pairs index
class TestLedgerRecordIndex:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        data=st.data(),
        schedule=event_schedules(min_size=2, max_size=7),
        backend=st.sampled_from(("memory", "sqlite")),
    )
    def test_property_pairs_of_is_the_candidates_of_each_record(
        self, tmp_path_factory, data, schedule, backend
    ):
        """After every event of a random batch/retract/update schedule —
        and after paging the session in at a random point — the ledger's
        index names exactly the candidate pairs of every record that ever
        arrived (none for a retracted one)."""
        dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
        records = list(dataset.store)
        arrived = [record.record_id for record in records]
        directory = tmp_path_factory.mktemp("index")
        session = StreamingResolver(
            config=make_config(storage_backend=backend, checkpoint_dir=str(directory))
        )
        session.add_truth(dataset.ground_truth)
        page_in_at = data.draw(
            st.integers(min_value=0, max_value=len(schedule)), label="page_in_at"
        )
        cursor = 0
        for step in range(len(schedule) + 1):
            if step == page_in_at:
                session.save()
                session.durability.close()
                session = StreamingResolver.restore(str(directory))
                assert_ledger_indexes_the_candidates(session, arrived[:cursor])
            if step < len(schedule):
                cursor = drive(session, records, schedule[step : step + 1], cursor)
                assert_ledger_indexes_the_candidates(session, arrived[:cursor])
        session.durability.close()

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        schedule=event_schedules(min_size=2, max_size=7),
        backend=st.sampled_from(("memory", "sqlite")),
        crowd_mode=st.sampled_from(("sync", "async")),
    )
    def test_property_the_pair_tables_are_the_ledger_at_every_boundary(
        self, tmp_path_factory, schedule, backend, crowd_mode
    ):
        """Batches, retractions, updates and flushes, on a synchronous or an
        asynchronous crowd: after every event the store's pair tables equal
        the ledger — written per changed key at commit (sqlite) or whole at
        the cadence (memory, every event here)."""
        dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
        session = StreamingResolver(config=make_config(
            storage_backend=backend, checkpoint_every_batches=1, crowd_mode=crowd_mode,
            checkpoint_dir=str(tmp_path_factory.mktemp("tables")),
        ))
        session.add_truth(dataset.ground_truth)
        records, cursor = list(dataset.store), 0
        for step in range(len(schedule)):
            cursor = drive(session, records, schedule[step : step + 1], cursor)
            assert_tables_are_the_ledger(session)
        session.durability.close()

    def test_a_pair_rediscovered_by_an_update_moves_to_the_end_of_both(self, tmp_path):
        """An update that re-joins a record unchanged drops its pairs and
        finds them again in one event: in the ledger and in the ``pairs``
        table alike they leave their place and go to the end."""
        dataset = make_dataset()
        session = StreamingResolver(config=make_config(
            storage_backend="sqlite", checkpoint_dir=str(tmp_path)
        ))
        session.add_truth(dataset.ground_truth)
        records = list(dataset.store)
        session.add_batch(records[:30])
        session.add_batch(records[30:])
        ledger = session.storage.ledger
        before = list(ledger.pairs)
        victim = next(
            record for record in records
            if ledger.pairs_of(record.record_id)
            and before[-1] not in ledger.pairs_of(record.record_id)
        )  # its pairs do not already end the table
        moved = set(ledger.pairs_of(victim.record_id))
        session.update(victim)
        after = list(ledger.pairs)
        assert set(after) == set(before)
        assert set(after[-len(moved):]) == moved != set(before[-len(moved):])
        assert_tables_are_the_ledger(session)
        session.durability.close()

    @pytest.mark.gate
    def test_a_durable_session_statement_count(self, tmp_path, monkeypatch):
        """Restaurant(2000, 250, seed 7) at 0.35 in batches of 250 plus a
        flush: every statement a sqlite session issues, the log's included,
        is counted — the one place the count is pinned.  2,000 are the
        per-record inserts; the pair ledger writes one statement per table
        per event.  None names the per-pair history an earlier release
        wrote three times per pair (6,059 statements then), and no ledger
        mutation is a statement of its own (4,082 then)."""
        dataset = RestaurantGenerator(2000, 250, seed=7).generate()
        records = list(dataset.store)
        statements = []
        for name in ("execute", "executemany"):
            original = getattr(SqliteStore, name)

            def counted(store, sql, *args, original=original):
                statements.append(sql)
                return original(store, sql, *args)

            monkeypatch.setattr(SqliteStore, name, counted)

        def run(**durable):
            session = StreamingResolver(config=make_config(
                join_workers=1, seed=7, **durable
            ))
            session.add_truth(dataset.ground_truth)
            for start in range(0, len(records), 250):
                session.add_batch(records[start : start + 250])
            session.flush()
            return session

        durable = run(storage_backend="sqlite", checkpoint_dir=str(tmp_path))
        assert len(statements) == 2121
        assert sum(sql.startswith("INSERT INTO records") for sql in statements) == 2000
        for table in ("pairs", "pair_votes", "posteriors", "covered"):
            assert sum(f" {table} " in sql for sql in statements) == 8  # one per batch
        assert not [sql for sql in statements if "provenance" in sql]
        assert schema_objects(durable.durability.store, "provenance") == []
        assert durable.state_digest() == run().state_digest()
        durable.durability.close()


# ------------------------------------------------------------- one restore
class TestOneRestore:
    """``restore(path)`` resumes the stored session in place: under the
    config it was written with, in the directory where it lies now."""

    @staticmethod
    def feed(resolver, records, truth, size=12):
        resolver.add_truth(truth)
        for start in range(0, len(records), size):
            resolver.add_batch(records[start : start + size])
        return resolver

    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_a_restore_runs_under_the_stored_config(self, tmp_path, backend):
        """A non-default config comes back field for field, and the session
        equals a fresh run under it that never stopped."""
        dataset = make_dataset()
        records = list(dataset.store)
        written = make_config(
            storage_backend=backend,
            checkpoint_dir=str(tmp_path),
            checkpoint_every_batches=2,
            likelihood_threshold=0.2,
            stream_batch_size=12,
            hit_type="pair",
            pairs_per_hit=5,
        )
        resolver = self.feed(StreamingResolver(config=written), records, dataset.ground_truth)
        resolver.durability.close()
        restored = StreamingResolver.restore(str(tmp_path))
        assert restored.config == written
        assert restored.storage.backend_name == backend
        fresh = self.feed(
            StreamingResolver(
                config=dataclasses.replace(
                    written, checkpoint_dir=None, storage_backend="memory"
                )
            ),
            records,
            dataset.ground_truth,
        )
        assert_sessions_identical(fresh, restored)
        restored.durability.close()

    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_a_moved_session_is_taken_over_where_it_lies(self, tmp_path, backend):
        """A directory moved between runs resumes from its new place, goes on
        logging to its one file there and leaves nothing else behind."""
        dataset = make_dataset()
        records = list(dataset.store)
        home, moved = tmp_path / "home", tmp_path / "moved"
        resolver = self.feed(
            StreamingResolver(
                config=make_config(
                    storage_backend=backend,
                    checkpoint_dir=str(home),
                    checkpoint_every_batches=2,
                )
            ),
            records[:24],
            dataset.ground_truth,
        )
        resolver.durability.close()
        shutil.move(str(home), str(moved))
        restored = StreamingResolver.restore(str(moved))
        assert restored.config.checkpoint_dir == str(moved)
        for start in range(24, len(records), 12):
            restored.add_batch(records[start : start + 12])
        restored.durability.close()
        assert not home.exists()
        assert os.listdir(moved) == [STORE_FILENAME]
        again = StreamingResolver.restore(str(moved))
        never_stopped = self.feed(
            StreamingResolver(config=make_config()), records, dataset.ground_truth
        )
        assert_sessions_identical(never_stopped, again)
        again.durability.close()

    def test_restore_takes_only_the_path_and_the_crowd_parts(self, tmp_path):
        """No config override, no journal switch, no verification switch:
        each is refused, and the refusal leaves the store restorable."""
        assert list(inspect.signature(StreamingResolver.restore).parameters) == [
            "path", "platform", "worker_pool", "pricing", "latency"
        ]
        dataset = make_dataset()
        resolver = self.feed(
            StreamingResolver(
                config=make_config(storage_backend="sqlite", checkpoint_dir=str(tmp_path))
            ),
            list(dataset.store),
            dataset.ground_truth,
        )
        expected = session_fingerprint(resolver)
        resolver.durability.close()
        for retired in (
            {"config": make_config(checkpoint_dir=str(tmp_path))},
            {"resume_journal": False},
            {"verify": False},
        ):
            with pytest.raises(TypeError):
                StreamingResolver.restore(str(tmp_path), **retired)
            with pytest.raises(TypeError):
                persistence.restore(StreamingResolver, tmp_path, **retired)
        restored = StreamingResolver.restore(str(tmp_path))
        assert session_fingerprint(restored) == expected
        restored.durability.close()


# --------------------------------------------- async crowd crash recovery
class TestAsyncCrashRecovery:
    """Crash recovery under partial votes.

    A durable asynchronous session killed while HITs are in flight (votes
    published but only partially delivered) must restore — snapshot plus
    journal-tail replay, or store page-in — to a state that converges to
    the uninterrupted twin bit-identically.  The async platform state
    (pending attempts, buffered deliveries, per-pair slot accumulators,
    starved backlog) rides in the snapshot/store meta, so replaying the
    journal tail re-derives the exact delivery schedule.
    """

    ASYNC = dict(
        crowd_mode="async",
        vote_timeout=3,
        crowd_max_retries=2,
        fault_plan=dict(
            seed=17, delay_ticks_max=5, drop_probability=0.3,
            duplicate_probability=0.2, reorder_probability=0.4,
            reorder_window_ticks=3, churn_probability=0.1,
        ),
    )

    def run_uninterrupted(self, records, truth, **overrides):
        resolver = StreamingResolver(config=make_config(**self.ASYNC, **overrides))
        resolver.add_truth(truth)
        for start in range(0, len(records), 10):
            resolver.add_batch(records[start : start + 10])
        resolver.flush()
        return resolver

    @pytest.mark.parametrize("backend", ("memory", "sqlite"))
    def test_crash_mid_delivery_restores_identically(self, tmp_path, backend):
        dataset = make_dataset()
        records = list(dataset.store)
        twin = self.run_uninterrupted(records, dataset.ground_truth)

        config = make_config(
            storage_backend=backend, checkpoint_dir=str(tmp_path), **self.ASYNC
        )
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 30, 10):
            resolver.add_batch(records[start : start + 10])
        # The crash is only interesting if votes really are in flight.
        assert resolver.driver.inflight
        if backend == "sqlite":
            # Losing the open store transaction is part of the crash.
            resolver.storage.rollback()
        resolver.storage.close()

        restored = StreamingResolver.restore(str(tmp_path))
        for start in range(30, len(records), 10):
            restored.add_batch(records[start : start + 10])
        restored.flush()
        assert_sessions_identical(twin, restored)
        assert not restored.driver.inflight and not restored.driver.starved
        restored.storage.close()

    def test_crash_between_arrival_and_commit_replays_the_intent(self, tmp_path):
        """Votes that arrived inside an uncommitted event are not lost: the
        store rolls back to the last event boundary and the journaled
        intent replays the batch — including its poll of the async
        platform — deterministically."""
        dataset = make_dataset()
        records = list(dataset.store)
        twin = self.run_uninterrupted(records[:40], dataset.ground_truth)

        config = make_config(
            storage_backend="sqlite", checkpoint_dir=str(tmp_path), **self.ASYNC
        )
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 30, 10):
            resolver.add_batch(records[start : start + 10])
        batch = records[30:40]
        resolver.durability.intent("batch", batch, None)
        resolver.apply("batch", batch, None)  # deliveries ingested, not committed
        resolver.storage.rollback()
        resolver.storage.close()

        restored = StreamingResolver.restore(str(tmp_path))
        restored.flush()
        assert_sessions_identical(twin, restored)
        restored.storage.close()

    def test_async_equals_sync_after_a_crash(self, tmp_path):
        """The robustness headline, end to end: crash + restore + faults
        still land on the synchronous baseline's matches and posteriors."""
        dataset = make_dataset()
        records = list(dataset.store)
        sync = StreamingResolver(config=make_config())
        sync.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 10):
            sync.add_batch(records[start : start + 10])
        sync.flush()

        config = make_config(
            storage_backend="sqlite", checkpoint_dir=str(tmp_path), **self.ASYNC
        )
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 20, 10):
            resolver.add_batch(records[start : start + 10])
        resolver.storage.rollback()
        resolver.storage.close()
        restored = StreamingResolver.restore(str(tmp_path))
        for start in range(20, len(records), 10):
            restored.add_batch(records[start : start + 10])
        restored.flush()
        snap_sync, snap_async = sync.snapshot(), restored.snapshot()
        assert snap_async.matches == snap_sync.matches
        assert snap_async.posteriors == snap_sync.posteriors
        assert snap_async.hit_count == snap_sync.hit_count
        restored.storage.close()

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        data=st.data(),
        schedule=event_schedules(min_size=2, max_size=5),
    )
    def test_property_async_crash_schedules_converge(
        self, tmp_path_factory, data, schedule
    ):
        """Random schedules (batches, retractions, updates, flushes) with a
        crash at a random point: the restored async session must end
        bit-identical to an uninterrupted async twin."""
        dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
        records = list(dataset.store)
        mem = StreamingResolver(config=make_config(**self.ASYNC))
        mem.add_truth(dataset.ground_truth)
        drive(mem, records, schedule)
        mem.flush()

        directory = tmp_path_factory.mktemp("asyncsession")
        config = make_config(
            storage_backend="sqlite",
            checkpoint_dir=str(directory),
            checkpoint_every_batches=0,
            **self.ASYNC,
        )
        sql = StreamingResolver(config=config)
        sql.add_truth(dataset.ground_truth)
        crash_at = data.draw(
            st.integers(min_value=0, max_value=len(schedule)), label="crash_at"
        )
        cursor = drive(sql, records, schedule[:crash_at])
        sql.storage.rollback()
        sql.storage.close()
        sql = StreamingResolver.restore(str(directory))
        drive(sql, records, schedule[crash_at:], cursor=cursor)
        sql.flush()
        assert_sessions_identical(mem, sql)
        sql.storage.close()


# ------------------------------------------------- columnar HIT generation
class TestColumnarPairGeneration:
    def test_to_arrays_densifies_missing_likelihoods(self):
        pairs = PairSet(
            [
                RecordPair("r1", "r2", likelihood=0.8),
                RecordPair("r3", "r4"),
                RecordPair("r5", "r6", likelihood=0.3),
            ]
        )
        keys, values = pairs.to_arrays()
        assert keys == [("r1", "r2"), ("r3", "r4"), ("r5", "r6")]
        assert values.dtype == np.float64
        assert values.tolist() == [0.8, -1.0, 0.3]

    def test_argsort_descending_is_stable(self):
        order = argsort_descending([0.5, 0.9, 0.5, -1.0, 0.9])
        assert order.tolist() == [1, 4, 0, 2, 3]

    @settings(max_examples=25, deadline=None)
    @given(
        likelihoods=st.lists(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        ),
        pairs_per_hit=st.integers(min_value=1, max_value=7),
    )
    def test_property_columnar_ranking_equals_object_sort(
        self, likelihoods, pairs_per_hit
    ):
        """The vectorized argsort path produces exactly the HITs the old
        per-object stable sort did, for any likelihood multiset."""
        pairs = PairSet(
            RecordPair(f"r{2 * n}", f"r{2 * n + 1}", likelihood=value)
            for n, value in enumerate(likelihoods)
        )
        batch = PairHITGenerator(pairs_per_hit=pairs_per_hit).generate(pairs)
        reference = [pair.key for pair in pairs.sorted_by_likelihood()]
        flattened = [key for hit in batch.hits for key in hit.pairs]
        assert flattened == reference
        assert [hit.hit_id for hit in batch.hits] == [
            f"pair-hit-{n + 1}" for n in range(len(batch.hits))
        ]
        assert all(len(hit.pairs) <= pairs_per_hit for hit in batch.hits)
        assert batch.candidate_pairs == set(pairs.keys())

    def test_insertion_order_mode_is_untouched(self):
        pairs = PairSet(
            [
                RecordPair("r1", "r2", likelihood=0.1),
                RecordPair("r3", "r4", likelihood=0.9),
            ]
        )
        batch = PairHITGenerator(pairs_per_hit=10, order_by_likelihood=False).generate(pairs)
        assert batch.hits[0].pairs == (("r1", "r2"), ("r3", "r4"))
