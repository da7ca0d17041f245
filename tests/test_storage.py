"""Tests for the storage layer (repro.storage).

The central contract: a durable streaming session, which writes each
event's changed rows into its SQLite store at commit, is **bit-identical**
to an in-memory one — same matches, same posteriors to the last float bit,
same digests — for any schedule of batches, retractions, updates, flushes
and crashes, and restoring it is a *page-in* of committed state (plus a
short replay of the logged tail) rather than a replay of the whole log.
"""

import dataclasses
import inspect
import json
import os
import re
import shutil
import sqlite3
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import drive, event_schedules

from repro import obs
from repro.core.config import WorkflowConfig
from repro.crowd import AsyncCrowd, FaultPlan, SimulatedCrowdPlatform, WorkerPool
from repro.datasets.restaurant import RestaurantGenerator
from repro.hit.pair_generation import PairHITGenerator
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import CostReport
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record
from repro.simjoin.columnar import argsort_descending
from repro.storage import SqliteStore, StorageError, upgrade
from repro.storage.sqlite import STORE_FILENAME
from repro.streaming import (
    JournalCorruptionError,
    PersistenceError,
    SessionJournal,
    StreamingResolver,
    persistence,
)
from repro.streaming.incremental_join import IncrementalSimJoin


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
    """The ``ledger`` table of the session's store holds exactly its ledger:
    one row per candidate pair, and no row of a dropped key."""
    ledger = session.storage.ledger
    rows = session.durability.store.query(
        "SELECT id_a, id_b, likelihood, votes, pending, posterior, covered FROM ledger"
    ).fetchall()
    assert len(rows) == len(ledger.pairs)
    assert {
        (a, b): (likelihood, None if votes is None else json.loads(votes), pending, posterior,
                 covered)
        for a, b, likelihood, votes, pending, posterior, covered in rows
    } == {
        key: (
            likelihood,
            [[worker, answer] for worker, _, answer in ledger.votes[key]]
            if key in ledger.votes else None,
            ledger.pending_votes.get(key, 0),
            ledger.posteriors.get(key),
            int(key in ledger.covered),
        )
        for key, likelihood in ledger.pairs.items()
    }
    # Only candidates carry votes, a posterior or coverage: a row holds them all.
    assert ledger.votes.keys() | ledger.posteriors.keys() | ledger.covered <= ledger.pairs.keys()


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
        store = SqliteStore(path)  # arrival order goes on after a reopen
        store.add_record(Record("c", {"name": "gamma"}))
        store.remove_record("a")
        store.commit()
        store.close()
        reopened = SqliteStore(path)
        assert [
            (record.record_id, dict(record.attributes), record.source)
            for record in reopened.iter_records()
        ] == [("b", {"name": "beta"}, "s1"), ("c", {"name": "gamma"}, None)]
        reopened.close()

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

    def test_ledger_mutations_survive_reopen(self, tmp_path):
        """A stored ledger's mutations reach the ``ledger`` table when the
        store commits: nothing is written before, every changed key's row
        once then, and a dropped key's row not at all."""
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        key, other, third = ("r1", "r2"), ("r3", "r4"), ("r5", "r6")
        store.ledger.add_pair(key, 0.5)
        store.ledger.add_pair(other, None)
        store.ledger.add_pair(third, 0.25)
        store.ledger.add_pair(key, 0.75)  # keeps the higher likelihood, and its place
        store.ledger.add_pair(third, 0.125)  # a lower one changes nothing
        assert list(store.ledger.pairs.items()) == [(key, 0.75), (other, None), (third, 0.25)]
        store.ledger.record_fresh_votes(key, [("w1", key, True), ("w2", key, False)])
        store.ledger.mark_covered([key])
        store.ledger.set_posterior(key, 2.0 / 3.0)
        store.ledger.clear_pending([key])
        store.ledger.drop_pair(other)
        assert store.ledger.unsaved == {key, other, third}
        assert store.query("SELECT COUNT(*) FROM ledger").fetchone() == (0,)
        store.commit()
        assert store.ledger.unsaved == set()
        assert store.query("SELECT * FROM ledger").fetchall() == [
            ("r1", "r2", 0.75, '[["w1", true], ["w2", false]]', 0, 2.0 / 3.0, 1),
            ("r5", "r6", 0.25, None, 0, None, 0),
        ]
        store.close()
        reopened = SqliteStore(path)
        reopened.load_ledger()  # opening reads no table; page-in asks for it
        ledger = reopened.ledger
        assert ledger.pairs == {key: 0.75, third: 0.25}
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
        assert [record.record_id for record in reopened.iter_records()] == ["r1"]
        reopened.close()


# ------------------------------------------- durable == in-memory, bit for bit
class TestBackendBitIdentity:
    def test_simple_run_matches_memory_backend(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        mem = StreamingResolver(config=make_config())
        sql = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
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

        The in-memory session runs the schedule uninterrupted; the
        durable session runs a prefix, crashes (its open
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
        sql = StreamingResolver(config=make_config(checkpoint_dir=str(directory)))
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

    @pytest.mark.parametrize("compact_below", (None, 2), ids=("appended", "compacted"))
    def test_crash_mid_event_replays_from_the_journal_intent(
        self, tmp_path, monkeypatch, compact_below
    ):
        """The store rolls back to the last event boundary; the journaled
        intent replays the interrupted event on restore.  ``compacted``:
        with ``COMPACT_MIN_TOMBSTONES`` patched low, retractions compact the
        live session's join index before the crash.  The restored session
        equals an uninterrupted in-memory one, before and after a common
        tail."""
        if compact_below is not None:
            monkeypatch.setattr(IncrementalSimJoin, "COMPACT_MIN_TOMBSTONES", compact_below)
        dataset = make_dataset()
        records = list(dataset.store)
        retracted = [record.record_id for record in records[:24:3]] if compact_below else []

        def run_prefix(session):
            session.add_truth(dataset.ground_truth)
            for start in range(0, 30, 10):
                session.add_batch(records[start : start + 10])
            for record_id in retracted:
                session.retract(record_id)

        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        run_prefix(resolver)
        if retracted:
            assert resolver.join.tombstone_count < len(retracted)  # it compacted
        # Crash mid-event: the intent hits the journal, the store
        # transaction is rolled back before the event-boundary commit.
        batch = records[30:40]
        resolver.durability.intent("batch", batch, None)
        resolver.apply("batch", batch, None)
        resolver.storage.rollback()
        resolver.storage.close()

        restored = StreamingResolver.restore(str(tmp_path))
        uninterrupted = StreamingResolver(config=make_config())
        run_prefix(uninterrupted)
        uninterrupted.add_batch(batch)
        assert_sessions_identical(uninterrupted, restored)
        for session in (uninterrupted, restored):
            session.retract(records[31].record_id)
            session.update(records[1].with_attributes(name="rewritten"))
            session.add_batch(records[40:])
            session.flush()
        assert_sessions_identical(uninterrupted, restored)
        restored.storage.close()


# ----------------------------------------------------------- page-in restore
class TestPageInRestore:
    def test_restore_pages_in_without_snapshot_or_replay(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
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
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 40, 13):
            resolver.add_batch(records[start:][: min(13, 40 - start)])
        resolver.storage.close()
        twin_dir = tmp_path.parent / (tmp_path.name + "-twin")
        twin = StreamingResolver(config=make_config(checkpoint_dir=str(twin_dir)))
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
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(home)))
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
        # after the state it was copied with, and logging to it makes it a
        # session's store, which no save(X) overwrites.
        tail = [Record("late", dict(records[0].attributes))]
        restored.add_batch(tail)
        assert restored.events_applied == resolver.events_applied + 1
        store = restored.durability.store
        assert store.get_meta("events_applied") == restored.events_applied
        assert store.get_meta("logged") is True
        restored.durability.close()
        with pytest.raises(PersistenceError, match="already holds a session"):
            resolver.save(copy)

    def test_store_carrying_the_provenance_table_restores_and_sheds_it(self, tmp_path):
        """An earlier release kept a per-pair history table (``provenance``,
        two indexes, one JSON row per pair) that nothing read, and a copy of
        its process's metrics registry in a ``metrics`` meta row.  Its store
        restores bit-identically — into a registry that counts no HIT, as
        page-in publishes nothing — retracts exactly, and loses both."""
        dataset = make_dataset()
        records = list(dataset.store)
        resolver = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
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
        assert restored.retract(victim).invalidated_pairs == len(victim_pairs)
        twin.retract(victim)
        assert_sessions_identical(twin, restored)
        restored.durability.close()

    def test_a_parent_store_keeps_its_provenance_until_a_session_takes_it_over(
        self, tmp_path
    ):
        """Reading a store (``repro stats``) or refusing to restore it leaves
        the earlier release's table and rows and its ``metrics`` meta row in
        place, so that release can still resume it; a resume that keeps the
        log drops them.  The report ignores the copied registry: it is the
        session's own cost."""
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
        assert session_fingerprint(restored) == expected
        assert parent_provenance_rows(path) is None
        assert not parent_metrics_row(path)
        restored.durability.close()

    def test_fresh_session_refuses_an_occupied_store(self, tmp_path):
        config = make_config(checkpoint_dir=str(tmp_path))
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
    )
    def test_property_pairs_of_is_the_candidates_of_each_record(
        self, tmp_path_factory, data, schedule
    ):
        """After every event of a random batch/retract/update schedule —
        and after paging the session in at a random point — the ledger's
        index names exactly the candidate pairs of every record that ever
        arrived (none for a retracted one)."""
        dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
        records = list(dataset.store)
        arrived = [record.record_id for record in records]
        directory = tmp_path_factory.mktemp("index")
        session = StreamingResolver(config=make_config(checkpoint_dir=str(directory)))
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
        crowd=st.sampled_from((None, AsyncCrowd())),
    )
    def test_property_the_pair_tables_are_the_ledger_at_every_boundary(
        self, tmp_path_factory, schedule, crowd
    ):
        """Batches, retractions, updates and flushes, on a synchronous or an
        asynchronous crowd: after every event the store's ``ledger`` table
        equals the ledger, written per changed key at commit."""
        dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=47)
        session = StreamingResolver(config=make_config(
            crowd=crowd, checkpoint_dir=str(tmp_path_factory.mktemp("tables")),
        ))
        session.add_truth(dataset.ground_truth)
        records, cursor = list(dataset.store), 0
        for step in range(len(schedule)):
            cursor = drive(session, records, schedule[step : step + 1], cursor)
            assert_tables_are_the_ledger(session)
        session.durability.close()

    def test_an_update_leaves_one_row_per_pair(self, tmp_path):
        """An update that re-joins a record unchanged drops its pairs and
        finds them again in one event: the ledger holds the same pairs, and
        the ``ledger`` table one row for each."""
        dataset = make_dataset()
        session = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        session.add_truth(dataset.ground_truth)
        records = list(dataset.store)
        session.add_batch(records[:30])
        session.add_batch(records[30:])
        ledger = session.storage.ledger
        before = dict(ledger.pairs)
        victim = next(record for record in records if ledger.pairs_of(record.record_id))
        rediscovered = set(ledger.pairs_of(victim.record_id))
        session.update(victim)
        assert ledger.pairs == before
        assert ledger.pairs_of(victim.record_id) == rediscovered
        assert_tables_are_the_ledger(session)
        session.durability.close()

    @staticmethod
    def durable_run(tmp_path, **durable):
        """Restaurant(2000, 250, seed 7) at 0.35 in batches of 250 plus a
        flush; durable when given a ``checkpoint_dir``."""
        dataset = RestaurantGenerator(2000, 250, seed=7).generate()
        records = list(dataset.store)
        session = StreamingResolver(config=make_config(join_workers=1, seed=7, **durable))
        session.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 250):
            session.add_batch(records[start : start + 250])
        session.flush()
        return session

    @pytest.mark.gate
    def test_a_durable_session_statement_count(self, tmp_path, monkeypatch):
        """Restaurant(2000, 250, seed 7) at 0.35 in batches of 250 plus a
        flush: every statement a durable session issues, the log's included,
        is counted — the one place the count is pinned.  2,000 are the
        per-record inserts; the pair ledger writes one ``ledger`` statement
        per event that changed it (four, one per pair table, before the
        pairs shared one row: 2,121 statements then).  Each of the 11
        intents (header, truth, eight batches, flush) is one insert and each
        of the 11 commits that apply them (the constructor's and the ten
        events') one delete of it; the store is marked a session's once
        (the nine ``commit`` outcome rows of store format 3 and no delete
        or mark: 2,073 statements then).  None writes the join index, which
        a restore rebuilds from the records (three per batch before: 2,097
        statements then).  None names the per-pair history an earlier
        release wrote three times per pair (6,059 statements then), and no
        ledger mutation is a statement of its own (4,082 then)."""
        statements = []
        for name in ("execute", "executemany"):
            original = getattr(SqliteStore, name)

            def counted(store, sql, *args, original=original):
                statements.append(sql)
                return original(store, sql, *args)

            monkeypatch.setattr(SqliteStore, name, counted)

        durable = self.durable_run(tmp_path, checkpoint_dir=str(tmp_path))
        assert len(statements) == 2076
        assert sum(sql.startswith("INSERT INTO records") for sql in statements) == 2000
        assert sum(" ledger " in sql for sql in statements) == 8  # one per batch
        assert sum(sql.startswith("INSERT INTO events") for sql in statements) == 11
        assert sum(sql.startswith("DELETE FROM events") for sql in statements) == 11
        assert not [sql for sql in statements if "provenance" in sql]
        assert schema_objects(durable.durability.store, "provenance") == []
        assert durable.state_digest() == self.durable_run(tmp_path).state_digest()
        durable.durability.close()

    @pytest.mark.gate
    def test_a_durable_event_digests_nothing_and_logs_no_outcome(self, tmp_path, monkeypatch):
        """The same session: no event computes a ``state_digest`` (a walk of
        every posterior) and none logs a ``commit`` outcome — each appends
        its intent alone, and the log is empty when the session ends."""
        digests, appended = [], []
        digest, append = persistence.state_digest, SessionJournal.append

        def counted_digest(*arguments):
            digests.append(arguments)
            return digest(*arguments)

        def counted_append(journal, event_type, payload):
            appended.append(event_type)
            return append(journal, event_type, payload)

        monkeypatch.setattr(persistence, "state_digest", counted_digest)
        monkeypatch.setattr(SessionJournal, "append", counted_append)
        durable = self.durable_run(tmp_path, checkpoint_dir=str(tmp_path))
        assert digests == []
        assert appended == ["session", "truth"] + ["batch"] * 8 + ["flush"]
        assert durable.durability.journal.events() == []
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

    def test_a_restore_runs_under_the_stored_config(self, tmp_path):
        """A non-default config comes back field for field, and the session
        equals a fresh run under it that never stopped."""
        dataset = make_dataset()
        records = list(dataset.store)
        written = make_config(
            checkpoint_dir=str(tmp_path),
            likelihood_threshold=0.2,
            stream_batch_size=12,
            hit_type="pair",
            pairs_per_hit=5,
        )
        resolver = self.feed(StreamingResolver(config=written), records, dataset.ground_truth)
        resolver.durability.close()
        restored = StreamingResolver.restore(str(tmp_path))
        assert restored.config == written
        fresh = self.feed(
            StreamingResolver(config=dataclasses.replace(written, checkpoint_dir=None)),
            records,
            dataset.ground_truth,
        )
        assert_sessions_identical(fresh, restored)
        restored.durability.close()

    def test_a_moved_session_is_taken_over_where_it_lies(self, tmp_path):
        """A directory moved between runs resumes from its new place, goes on
        logging to its one file there and leaves nothing else behind."""
        dataset = make_dataset()
        records = list(dataset.store)
        home, moved = tmp_path / "home", tmp_path / "moved"
        resolver = self.feed(
            StreamingResolver(config=make_config(checkpoint_dir=str(home))),
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

    def test_restore_takes_only_the_path(self, tmp_path):
        """No config override, no journal switch, no verification switch and
        no crowd the stored config does not describe: each is refused, and
        the refusal leaves the store restorable."""
        assert list(inspect.signature(StreamingResolver.restore).parameters) == ["path"]
        assert list(inspect.signature(StreamingResolver).parameters) == [
            "config", "cross_sources", "_durability"
        ]
        other_crowd = SimulatedCrowdPlatform(
            assignments_per_hit=5, pool=WorkerPool.build(seed=99), vote_mode="per-pair"
        )
        with pytest.raises(TypeError):
            StreamingResolver(make_config(), platform=other_crowd)
        dataset = make_dataset()
        resolver = self.feed(
            StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path))),
            list(dataset.store),
            dataset.ground_truth,
        )
        expected = session_fingerprint(resolver)
        resolver.durability.close()
        for retired in (
            {"config": make_config(checkpoint_dir=str(tmp_path))},
            {"resume_journal": False},
            {"verify": False},
            {"platform": other_crowd},
            {"worker_pool": WorkerPool.build(seed=99)},
        ):
            with pytest.raises(TypeError):
                StreamingResolver.restore(str(tmp_path), **retired)
            with pytest.raises(TypeError):
                persistence.restore(StreamingResolver, tmp_path, **retired)
        restored = StreamingResolver.restore(str(tmp_path))
        assert session_fingerprint(restored) == expected
        restored.durability.close()


# ------------------------------------------- stores earlier releases wrote
FIXTURES = Path(__file__).parent / "fixtures"

#: Format 1 kept a pair in four tables keyed by ``(id_a, id_b)``.
FORMAT_1_TABLES = ("pairs", "pair_votes", "posteriors", "covered")
#: Formats 1 and 2 kept the join's index, which format 3 rebuilds from the
#: records at restore.
JOIN_INDEX_TABLES = ("tokens", "join_rows", "csr_chunks")


#: The crowd every committed store was written on, stored as an earlier
#: release's six flat fields (``crowd_mode="async"``, ``fault_plan``, ...).
WRITTEN_CROWD = AsyncCrowd(fault_plan=FaultPlan(seed=3, delay_ticks_min=1, delay_ticks_max=3))


@dataclasses.dataclass(frozen=True)
class WrittenStore:
    """A store an earlier release wrote, committed as a text SQL dump.

    Each ran Restaurant(45, 8, seed 31) at 0.15 on an asynchronous crowd
    whose deliveries are delayed (:meth:`config`), through
    :meth:`events`; ``applied`` of them are in the state tables and
    ``logged`` in the log.  ``stats`` is what ``repro stats`` reported on
    it under that release.  ``label`` names how that release wrote it.
    """

    dump: str
    label: str
    aggregation: str
    applied: int
    logged: int
    stats: tuple

    def config(self, directory=None):
        return make_config(
            likelihood_threshold=0.15,
            aggregation=self.aggregation,
            crowd=WRITTEN_CROWD,
            checkpoint_dir=str(directory) if directory else None,
        )

    @staticmethod
    def events(records):
        revised = records[5].with_attributes(name="revised beyond recognition")
        return [
            ("add_batch", records[:15]),
            ("add_batch", records[15:30]),
            ("retract", records[3].record_id),
            ("update", revised),
            ("add_batch", records[30:40]),
            ("flush",),
        ]

    def load(self, directory):
        """Write the dump into ``directory``'s store file, in WAL mode as its
        release left it."""
        directory.mkdir(parents=True)
        connection = sqlite3.connect(str(directory / STORE_FILENAME))
        connection.executescript((FIXTURES / self.dump).read_text())
        connection.execute("PRAGMA journal_mode=WAL")
        connection.close()
        return directory

    def twin(self, dataset, events):
        """A session that ran the first ``events`` without stopping."""
        session = StreamingResolver(config=self.config())
        session.add_truth(dataset.ground_truth)
        for name, *arguments in self.events(list(dataset.store))[:events]:
            getattr(session, name)(*arguments)
        return session


#: ``stats``: hits, assignments, votes, cost, crowd seconds.
FORMAT_1_STORES = (
    # Memory-backed: its state saved after the retraction; the update, the
    # batch of records 30-40 and the flush logged after it.
    WrittenStore("v1_memory_store.sql", "memory", "dawid-skene", 3, 6,
                 (3, 8, 27, 0.22500000000000003, 640.0)),
    # Sqlite-backed, as a crash left it: the batch of records 30-40 logged
    # and not applied.
    WrittenStore("v1_sqlite_crash_store.sql", "sqlite", "majority", 4, 5,
                 (3, 9, 33, 0.22500000000000003, 709.8)),
)

#: Format 2, written by the last release with two write schedules: a
#: memory-backed session at ``checkpoint_every_batches=3`` rewrote its state
#: tables after the retraction (its third event with an outcome), and its
#: log holds the update and the batch of records 30-40 past them.
CADENCE_STORE = WrittenStore(
    "v2_memory_cadence_store.sql", "cadence", "dawid-skene", 3, 5,
    (3, 8, 27, 0.22500000000000003, 640.0),
)

#: Format 3, written by the last release whose log kept every event and its
#: ``commit`` outcome, as a crash inside the batch of records 30-40 left it:
#: the state at the update, the log from the ``session`` header on, that
#: batch's intent its unapplied tail.
FORMAT_3_STORE = WrittenStore(
    "v3_sqlite_store.sql", "format-3", "majority", 4, 5,
    (3, 9, 33, 0.22500000000000003, 709.8),
)


def store_contents(path):
    """Every table of the file at ``path`` and its rows."""
    connection = sqlite3.connect(str(path))
    try:
        return {
            name: sorted(connection.execute(f'SELECT * FROM "{name}"').fetchall())
            for name, in connection.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        }
    finally:
        connection.close()


def delete_events(directory, where=""):
    """Delete logged events of the store in ``directory`` (all without ``where``)."""
    connection = sqlite3.connect(str(directory / STORE_FILENAME))
    with connection:
        connection.execute("DELETE FROM events " + where)
    connection.close()


def format_1_tables(store):
    """The format-1 pair tables ``store`` still has."""
    return [table for table in FORMAT_1_TABLES if schema_objects(store, table)]


def join_index_tables(store):
    """The join index tables (formats 1 and 2) ``store`` still has."""
    return [table for table in JOIN_INDEX_TABLES if schema_objects(store, table)]


def forge_outcome(directory):
    """Append a ``commit`` row with a valid checksum and a wrong digest."""
    connection = sqlite3.connect(str(directory / STORE_FILENAME))
    with connection:
        seq = connection.execute("SELECT MAX(seq) FROM events").fetchone()[0] + 1
        text = json.dumps({"delta": {}, "digest": "0" * 64, "votes": []})
        connection.execute(
            "INSERT INTO events VALUES (?, 'commit', ?, ?)",
            (seq, text, persistence._entry_crc(seq, "commit", text)),
        )
    connection.close()


def assert_restores_and_continues(tmp_path, written, tail):
    """``written`` restores bit-identically to a session that ran the events
    its store holds — with its logged tail, with the log cut at its state,
    and as a ``save(X)`` copy (state, no events) — in store format 4,
    without the join index tables and with an empty log, then continues
    and restores again bit-identically."""
    dataset = make_dataset()
    records = list(dataset.store)
    directory = written.load(tmp_path / "store")
    if tail == "cut":
        delete_events(
            directory, "WHERE seq > (SELECT value FROM meta WHERE key = 'events_applied')"
        )
    elif tail == "store-only":
        delete_events(directory)
    twin = written.twin(dataset, written.logged if tail == "logged" else written.applied)
    restored = StreamingResolver.restore(directory)
    assert restored.config.crowd == WRITTEN_CROWD
    assert restored.config == written.config(directory)
    assert_sessions_identical(twin, restored)
    assert restored.storage.ledger.votes == twin.storage.ledger.votes
    store = restored.durability.store
    assert store.get_meta("version") == persistence.FORMAT_VERSION == 4
    assert format_1_tables(store) == []
    assert join_index_tables(store) == []
    assert restored.durability.journal.events() == []
    for session in (twin, restored):
        session.add_batch(records[40:])
        session.retract(records[10].record_id)
        session.flush()
    assert_sessions_identical(twin, restored)
    restored.durability.close()
    again = StreamingResolver.restore(directory)
    assert_sessions_identical(twin, again)
    again.durability.close()


def assert_stats_as_written(tmp_path, capsys, written):
    """``repro stats`` on ``written`` reports what its release did and leaves
    the file as it was, but for a ``ledger`` table opening it adds."""
    from repro.cli import main

    directory = written.load(tmp_path / "store")
    before = store_contents(directory / STORE_FILENAME)
    capsys.readouterr()
    assert main(["stats", "--checkpoint-dir", str(directory), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = ("hits_issued", "assignments", "votes", "crowd_cost_dollars", "crowd_work_seconds")
    assert tuple(report[name] for name in names) == written.stats
    assert store_contents(directory / STORE_FILENAME) == {"ledger": [], **before}


def assert_a_refused_restore_leaves_it(tmp_path, written):
    """A forged outcome fails verification after page-in and replay: the
    restore's one transaction rolls back, and the file keeps every table
    and row — its join index included — but for a ``ledger`` table opening
    it adds.  Returns the file's contents."""
    directory = written.load(tmp_path / "store")
    forge_outcome(directory)
    before = store_contents(directory / STORE_FILENAME)
    assert all(before[table] for table in JOIN_INDEX_TABLES)
    with pytest.raises(JournalCorruptionError, match="digest|votes"):
        StreamingResolver.restore(directory)
    assert store_contents(directory / STORE_FILENAME) == {"ledger": [], **before}
    return before


class TestFormat1Stores:
    """A store the last format-1 release wrote restores, continues and
    restores again bit-identically; its four pair tables move into
    ``ledger`` only when a restore takes it over."""

    @pytest.mark.parametrize("written", FORMAT_1_STORES, ids=lambda store: store.label)
    @pytest.mark.parametrize("tail", ("logged", "cut", "store-only"))
    def test_a_format_1_store_restores_and_continues_bit_identically(
        self, tmp_path, written, tail
    ):
        assert_restores_and_continues(tmp_path, written, tail)

    @pytest.mark.parametrize("written", FORMAT_1_STORES, ids=lambda store: store.label)
    def test_repro_stats_reports_a_format_1_store_as_its_release_did(
        self, tmp_path, capsys, written
    ):
        """``repro stats`` reads the store upgraded in a transaction it rolls
        back: the file keeps every table and row (opening it adds the empty
        ``ledger`` table, as it adds any missing one)."""
        assert_stats_as_written(tmp_path, capsys, written)

    @pytest.mark.parametrize("written", FORMAT_1_STORES, ids=lambda store: store.label)
    def test_a_refused_restore_leaves_a_format_1_store_as_it_was(self, tmp_path, written):
        """The store keeps its four pair tables, their rows and ``version`` 1."""
        before = assert_a_refused_restore_leaves_it(tmp_path, written)
        assert all(before[table] for table in FORMAT_1_TABLES)

    def test_save_over_a_format_1_copy_restores_the_saving_session(self, tmp_path):
        """``save(X)`` rewrites ``X``'s state tables and leaves a format-1
        copy's four pair tables behind, stale: ``meta.version`` — not which
        tables exist — says where the ledger is, and the restore that takes
        the copy over drops them."""
        written = FORMAT_1_STORES[0]
        directory = written.load(tmp_path / "store")
        delete_events(directory)  # a store-only copy
        dataset = make_dataset(record_count=60, duplicate_pairs=10, seed=13)
        records = list(dataset.store)
        session = StreamingResolver(config=make_config())
        session.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 20):
            session.add_batch(records[start : start + 20])
        session.save(directory)
        stale = store_contents(directory / STORE_FILENAME)
        assert all(stale[table] for table in FORMAT_1_TABLES)
        report = CostReport.from_store(str(directory / STORE_FILENAME))
        assert report.votes == sum(map(len, session.storage.ledger.votes.values()))
        restored = StreamingResolver.restore(directory)
        assert_sessions_identical(session, restored)
        assert format_1_tables(restored.durability.store) == []
        restored.durability.close()


class TestACadenceStore:
    """The last release with two write schedules let a memory-backed session
    rewrite its state tables every ``checkpoint_every_batches`` events, so
    its store can trail its log by several.  Such a store restores,
    replaying that tail, continues and restores again bit-identically; its
    two retired knobs are dropped, never named."""

    @pytest.mark.parametrize("tail", ("logged", "cut", "store-only"))
    def test_restores_and_continues_bit_identically(self, tmp_path, tail):
        assert_restores_and_continues(tmp_path, CADENCE_STORE, tail)

    def test_repro_stats_reports_it_as_its_release_did(self, tmp_path, capsys):
        assert_stats_as_written(tmp_path, capsys, CADENCE_STORE)

    def test_a_refused_restore_leaves_it_as_it_was(self, tmp_path):
        assert_a_refused_restore_leaves_it(tmp_path, CADENCE_STORE)

    def test_resume_names_neither_retired_knob(self, tmp_path, capsys):
        """Its stored config holds ``storage_backend="memory"`` and
        ``checkpoint_every_batches=3``; ``resolve-stream --resume`` names the
        fields its flags set differently, and these two are not fields."""
        from repro.cli import main

        directory = CADENCE_STORE.load(tmp_path / "store")
        stored = SqliteStore(directory / STORE_FILENAME)
        assert {
            name: stored.get_meta("config")[name]
            for name in ("storage_backend", "checkpoint_every_batches")
        } == {"storage_backend": "memory", "checkpoint_every_batches": 3}
        stored.close()
        capsys.readouterr()
        assert main(["resolve-stream", "--dataset", "paper-example", "--threshold", "0.15",
                     "--checkpoint-dir", str(directory), "--resume"]) == 0
        note = capsys.readouterr().err
        assert "crowd=None (session: AsyncCrowd(" in note
        assert "storage_backend" not in note and "checkpoint_every" not in note


class TestAFormat3Store:
    """The last format whose log kept every event and its outcome.  The
    restore that takes such a store over deletes the events its state
    covers, and replays — verifying against its outcomes — the rest."""

    @pytest.mark.parametrize("tail", ("logged", "cut", "store-only"))
    def test_restores_and_continues_bit_identically(self, tmp_path, tail):
        assert_restores_and_continues(tmp_path, FORMAT_3_STORE, tail)

    def test_repro_stats_reports_it_as_its_release_did(self, tmp_path, capsys):
        assert_stats_as_written(tmp_path, capsys, FORMAT_3_STORE)

    def test_a_refused_restore_leaves_it_byte_identical(self, tmp_path):
        """Its schema is complete, so not even a table is added: the deletion
        of its applied rows is rolled back with the rest of the restore."""
        directory = FORMAT_3_STORE.load(tmp_path / "store")
        forge_outcome(directory)
        path = directory / STORE_FILENAME
        before = path.read_bytes()
        with pytest.raises(JournalCorruptionError, match="digest|votes"):
            StreamingResolver.restore(directory)
        assert path.read_bytes() == before

    def test_the_takeover_deletes_the_rows_its_state_covers(self, tmp_path):
        """Events 1-10 are applied and go with the restore's first commit;
        the tail intent 11 is replayed and goes with it too.  The store is
        marked a session's, so a ``save(X)`` into it is refused."""
        directory = FORMAT_3_STORE.load(tmp_path / "store")
        store = SqliteStore(directory / STORE_FILENAME)
        assert [event.seq for event in SessionJournal(store).events()] == list(range(1, 12))
        assert store.get_meta("events_applied") == 10
        store.close()
        restored = StreamingResolver.restore(directory)
        assert restored.events_applied == 11
        assert restored.durability.journal.events() == []
        assert restored.durability.store.get_meta("logged") is True
        restored.durability.close()
        session = StreamingResolver(config=make_config())
        with pytest.raises(PersistenceError, match="already holds a session"):
            session.save(directory)


class TestUpgrade:
    """``storage/upgrade.py`` is the one path from an earlier format."""

    def test_there_is_a_step_from_every_earlier_format(self):
        """... and a committed store written in each earlier format."""
        assert sorted(upgrade.STEPS) == list(range(1, upgrade.FORMAT_VERSION))
        written = {
            int(re.search(r"VALUES\('version','(\d+)'\)", path.read_text()).group(1))
            for path in FIXTURES.glob("v*_*store.sql")
        }
        assert written == set(upgrade.STEPS)

    def test_a_current_store_is_upgraded_without_a_write(self, tmp_path):
        """Upgrading a format-3 store issues no write, so ``repro stats``
        reads a live session's store while the session holds an open write
        transaction on it."""
        dataset = make_dataset()
        session = StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        session.add_truth(dataset.ground_truth)
        session.add_batch(list(dataset.store)[:30])
        session.durability.store.set_meta("probe", 1)  # opens its write transaction
        path = tmp_path / STORE_FILENAME
        store = SqliteStore(path)
        store.query("PRAGMA busy_timeout=0")  # a write fails at once, never waits
        changes = store.query("SELECT total_changes()").fetchone()
        upgrade.upgrade(store, upgrade.FORMAT_VERSION)
        assert store.query("SELECT total_changes()").fetchone() == changes
        store.close()
        report = CostReport.from_store(str(path))
        assert (report.hits_issued, report.crowd_cost_dollars) == (
            session.driver.hit_count, session.driver.cost,
        )
        session.durability.store.rollback()
        session.durability.close()


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

    ASYNC = dict(crowd=AsyncCrowd(
        vote_timeout=3,
        max_retries=2,
        fault_plan=FaultPlan(
            seed=17, delay_ticks_max=5, drop_probability=0.3,
            duplicate_probability=0.2, reorder_probability=0.4,
            reorder_window_ticks=3, churn_probability=0.1,
        ),
    ))

    def run_uninterrupted(self, records, truth, **overrides):
        resolver = StreamingResolver(config=make_config(**self.ASYNC, **overrides))
        resolver.add_truth(truth)
        for start in range(0, len(records), 10):
            resolver.add_batch(records[start : start + 10])
        resolver.flush()
        return resolver

    def test_crash_mid_delivery_restores_identically(self, tmp_path):
        dataset = make_dataset()
        records = list(dataset.store)
        twin = self.run_uninterrupted(records, dataset.ground_truth)

        config = make_config(checkpoint_dir=str(tmp_path), **self.ASYNC)
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 30, 10):
            resolver.add_batch(records[start : start + 10])
        # The crash is only interesting if votes really are in flight.
        assert resolver.driver.inflight
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

        config = make_config(checkpoint_dir=str(tmp_path), **self.ASYNC)
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

        config = make_config(checkpoint_dir=str(tmp_path), **self.ASYNC)
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
        config = make_config(checkpoint_dir=str(directory), **self.ASYNC)
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
