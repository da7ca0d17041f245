"""Tests for durable streaming sessions (repro.streaming.persistence).

The central contract: a session that crashes after *any* prefix of journal
events and is restored produces — after replaying the remaining events —
results bit-identical to a session that never stopped: same matches, same
posteriors (to the last float bit), same ranked pairs, same crowd cost.
On top of that, the journal must be crash-tolerant (a torn final line is
dropped, mid-stream corruption is detected loudly), the store a session is
materialised into must be rewritten atomically, and both storage backends
must leave — and restore from — the same file.
"""

import ast
import dataclasses
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.config import (
    OPERATIONAL_CONFIG_FIELDS,
    RESULT_CONFIG_FIELDS,
    WorkflowConfig,
)
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
from repro.streaming.persistence import JOURNAL_FILENAME


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
    """The journal position the directory's store reflects (None: no store)."""
    path = directory / STORE_FILENAME
    if not path.exists():
        return None
    store = SqliteStore(path)
    try:
        return store.get_meta("events_applied")
    finally:
        store.close()


def stream(resolver, dataset, size=17):
    resolver.add_truth(dataset.ground_truth)
    records = list(dataset.store)
    for start in range(0, len(records), size):
        resolver.add_batch(records[start : start + size])
    return resolver


# ----------------------------------------------------------------- journal
class TestSessionJournal:
    def test_append_and_read_back(self, tmp_path):
        journal = SessionJournal(tmp_path)
        assert journal.append("batch", {"records": [1, 2]}) == 1
        assert journal.append("flush", {}) == 2
        events = SessionJournal(tmp_path).events()
        assert [(e.seq, e.type) for e in events] == [(1, "batch"), (2, "flush")]
        assert events[0].payload == {"records": [1, 2]}

    def test_truncated_tail_line_is_dropped(self, tmp_path):
        journal = SessionJournal(tmp_path)
        journal.append("batch", {"n": 1})
        journal.append("batch", {"n": 2})
        raw = (tmp_path / JOURNAL_FILENAME).read_text()
        (tmp_path / JOURNAL_FILENAME).write_text(raw[:-20])  # tear the last line
        events = SessionJournal(tmp_path).events()
        assert [e.payload for e in events] == [{"n": 1}]

    def test_append_after_torn_tail_does_not_merge(self, tmp_path):
        """Re-opening a journal repairs a crash-torn tail line, so the next
        append lands on a clean line instead of merging into garbage."""
        journal = SessionJournal(tmp_path)
        journal.append("batch", {"n": 1})
        path = tmp_path / JOURNAL_FILENAME
        path.write_text(path.read_text() + '{"seq":2,"type":"fl')  # torn write
        reopened = SessionJournal(tmp_path)
        assert reopened.event_count == 1
        assert reopened.append("flush", {}) == 2
        events = SessionJournal(tmp_path).events()
        assert [(e.seq, e.type) for e in events] == [(1, "batch"), (2, "flush")]

    def test_append_after_lost_trailing_newline(self, tmp_path):
        """A valid final line whose newline was lost in a crash gets one
        back, so the next append does not corrupt the last event."""
        journal = SessionJournal(tmp_path)
        journal.append("batch", {"n": 1})
        path = tmp_path / JOURNAL_FILENAME
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        reopened = SessionJournal(tmp_path)
        assert reopened.append("flush", {}) == 2
        events = SessionJournal(tmp_path).events()
        assert [(e.seq, e.type) for e in events] == [(1, "batch"), (2, "flush")]

    def test_midstream_corruption_raises(self, tmp_path):
        journal = SessionJournal(tmp_path)
        for n in range(3):
            journal.append("batch", {"n": n})
        lines = (tmp_path / JOURNAL_FILENAME).read_text().splitlines()
        entry = json.loads(lines[1])
        entry["payload"]["n"] = 99  # tampering invalidates the CRC
        lines[1] = json.dumps(entry)
        (tmp_path / JOURNAL_FILENAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError):
            SessionJournal(tmp_path).events()

    def test_sequence_gap_raises(self, tmp_path):
        journal = SessionJournal(tmp_path)
        journal.append("batch", {"n": 1})
        other = SessionJournal(tmp_path, start_seq=5)
        other.append("batch", {"n": 5})
        with pytest.raises(JournalCorruptionError):
            SessionJournal(tmp_path).events()


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
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
        assert_sessions_identical(resolver, restored)
        assert sorted(restored.store.record_ids) == sorted(resolver.store.record_ids)

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
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
        assert_sessions_identical(resolver, restored)
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
        restored = StreamingResolver.restore(foreign, resume_journal=False)
        assert_sessions_identical(resolver, restored)
        assert resolver.save() == home / STORE_FILENAME  # its own place, as ever
        restored.storage.close()
        resolver.storage.close()

    def test_backends_leave_stores_that_page_in_identically(self, tmp_path):
        """The same schedule through a memory- and a sqlite-backed session
        leaves two stores with the same contents, and each session restores
        from the other's directory after a backend override."""
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
        sessions["sqlite"].storage.close()
        for written, other in (("memory", "sqlite"), ("sqlite", "memory")):
            stored = StreamingResolver.restore(
                tmp_path / written, resume_journal=False
            ).config
            crossed = StreamingResolver.restore(
                tmp_path / written,
                config=dataclasses.replace(stored, storage_backend=other),
                resume_journal=False,
            )
            assert crossed.storage.backend_name == other
            assert_sessions_identical(sessions["memory"], crossed)
            assert crossed.snapshot().posteriors == sessions["memory"].snapshot().posteriors
            crossed.storage.close()

    def test_legacy_snapshot_only_directory_is_refused_unread(self, tmp_path):
        """A directory holding only ``snapshot-*.pkl`` raises naming the
        file; its bytes are never interpreted."""
        legacy = tmp_path / "snapshot-000000000007.pkl"
        # Anything that tried to load this would fail differently (or worse).
        legacy.write_bytes(b"cos\nsystem\n(S'false'\ntR.")
        with pytest.raises(PersistenceError, match="snapshot-000000000007.pkl"):
            StreamingResolver.restore(tmp_path)
        assert legacy.read_bytes() == b"cos\nsystem\n(S'false'\ntR."


class TestBackendFlip:
    @pytest.mark.parametrize("flip", (("memory", "sqlite"), ("sqlite", "memory")))
    def test_restore_under_the_other_backend_stays_in_lockstep(self, tmp_path, flip):
        """``config=`` flipping the backend continues on the same file, in
        lockstep with a session that never stopped."""
        before, after = flip
        dataset = make_dataset(record_count=80, duplicate_pairs=12)
        records = list(dataset.store)
        uninterrupted = StreamingResolver(config=make_config())
        config = make_config(
            storage_backend=before,
            checkpoint_dir=str(tmp_path),
            checkpoint_every_batches=2,
        )
        resolver = StreamingResolver(config=config)
        for session in (uninterrupted, resolver):
            session.add_truth(dataset.ground_truth)
            for start in range(0, 39, 13):
                session.add_batch(records[start : start + 13])
        resolver.storage.close()
        flipped = StreamingResolver.restore(
            tmp_path, config=dataclasses.replace(config, storage_backend=after)
        )
        assert flipped.storage.backend_name == after
        assert not (tmp_path / "archive" / "rejoin-000000000000").exists()
        tail = records[39:]
        for session in (uninterrupted, flipped):
            session.add_batch(tail[:20])
            session.retract(records[3].record_id)
            session.update(records[5].with_attributes(name="revised beyond recognition"))
            session.add_batch(tail[20:])
            session.flush()
        assert_sessions_identical(uninterrupted, flipped)
        # ... and back again, from whatever the flipped session left behind.
        flipped.save()
        flipped.storage.close()
        back = StreamingResolver.restore(tmp_path, config=config, resume_journal=False)
        assert back.storage.backend_name == before
        assert_sessions_identical(uninterrupted, back)
        back.storage.close()


class TestStructure:
    def test_result_and_operational_fields_partition_the_config(self):
        names = [spec.name for spec in dataclasses.fields(WorkflowConfig)]
        assert len(names) == 33
        assert len(OPERATIONAL_CONFIG_FIELDS) == 11
        assert set(OPERATIONAL_CONFIG_FIELDS) | set(RESULT_CONFIG_FIELDS) == set(names)
        assert not set(OPERATIONAL_CONFIG_FIELDS) & set(RESULT_CONFIG_FIELDS)
        # The hand-maintained tuple this definition replaced, name for name.
        assert sorted(RESULT_CONFIG_FIELDS) == sorted((
            "likelihood_threshold", "similarity_attributes", "hit_type",
            "cluster_size", "pairs_per_hit", "cluster_generator", "packing_method",
            "assignments_per_hit", "use_qualification_test", "aggregation",
            "decision_threshold", "recrowd_policy", "streaming_aggregation_scope",
            "staleness_epsilon", "crowd_mode", "vote_timeout", "max_inflight_hits",
            "backpressure_policy", "crowd_max_retries", "crowd_backoff_ticks",
            "fault_plan", "seed",
        ))

    def test_an_unclassified_field_would_force_a_rejoin(self):
        """Result-bearing is the complement, so forgetting to classify a new
        knob errs towards re-joining, never towards a silent resume."""
        stored = persistence.config_payload(make_config())
        assert not persistence.result_config_changed(make_config(), stored)
        assert not persistence.result_config_changed(
            make_config(join_workers=3, checkpoint_every_batches=99), stored
        )
        assert persistence.result_config_changed(make_config(cluster_size=4), stored)

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

    def test_only_the_async_platform_keeps_a_state_dict(self):
        owners = set()
        for path in Path(next(iter(repro.__path__))).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and item.name in (
                            "state_dict", "load_state_dict", "from_state_dict"
                        ):
                            owners.add(node.name)
        assert owners == {"AsyncCrowdPlatform"}


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
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
        assert_sessions_identical(resolver, restored)

    def test_restored_session_continues_identically(self, tmp_path):
        dataset = make_dataset(record_count=80, duplicate_pairs=12)
        records = list(dataset.store)
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=3)
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, 40, 13):
            resolver.add_batch(records[start:][: min(13, 40 - start)])
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
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
                stored = SessionJournal(tmp_path).events()[0].payload["config"]
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
        """A checkpoint from before the join had one kernel still carries
        ``join_pool`` in its stored config (store ``config`` meta / journal
        ``session`` event); restore drops it."""
        resolver, stored = self._written_by_an_earlier_release(
            tmp_path, monkeypatch, durability, {"join_pool": "fork"}
        )
        assert stored["join_pool"] == "fork"
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
        assert_sessions_identical(resolver, restored)

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
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
        assert restored.config.join_backend == "auto"
        assert_sessions_identical(resolver, restored)

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

    @pytest.mark.parametrize("artifact", (STORE_FILENAME, JOURNAL_FILENAME))
    def test_occupancy_is_an_existence_check(self, tmp_path, artifact):
        """A store or a journal in the directory means occupied; the
        constructor does not open, parse or load either to find out."""
        (tmp_path / artifact).write_bytes(b"\x00 not a store, not a journal \x00")
        with pytest.raises(PersistenceError, match="already holds a session"):
            StreamingResolver(config=make_config(checkpoint_dir=str(tmp_path)))
        assert (tmp_path / artifact).read_bytes().startswith(b"\x00 not a store")

    def test_replay_verification_catches_tampering(self, tmp_path):
        config = make_config(checkpoint_dir=str(tmp_path), checkpoint_every_batches=0)
        resolver = StreamingResolver(config=config)
        resolver.add_truth([("r1", "r2")])
        resolver.add_batch(
            [Record("r1", {"t": "alpha beta"}), Record("r2", {"t": "alpha beta"})]
        )
        # Rewrite the truth event so replay diverges from the commit digest.
        journal_file = tmp_path / JOURNAL_FILENAME
        lines = journal_file.read_text().splitlines()
        doctored = []
        for line in lines:
            entry = json.loads(line)
            if entry["type"] == "truth":
                entry["payload"]["pairs"] = []
                entry["crc"] = None  # also breaks the CRC
            doctored.append(json.dumps(entry))
        journal_file.write_text("\n".join(doctored) + "\n")
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
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
        assert restored.events_applied == resolver.events_applied
        assert_sessions_identical(resolver, restored)


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
    """Crash after any journal prefix -> restore -> replay tail == no crash.

    One uninterrupted durable session runs a random schedule of batches,
    retractions, updates and flushes.  Its journal is then truncated at a
    random crash point (as a crash would), the session is restored from the
    surviving prefix, and the same schedule is re-driven from where the
    journal left off by replaying the *full* journal against the restored
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

    journal_file = directory / JOURNAL_FILENAME
    full_journal = journal_file.read_text()
    lines = full_journal.splitlines()
    crash_after = data.draw(
        st.integers(min_value=1, max_value=len(lines)), label="crash_after"
    )

    # Simulate the crash: only the first `crash_after` journal lines (and
    # a store materialised at or before that point) survive.
    crash_dir = tmp_path_factory.mktemp("recover")
    (crash_dir / JOURNAL_FILENAME).write_text(
        "\n".join(lines[:crash_after]) + "\n"
    )
    applied = stored_events_applied(directory)
    if applied is not None and applied <= crash_after:
        shutil.copy(directory / STORE_FILENAME, crash_dir / STORE_FILENAME)

    restored = StreamingResolver.restore(crash_dir, resume_journal=False)
    assert restored.events_applied <= crash_after

    # Re-drive the lost tail: replay the full journal's remaining events
    # through the public replay entry point (exactly what a re-submitted
    # workload would do), then compare against the uninterrupted session.
    tail_dir = tmp_path_factory.mktemp("tail")
    (tail_dir / JOURNAL_FILENAME).write_text(full_journal)
    persistence.replay(restored, SessionJournal(tail_dir).events(), verify=True)
    assert_sessions_identical(resolver, restored)
