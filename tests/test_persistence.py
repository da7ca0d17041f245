"""Tests for durable streaming sessions (repro.streaming.persistence).

The central contract: a session that crashes after *any* prefix of journal
events and is restored produces — after replaying the remaining events —
results bit-identical to a session that never stopped: same matches, same
posteriors (to the last float bit), same ranked pairs, same crowd cost.
On top of that, the journal must be crash-tolerant (a torn final line is
dropped, mid-stream corruption is detected loudly) and snapshots must be
atomic and self-contained.
"""

import json
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import WorkflowConfig
from repro.datasets.restaurant import RestaurantGenerator
from repro.records.record import Record
from repro.streaming import (
    JournalCorruptionError,
    PersistenceError,
    SessionJournal,
    StreamingResolver,
)
from repro.streaming.persistence import (
    JOURNAL_FILENAME,
    load_latest_snapshot,
    snapshot_path,
    write_snapshot,
)


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


# --------------------------------------------------------------- snapshots
class TestSnapshots:
    def test_write_is_atomic_and_latest_wins(self, tmp_path):
        write_snapshot(tmp_path, {"version": 1, "n": 1}, events_applied=3)
        write_snapshot(tmp_path, {"version": 1, "n": 2}, events_applied=7)
        state, applied = load_latest_snapshot(tmp_path)
        assert (state["n"], applied) == (2, 7)
        # Older snapshots are compacted away.
        assert not snapshot_path(tmp_path, 3).exists()

    def test_unreadable_snapshot_is_skipped(self, tmp_path):
        write_snapshot(tmp_path, {"version": 1, "n": 1}, events_applied=3)
        write_snapshot(tmp_path, {"version": 1, "n": 2}, events_applied=7, keep_old=True)
        snapshot_path(tmp_path, 7).write_bytes(b"torn write")
        state, applied = load_latest_snapshot(tmp_path)
        assert (state["n"], applied) == (1, 3)

    def test_empty_directory_returns_none(self, tmp_path):
        assert load_latest_snapshot(tmp_path) is None
        assert load_latest_snapshot(tmp_path / "missing") is None


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

    @pytest.mark.parametrize("durability", ("snapshot", "journal"))
    def test_session_written_with_retired_knobs_restores(
        self, tmp_path, monkeypatch, durability
    ):
        """A checkpoint from before the join had one kernel still carries
        ``join_pool`` in its stored config (snapshot ``config`` / journal
        ``session`` event) and ``backend``/``pool_mode``/``inverted``/
        ``maintain_inverted`` in its join state; restore drops them."""
        from repro.streaming.incremental_join import IncrementalSimJoin

        config_payload = StreamingResolver._config_payload
        join_state = IncrementalSimJoin.state_dict
        dataset = make_dataset()
        records = list(dataset.store)
        with monkeypatch.context() as legacy:
            legacy.setattr(
                StreamingResolver, "_config_payload",
                lambda self: {**config_payload(self), "join_pool": "fork"},
            )
            legacy.setattr(
                IncrementalSimJoin, "state_dict",
                lambda self: {
                    **join_state(self),
                    "backend": "auto",
                    "pool_mode": "fork",
                    "maintain_inverted": True,
                    "inverted": {"alpha": ["r1"]},
                },
            )
            if durability == "journal":
                config = make_config(
                    checkpoint_dir=str(tmp_path), checkpoint_every_batches=0
                )
            else:
                config = make_config()
            resolver = StreamingResolver(config=config)
            resolver.add_truth(dataset.ground_truth)
            for start in range(0, len(records), 17):
                resolver.add_batch(records[start : start + 17])
            if durability == "snapshot":
                resolver.save(tmp_path)
                state, _applied = load_latest_snapshot(tmp_path)
                assert state["config"]["join_pool"] == "fork"
                assert state["join"]["pool_mode"] == "fork"
            else:
                session_event = SessionJournal(tmp_path).events()[0]
                assert session_event.payload["config"]["join_pool"] == "fork"
        restored = StreamingResolver.restore(tmp_path, resume_journal=False)
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
        state, applied = load_latest_snapshot(tmp_path)
        assert applied == resolver.events_applied  # snapshot is current
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
    # any snapshot written at or before that point) survive.
    crash_dir = tmp_path_factory.mktemp("recover")
    (crash_dir / JOURNAL_FILENAME).write_text(
        "\n".join(lines[:crash_after]) + "\n"
    )
    snapshot = load_latest_snapshot(directory)
    if snapshot is not None:
        state, applied = snapshot
        if applied <= crash_after:
            write_snapshot(crash_dir, state, applied)

    restored = StreamingResolver.restore(crash_dir, resume_journal=False)
    assert restored.events_applied <= crash_after

    # Re-drive the lost tail: replay the full journal's remaining events
    # through the internal applier (exactly what a re-submitted workload
    # would do), then compare against the uninterrupted session.
    from repro.streaming.persistence import SessionJournal as Journal

    tail_dir = tmp_path_factory.mktemp("tail")
    (tail_dir / JOURNAL_FILENAME).write_text(full_journal)
    restored._replaying = True
    try:
        for event in Journal(tail_dir).events():
            if event.seq <= restored.events_applied:
                continue
            restored._apply_journal_event(event, verify=True)
            restored._events_applied = event.seq
    finally:
        restored._replaying = False
    assert_sessions_identical(resolver, restored)
