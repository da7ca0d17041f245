"""The crowd driver's stored form: frozen against the parent commit, and a round trip.

``tests/fixtures/crowd_state_meta.json`` holds the ``session`` and ``async``
store-meta values — the raw JSON text — that the commit *before*
``CrowdDriver`` existed wrote for :func:`run_prefix`'s schedule, plus the
state digests at the stop and at the end of the schedule.  The driver must
write those bytes, and a store holding them must restore and finish on the
uninterrupted digest.  Nothing here may regenerate the fixture from the code
under test: a new value means the stored format moved.  The format moved
twice, each time by hand-editing the fixture and keeping a test that the
earlier bytes still restore: ``last_delta`` lost its bounded-staleness
counter, and the ``async`` value lost its vote rounds (``rounds`` per open
HIT, ``inflight_rounds``).
"""

import json
import sqlite3
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from strategies import fault_plans

from repro.core.config import WorkflowConfig
from repro.datasets.restaurant import RestaurantGenerator
from repro.storage import STORE_FILENAME
from repro.streaming import StreamingResolver
from repro.streaming.crowd_driver import CrowdDriver

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "crowd_state_meta.json").read_text())

# A copy of test_async_crowd's plan on purpose: it is frozen with the fixture.
HOSTILE_PLAN = dict(
    seed=13, delay_ticks_min=0, delay_ticks_max=5, drop_probability=0.4,
    duplicate_probability=0.3, duplicate_delay_ticks=2, reorder_probability=0.5,
    reorder_window_ticks=4, churn_probability=0.2, burst_every=2, burst_backlog_ticks=4,
)
MODES = {
    "sync": {},
    # A window of 5 HITs under "shed" leaves the stop with pairs in flight,
    # one partially delivered, and a starved backlog.
    "async": dict(crowd_mode="async", vote_timeout=3, crowd_max_retries=2, max_inflight_hits=5,
                  backpressure_policy="shed", fault_plan=HOSTILE_PLAN),
}


def run_prefix(mode, backend, directory):
    """The fixture's schedule up to its stop; returns (session, records left)."""
    dataset = RestaurantGenerator(record_count=60, duplicate_pairs=15, seed=29).generate()
    records = list(dataset.store)
    resolver = StreamingResolver(config=WorkflowConfig(
        likelihood_threshold=0.2, hit_type="pair", pairs_per_hit=2, vote_mode="per-pair",
        aggregation="majority", storage_backend=backend, checkpoint_dir=str(directory),
        **MODES[mode],
    ))
    resolver.add_truth(dataset.ground_truth)
    resolver.add_batch(records[:15])
    resolver.add_batch(records[15:30])
    resolver.retract(records[3].record_id)
    resolver.add_batch(records[30:45])
    resolver.save()
    return resolver, records[45:]


def stored_meta(directory):
    """The raw text of the two crowd-state meta values of a session's store."""
    connection = sqlite3.connect(str(Path(directory) / STORE_FILENAME))
    try:
        return {
            key: connection.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()[0]
            for key in ("session", "async")
        }
    finally:
        connection.close()


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_stored_crowd_state_is_the_parent_commits(tmp_path, mode, backend):
    expected = FIXTURE[mode]
    resolver, rest = run_prefix(mode, backend, tmp_path)
    if mode == "async":  # stopped mid-flight, or the fixture pins nothing
        assert resolver.driver.inflight and resolver.driver.starved
    assert resolver.state_digest() == expected["stopped_digest"]
    resolver.durability.close()
    written = stored_meta(tmp_path)
    for key in ("session", "async"):
        assert json.loads(written[key]) == json.loads(expected[key])
        assert written[key] == expected[key]  # byte for byte, key order included

    restores_and_finishes(tmp_path, rest, expected)


def restores_and_finishes(directory, rest, expected):
    restored = StreamingResolver.restore(str(directory))
    assert restored.state_digest() == expected["stopped_digest"]
    restored.add_batch(rest)
    restored.flush()
    assert restored.state_digest() == expected["final_digest"]
    assert not restored.driver.inflight and not restored.driver.starved
    restored.durability.close()


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_stored_crowd_state_with_the_parent_commits_delta_key_restores(tmp_path, mode, backend):
    """A store written before bounded staleness was retired holds its counter
    in ``last_delta``; restore drops it and lands on the same digests."""
    expected = FIXTURE[mode]
    resolver, rest = run_prefix(mode, backend, tmp_path)
    resolver.durability.close()
    parent_text = expected["session"].replace(
        '"retracted_records"', '"stale_skipped_components": 0, "retracted_records"'
    )
    assert parent_text != expected["session"]
    connection = sqlite3.connect(str(Path(tmp_path) / STORE_FILENAME))
    with connection:
        connection.execute("UPDATE meta SET value = ? WHERE key = 'session'", (parent_text,))
    connection.close()
    assert stored_meta(tmp_path)["session"] == parent_text
    restores_and_finishes(tmp_path, rest, expected)


def with_vote_rounds(async_text):
    """The ``async`` meta text the parent of the vote-round removal wrote for
    the same state: every open HIT's ``rounds`` after its ``pairs``, and
    ``inflight_rounds`` after ``slot_votes`` — every round 0."""
    state = json.loads(async_text)
    for _, hit in state["platform"]["hits"]:
        entries = list(hit.items())
        entries.insert(list(hit).index("pairs") + 1,
                       ("rounds", [[a, b, 0] for a, b in sorted(map(tuple, hit["pairs"]))]))
        hit.clear()
        hit.update(entries)
    entries = list(state.items())
    entries.insert(list(state).index("slot_votes") + 1,
                   ("inflight_rounds", [[a, b, 0] for a, b, _ in state["slot_votes"]]))
    return json.dumps(dict(entries))


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_stored_crowd_state_with_the_parent_commits_vote_rounds_restores(
    tmp_path, mode, backend
):
    """A store written before the vote-round plumbing was deleted holds a
    round per open HIT pair and per in-flight pair (all 0); restore ignores
    them and lands on the same digests."""
    expected = FIXTURE[mode]
    resolver, rest = run_prefix(mode, backend, tmp_path)
    resolver.durability.close()
    if mode == "async":
        parent_text = with_vote_rounds(expected["async"])
        assert '"rounds": [["' in parent_text and '"inflight_rounds": [["' in parent_text
        connection = sqlite3.connect(str(Path(tmp_path) / STORE_FILENAME))
        with connection:
            connection.execute("UPDATE meta SET value = ? WHERE key = 'async'", (parent_text,))
        connection.close()
        assert stored_meta(tmp_path)["async"] == parent_text
    else:
        assert expected["async"] == "null"  # a synchronous crowd stores no flight
    restores_and_finishes(tmp_path, rest, expected)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    plan=fault_plans(),
    batch_size=st.sampled_from((7, 20)),
    stop_after=st.integers(min_value=1, max_value=2),
    window=st.sampled_from((1, 3)),
    policy=st.sampled_from(("block", "shed")),
)
def test_a_driver_stopped_mid_flight_round_trips_and_settles(
    plan, batch_size, stop_after, window, policy
):
    """``load_state_dict(state_dict())`` — through JSON, as a store holds it —
    into a brand-new driver changes nothing: swapped in mid-session, it
    settles to the digest of the session that was never interrupted."""
    dataset = RestaurantGenerator(record_count=40, duplicate_pairs=8, seed=29).generate()
    records = list(dataset.store)
    batches = [records[start:start + batch_size] for start in range(0, len(records), batch_size)]
    config = WorkflowConfig(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority",
        crowd_mode="async", vote_timeout=3, crowd_max_retries=2, max_inflight_hits=window,
        backpressure_policy=policy, fault_plan=plan.to_dict(),
    )

    def session(swap_after=None):
        resolver = StreamingResolver(config=config)
        resolver.add_truth(dataset.ground_truth)
        for index, batch in enumerate(batches):
            if index == swap_after:
                assume(resolver.driver.inflight or resolver.driver.starved)
                stored = json.loads(json.dumps(resolver.driver.state_dict()))
                fresh = CrowdDriver(config)
                fresh.load_state_dict(stored)
                assert json.loads(json.dumps(fresh.state_dict())) == stored
                resolver.driver = fresh
            resolver.add_batch(batch)
        resolver.flush()
        return resolver

    swapped = session(swap_after=stop_after)
    assert swapped.state_digest() == session().state_digest()
    assert not swapped.driver.inflight and not swapped.driver.starved
