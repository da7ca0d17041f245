"""Tests for the asynchronous fault-tolerant crowd layer.

The central contract: because faults perturb *when* votes arrive but never
*what* they say (content comes from the deterministic per-pair vote
oracle), an async session's final state is bit-identical to the
synchronous baseline for **any** seeded fault schedule with eventual
delivery — out-of-order arrival, worker abandonment, duplicate
deliveries, worker churn and publish-burst backlogs included.  On top of
that, the lifecycle machinery itself must behave: retries back off and
eventually reissue at a cost, duplicates are dropped exactly once,
backpressure bounds the in-flight window, and the whole platform state
round-trips through JSON for crash recovery.

Equivalence caveat exercised here deliberately: Dawid-Skene aggregation
with *component* scope is not fault-order independent (EM shares confusion
matrices across whatever set of pairs aggregates together, and delayed
completions regroup that set), so the fault-schedule equivalence
properties run under majority aggregation (any scope) and Dawid-Skene
with *global* scope — the same classes for which streaming == batch holds.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import fault_plans

from repro.core.config import WorkflowConfig
from repro.crowd import (
    AsyncCrowdPlatform,
    BackpressureError,
    FaultPlan,
    SimulatedCrowdPlatform,
    Worker,
    WorkerPool,
)
from repro.crowd import async_platform
from repro.crowd.latency import LatencyModel
from repro.crowd.worker import RELIABLE
from repro.datasets.restaurant import RestaurantGenerator
from repro.hit.base import HITBatch, PairBasedHIT
from repro.records.pairs import canonical_pair
from repro.streaming import StreamingResolver

HOSTILE_PLAN = dict(
    seed=13,
    delay_ticks_min=0,
    delay_ticks_max=5,
    drop_probability=0.4,
    duplicate_probability=0.3,
    duplicate_delay_ticks=2,
    reorder_probability=0.5,
    reorder_window_ticks=4,
    churn_probability=0.2,
    burst_every=2,
    burst_backlog_ticks=4,
)


def make_platform(**overrides):
    base = dict(vote_mode="per-pair", seed=5)
    base.update(overrides)
    return SimulatedCrowdPlatform(**base)


def pair_batch(pairs, pairs_per_hit=4):
    keys = sorted(canonical_pair(a, b) for a, b in pairs)
    hits = [
        PairBasedHIT(f"h{i}", tuple(keys[start : start + pairs_per_hit]))
        for i, start in enumerate(range(0, len(keys), pairs_per_hit))
    ]
    return HITBatch(
        hit_type="pair", hits=hits, candidate_pairs=set(keys), cluster_size=2
    )


def grid_pairs(count):
    return [(f"r{i:03d}", f"s{i:03d}") for i in range(count)]


def make_dataset(record_count=60, duplicate_pairs=10, seed=23):
    return RestaurantGenerator(
        record_count=record_count, duplicate_pairs=duplicate_pairs, seed=seed
    ).generate()


def make_config(**overrides):
    base = dict(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority"
    )
    base.update(overrides)
    return WorkflowConfig(**base)


def run_session(config, dataset, batch_size=20):
    records = list(dataset.store)
    resolver = StreamingResolver(config=config)
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, len(records), batch_size):
        resolver.add_batch(records[start : start + batch_size])
    resolver.flush()
    return resolver


def assert_same_final_state(sync, other):
    snap_sync, snap_other = sync.snapshot(), other.snapshot()
    assert snap_other.matches == snap_sync.matches
    assert snap_other.posteriors == snap_sync.posteriors
    assert snap_other.ranked_pairs == snap_sync.ranked_pairs
    assert snap_other.hit_count == snap_sync.hit_count
    assert snap_other.cost >= snap_sync.cost  # reissues can only add cost


# ---------------------------------------------------------------- fault plan
class TestFaultPlan:
    def test_fate_is_deterministic(self):
        plan_a = FaultPlan(**HOSTILE_PLAN)
        plan_b = FaultPlan(**HOSTILE_PLAN)
        for attempt in range(4):
            assert plan_a.fate("p0:h1", f"p0:h1/s0/a{attempt}", attempt, 0) == \
                plan_b.fate("p0:h1", f"p0:h1/s0/a{attempt}", attempt, 0)

    def test_different_seeds_diverge(self):
        fates_a = [FaultPlan(seed=1, drop_probability=0.5).fate("h", f"a{i}", 0, 0)
                   for i in range(20)]
        fates_b = [FaultPlan(seed=2, drop_probability=0.5).fate("h", f"a{i}", 0, 0)
                   for i in range(20)]
        assert fates_a != fates_b

    def test_eventual_delivery_bound(self):
        """At or beyond max_faulty_attempts every fate is a prompt delivery."""
        plan = FaultPlan(seed=3, drop_probability=1.0, duplicate_probability=1.0,
                         max_faulty_attempts=2)
        fate = plan.fate("h", "h/s0/a2", 2, 0)
        assert not fate.abandoned and not fate.duplicate
        assert fate.delay_ticks == plan.delay_ticks_min

    def test_burst_delays_every_nth_publish(self):
        plan = FaultPlan(seed=4, delay_ticks_min=0, delay_ticks_max=0,
                         burst_every=2, burst_backlog_ticks=7)
        calm = plan.fate("h", "a", 0, publish_index=0)
        burst = plan.fate("h", "a", 0, publish_index=1)
        assert burst.delay_ticks == calm.delay_ticks + 7

    def test_json_round_trip(self):
        plan = FaultPlan(**HOSTILE_PLAN)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_file_round_trip(self, tmp_path):
        import json

        plan = FaultPlan(seed=9, drop_probability=0.25)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_file(str(path)) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"seed": 1, "drop_rate": 0.5})

    @pytest.mark.parametrize("bad", [
        dict(drop_probability=1.5),
        dict(duplicate_probability=-0.1),
        dict(delay_ticks_min=3, delay_ticks_max=1),
        dict(duplicate_delay_ticks=-1),
        dict(burst_every=-1),
        dict(max_faulty_attempts=0),
    ])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValueError):
            FaultPlan(**bad)


# --------------------------------------------------------- platform lifecycle
class TestAsyncPlatform:
    def test_requires_per_pair_mode(self):
        with pytest.raises(ValueError, match="per-pair"):
            AsyncCrowdPlatform(SimulatedCrowdPlatform(seed=1))

    @pytest.mark.parametrize("bad", [
        dict(vote_timeout=0),
        dict(max_inflight_hits=-1),
        dict(backpressure_policy="drop"),
        dict(max_retries=-1),
    ])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValueError):
            AsyncCrowdPlatform(make_platform(), **bad)

    def test_publish_returns_a_receipt_not_votes(self):
        crowd = AsyncCrowdPlatform(make_platform())
        receipt = crowd.publish(pair_batch(grid_pairs(6)), true_matches=set())
        assert receipt.hit_count == 2
        assert receipt.votes == []
        assert receipt.assignment_seconds == []
        assert receipt.cost == pytest.approx(2 * 3 * 0.025)
        assert crowd.open_hit_count == 2

    def test_no_fault_settle_equals_sync_votes(self):
        pairs = grid_pairs(10)
        truth = set(pairs[:3])
        sync = make_platform().publish(
            pair_batch(pairs), true_matches=truth
        )
        crowd = AsyncCrowdPlatform(make_platform())
        crowd.publish(pair_batch(pairs), true_matches=truth)
        async_votes = [
            vote for delivery in crowd.settle() for vote in delivery.votes
        ]
        assert sorted(async_votes) == sorted(sync.votes)

    def test_hostile_plan_settle_equals_sync_votes(self):
        pairs = grid_pairs(16)
        truth = set(pairs[::3])
        sync = make_platform().publish(pair_batch(pairs), true_matches=truth)
        crowd = AsyncCrowdPlatform(
            make_platform(), vote_timeout=3, max_retries=2,
            fault_plan=FaultPlan(**HOSTILE_PLAN),
        )
        crowd.publish(pair_batch(pairs), true_matches=truth)
        async_votes = [
            vote for delivery in crowd.settle() for vote in delivery.votes
        ]
        assert sorted(async_votes) == sorted(sync.votes)
        assert crowd.timeouts > 0 and crowd.retries > 0

    def test_duplicates_are_dropped_exactly_once(self):
        plan = FaultPlan(seed=6, duplicate_probability=1.0,
                         delay_ticks_min=0, delay_ticks_max=0)
        crowd = AsyncCrowdPlatform(make_platform(), fault_plan=plan)
        crowd.publish(pair_batch(grid_pairs(8)), true_matches=set())
        deliveries = crowd.settle()
        assert crowd.duplicates_dropped > 0
        # One delivery per (hit, slot) despite every attempt duplicating.
        slots = [(d.hit_id, d.slot) for d in deliveries]
        assert len(slots) == len(set(slots))

    def test_exhausted_retries_become_paid_reissues(self, monkeypatch):
        monkeypatch.setattr(async_platform, "BACKOFF_TICKS", 0)
        plan = FaultPlan(seed=7, drop_probability=0.9, max_faulty_attempts=6)
        crowd = AsyncCrowdPlatform(
            make_platform(), vote_timeout=1, max_retries=1, fault_plan=plan,
        )
        crowd.publish(pair_batch(grid_pairs(12)), true_matches=set())
        crowd.settle()
        assert crowd.reissued > 0
        extra = crowd.take_extra_cost()
        assert extra == pytest.approx(
            crowd.reissued * crowd.inner.pricing.cost_per_assignment
        )
        assert crowd.take_extra_cost() == 0.0  # collection resets

    def test_shed_policy_raises_when_window_full(self):
        crowd = AsyncCrowdPlatform(
            make_platform(), max_inflight_hits=2, backpressure_policy="shed"
        )
        crowd.publish(pair_batch(grid_pairs(8)), true_matches=set())
        with pytest.raises(BackpressureError):
            crowd.publish(pair_batch(grid_pairs(8)), true_matches=set())
        # force bypasses the window (flush-time backlog settlement).
        crowd.publish(pair_batch(grid_pairs(8)), true_matches=set(), force=True)

    def test_block_policy_drains_the_window(self):
        crowd = AsyncCrowdPlatform(
            make_platform(), max_inflight_hits=2, backpressure_policy="block"
        )
        crowd.publish(pair_batch(grid_pairs(8)), true_matches=set())
        crowd.publish(pair_batch(grid_pairs(8)), true_matches=set())
        assert crowd.open_hit_count <= 2
        assert crowd.ready_count > 0  # blocking advanced the clock

    def test_state_round_trips_mid_flight(self):
        plan = FaultPlan(**HOSTILE_PLAN)
        crowd = AsyncCrowdPlatform(make_platform(), vote_timeout=3,
                                   fault_plan=plan)
        crowd.publish(pair_batch(grid_pairs(12)), true_matches=set())
        crowd.poll(2)  # some delivered, some pending, some retried
        twin = AsyncCrowdPlatform(make_platform(), vote_timeout=3,
                                  fault_plan=plan)
        twin.load_state_dict(crowd.state_dict())
        left = [v for d in crowd.settle() for v in d.votes]
        right = [v for d in twin.settle() for v in d.votes]
        assert sorted(left) == sorted(right)
        assert crowd.retries == twin.retries
        assert crowd.duplicates_dropped == twin.duplicates_dropped

    def test_state_stored_with_vote_rounds_loads(self):
        """An earlier release stored a vote round (always 0) per open-HIT
        pair and per buffered delivery; loading ignores them."""
        plan = FaultPlan(**HOSTILE_PLAN)
        crowd = AsyncCrowdPlatform(make_platform(), vote_timeout=3, fault_plan=plan)
        crowd.publish(pair_batch(grid_pairs(12)), true_matches=set())
        crowd.advance(2)  # deliveries buffered in the ready queue, HITs open
        state = json.loads(json.dumps(crowd.state_dict()))
        assert state["hits"] and state["ready"]
        for _, hit in state["hits"]:
            hit["rounds"] = [[a, b, 0] for a, b in hit["pairs"]]
        for delivery in state["ready"]:
            delivery["pair_rounds"] = [[a, b, 0] for _, (a, b), _ in delivery["votes"]]
        twin = AsyncCrowdPlatform(make_platform(), vote_timeout=3, fault_plan=plan)
        twin.load_state_dict(state)
        assert json.loads(json.dumps(twin.state_dict())) == json.loads(
            json.dumps(crowd.state_dict()))
        left = [v for d in crowd.settle() for v in d.votes]
        right = [v for d in twin.settle() for v in d.votes]
        assert left == right


# ------------------------------------------------- eligibility cache (bugfix)
class TestWorkerEligibilityCache:
    def test_eligible_list_is_cached_between_publishes(self):
        platform = make_platform()
        assert platform._eligible is platform._eligible  # same object, no rescan

    def test_pool_churn_invalidates_the_cache(self):
        """Regression: eligibility was recomputed per publish; now it is
        cached per (pool version) and must refresh when the pool churns."""
        platform = make_platform()
        before = platform._eligible
        platform.pool.add_worker(Worker("late-joiner", RELIABLE, seed=99))
        after = platform._eligible
        assert after is not before
        assert len(after) == len(before) + 1
        removed = platform.pool.remove_worker("late-joiner")
        assert removed.worker_id == "late-joiner"
        assert len(platform._eligible) == len(before)

    def test_remove_refuses_the_last_worker(self):
        pool = WorkerPool([Worker("only", RELIABLE, seed=1)])
        with pytest.raises(ValueError):
            pool.remove_worker("only")

    def test_remove_unknown_worker_raises(self):
        pool = WorkerPool.build(size=4, seed=2)
        with pytest.raises(KeyError):
            pool.remove_worker("nobody")

    def test_effective_workers_is_memoized(self):
        model = LatencyModel()
        first = model.effective_workers("pair", pairs_per_hit=8)
        assert model._effective_workers_cache  # populated
        assert model.effective_workers("pair", pairs_per_hit=8) == first

    def test_memo_key_includes_the_pool_size(self):
        model = LatencyModel()
        base = model.effective_workers("pair", pairs_per_hit=8)
        model.pool_size = model.pool_size * 2
        assert model.effective_workers("pair", pairs_per_hit=8) != base


# -------------------------------------------------------- session equivalence
class TestSessionEquivalence:
    @pytest.mark.parametrize("scope", ("component", "global"))
    @pytest.mark.parametrize("aggregation", ("majority", "dawid-skene"))
    def test_no_fault_async_equals_sync(self, aggregation, scope):
        """Fault-free, every vote lands in the event that published it, so an
        async session holds the sync session's digest after *every* event —
        the fact that lets one crowd driver serve both modes."""
        dataset = make_dataset()
        records = list(dataset.store)
        kwargs = dict(aggregation=aggregation, streaming_aggregation_scope=scope)
        for batch_size in (7, 20, 45):
            sync = StreamingResolver(config=make_config(**kwargs))
            async_session = StreamingResolver(config=make_config(crowd_mode="async", **kwargs))
            events = [("add_truth", dataset.ground_truth)]
            events += [("add_batch", records[start : start + batch_size])
                       for start in range(0, len(records), batch_size)]
            events.insert(3, ("retract", records[2].record_id))
            events.append(("flush",))
            for name, *arguments in events:
                for session in (sync, async_session):
                    getattr(session, name)(*arguments)
                assert async_session.state_digest() == sync.state_digest(), (batch_size, name)
            assert_same_final_state(sync, async_session)
            assert async_session.snapshot().cost == sync.snapshot().cost

    @pytest.mark.parametrize("faults", (
        {}, dict(vote_timeout=3, crowd_max_retries=2, fault_plan=HOSTILE_PLAN),
    ))
    def test_async_asks_the_oracle_once_per_pair(self, monkeypatch, faults):
        """Fails at the parent commit, which asked once per delivered *slot*
        (three times per pair).  A HIT's carried pairs are evaluated once,
        whatever the delivery schedule does to its slots."""
        asked = []
        pair_votes = SimulatedCrowdPlatform.pair_votes

        def counted(platform, pair_key, is_match):
            asked.append(pair_key)
            return pair_votes(platform, pair_key, is_match)

        dataset = make_dataset()
        sync = run_session(make_config(), dataset)
        monkeypatch.setattr(SimulatedCrowdPlatform, "pair_votes", counted)
        async_session = run_session(make_config(crowd_mode="async", **faults), dataset)
        voted = async_session.storage.ledger.votes
        assert len(asked) == len(set(asked)) == len(voted) > 0
        assert_same_final_state(sync, async_session)

    @pytest.mark.parametrize("aggregation,scope", [
        ("majority", "component"),
        ("majority", "global"),
        ("dawid-skene", "global"),
    ])
    def test_hostile_plan_async_equals_sync(self, aggregation, scope):
        dataset = make_dataset()
        kwargs = dict(aggregation=aggregation, streaming_aggregation_scope=scope)
        sync = run_session(make_config(**kwargs), dataset)
        async_session = run_session(
            make_config(crowd_mode="async", vote_timeout=3, crowd_max_retries=2,
                        fault_plan=HOSTILE_PLAN, **kwargs),
            dataset,
        )
        assert_same_final_state(sync, async_session)
        assert not async_session.driver.inflight
        assert not async_session.driver.starved

    def test_shed_backpressure_still_converges(self):
        """Shedding re-packs deferred pairs into later HIT batches, so the
        operational metrics (HIT count, base cost) may differ from sync —
        but the votes per pair, and hence matches and posteriors, must not."""
        dataset = make_dataset()
        sync = run_session(make_config(), dataset)
        shed = run_session(
            make_config(crowd_mode="async", max_inflight_hits=2,
                        backpressure_policy="shed", fault_plan=HOSTILE_PLAN,
                        vote_timeout=3),
            dataset,
        )
        snap_sync, snap_shed = sync.snapshot(), shed.snapshot()
        assert snap_shed.matches == snap_sync.matches
        assert snap_shed.posteriors == snap_sync.posteriors
        assert snap_shed.ranked_pairs == snap_sync.ranked_pairs

    def test_block_backpressure_still_converges(self):
        dataset = make_dataset()
        sync = run_session(make_config(), dataset)
        block = run_session(
            make_config(crowd_mode="async", max_inflight_hits=2,
                        backpressure_policy="block", fault_plan=HOSTILE_PLAN,
                        vote_timeout=3),
            dataset,
        )
        assert_same_final_state(sync, block)

    def test_async_config_requires_per_pair_votes(self):
        with pytest.raises(ValueError):
            WorkflowConfig(crowd_mode="async", vote_mode="sequential")

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=fault_plans(), batch_size=st.sampled_from((7, 20, 45)))
    def test_property_async_equals_sync_for_any_fault_schedule(
        self, plan, batch_size
    ):
        """The tentpole property: any seeded fault schedule with eventual
        delivery settles to the synchronous baseline, bit-identically."""
        dataset = make_dataset(record_count=40, duplicate_pairs=8, seed=29)
        sync = run_session(make_config(), dataset, batch_size=batch_size)
        async_session = run_session(
            make_config(crowd_mode="async", vote_timeout=3, crowd_max_retries=2,
                        fault_plan=plan.to_dict()),
            dataset,
            batch_size=batch_size,
        )
        assert_same_final_state(sync, async_session)
