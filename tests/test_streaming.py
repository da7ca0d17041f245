"""Tests for the streaming incremental entity-resolution subsystem.

The central contract: a :class:`StreamingResolver` fed the records of a
dataset in *any* arrival order, in *any* batch sizes, ends in exactly the
state a one-shot ``HybridWorkflow.resolve`` (with per-pair votes) produces —
same candidate pairs and likelihoods, same votes per pair, same posteriors,
same match set, same HIT pair coverage.  On top of that, the incremental
machinery must actually be incremental: clean components keep their cached
posteriors and votes across unrelated batches.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from strategies import arrival_batch_sizes, order_seeds

from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.datasets.restaurant import RestaurantGenerator
from repro.hit.base import HITBatch, PairBasedHIT
from repro.records.record import Record, RecordError
from repro.simjoin.likelihood import SimJoinLikelihood
from repro.streaming.incremental_join import IncrementalSimJoin
from repro.streaming.session import StreamingResolver, resolve_stream


def make_dataset(record_count=90, duplicate_pairs=15, seed=11):
    return RestaurantGenerator(
        record_count=record_count, duplicate_pairs=duplicate_pairs, seed=seed
    ).generate()


def shuffled_ids(dataset, seed):
    ids = dataset.store.record_ids
    random.Random(seed).shuffle(ids)
    return ids


# --------------------------------------------------------------- join layer
class TestIncrementalSimJoin:
    @pytest.mark.parametrize("backend", ("naive", "auto"))
    @pytest.mark.parametrize("threshold", (0.0, 0.3, 0.6))
    def test_delta_union_equals_full_join(self, backend, threshold):
        dataset = make_dataset(seed=5)
        records = list(dataset.store)
        join = IncrementalSimJoin(threshold=threshold)
        accumulated = {}
        for start in range(0, len(records), 13):
            delta = join.add_batch(records[start : start + 13])
            for pair in delta:
                assert pair.key not in accumulated  # each pair reported once
                accumulated[pair.key] = pair.likelihood
        full = SimJoinLikelihood(backend=backend).estimate(
            dataset.store, min_likelihood=threshold
        )
        assert set(accumulated) == set(full.keys())
        for pair in full:
            assert accumulated[pair.key] == pair.likelihood  # bit-identical

    def test_cross_source_restriction(self):
        records = [
            Record("a1", {"t": "ipad mini white"}, source="abt"),
            Record("b1", {"t": "ipad mini white"}, source="buy"),
            Record("a2", {"t": "ipad mini white"}, source="abt"),
        ]
        join = IncrementalSimJoin(threshold=0.5, cross_sources=("abt", "buy"))
        first = join.add_batch(records[:1])
        assert len(first) == 0
        second = join.add_batch(records[1:])
        # a1-b1 and a2-b1 cross sources; a1-a2 does not.
        assert sorted(pair.key for pair in second) == [("a1", "b1"), ("a2", "b1")]

    def test_empty_token_records_join_across_batches(self):
        join = IncrementalSimJoin(threshold=0.4)
        join.add_batch([Record("e1", {"t": ""}), Record("x", {"t": "ipad"})])
        delta = join.add_batch([Record("e2", {"t": ""})])
        assert [pair.key for pair in delta] == [("e1", "e2")]
        assert delta.get("e1", "e2").likelihood == 1.0

    def test_duplicate_ids_rejected(self):
        join = IncrementalSimJoin(threshold=0.5)
        join.add_batch([Record("r1", {"t": "a"})])
        with pytest.raises(RecordError):
            join.add_batch([Record("r1", {"t": "b"})])
        with pytest.raises(RecordError):
            join.add_batch([Record("r2", {"t": "a"}), Record("r2", {"t": "b"})])


# ------------------------------------------------------- per-pair vote mode
class TestPerPairVoteMode:
    def _pair_batch(self, groups):
        pairs = {key for group in groups for key in group}
        return HITBatch(
            hit_type="pair",
            hits=[
                PairBasedHIT(hit_id=f"h{i}", pairs=tuple(group))
                for i, group in enumerate(groups)
            ],
            candidate_pairs=pairs,
        )

    def test_votes_independent_of_grouping(self):
        keys = [("r1", "r2"), ("r3", "r4"), ("r5", "r6"), ("r7", "r8")]
        truth = [("r1", "r2"), ("r5", "r6")]
        platform_a = SimulatedCrowdPlatform(seed=3, vote_mode="per-pair")
        platform_b = SimulatedCrowdPlatform(seed=3, vote_mode="per-pair")
        one_hit = platform_a.publish(self._pair_batch([keys]), truth)
        # Same pairs split across three HITs published as two batches.
        split_1 = platform_b.publish(self._pair_batch([keys[:2]]), truth)
        split_2 = platform_b.publish(self._pair_batch([keys[2:3], keys[3:]]), truth)
        assert sorted(one_hit.votes) == sorted(split_1.votes + split_2.votes)

    def test_duplicate_coverage_votes_once(self):
        key = ("r1", "r2")
        platform = SimulatedCrowdPlatform(seed=0, vote_mode="per-pair")
        overlapping = self._pair_batch([[key], [key]])
        run = platform.publish(overlapping, [])
        assert len(run.votes) == platform.assignments_per_hit
        # Assignments are still paid per HIT even though the pair votes once.
        assert run.assignment_count == 2 * platform.assignments_per_hit

    def test_round_salt_changes_votes(self):
        key = ("r1", "r2")
        platform = SimulatedCrowdPlatform(seed=1, vote_mode="per-pair")
        round_0 = platform.pair_votes(key, True, round_index=0)
        round_0_again = platform.pair_votes(key, True, round_index=0)
        round_1 = platform.pair_votes(key, True, round_index=1)
        assert round_0 == round_0_again
        assert [v[0] for v in round_0] != [v[0] for v in round_1]  # different workers

    def test_invalid_vote_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCrowdPlatform(vote_mode="telepathy")
        with pytest.raises(ValueError):
            WorkflowConfig(vote_mode="telepathy")


# ------------------------------------------------- streaming == batch runs
EQUIVALENCE_CONFIGS = [
    pytest.param(
        {"aggregation": "majority", "streaming_aggregation_scope": "component"},
        id="majority-component",
    ),
    pytest.param(
        {"aggregation": "dawid-skene", "streaming_aggregation_scope": "global"},
        id="dawid-skene-global",
    ),
]


class TestStreamingEquivalence:
    @pytest.mark.parametrize("overrides", EQUIVALENCE_CONFIGS)
    @pytest.mark.parametrize("order_seed", (0, 1, 2))
    def test_randomized_arrival_orders_match_one_shot(self, overrides, order_seed):
        dataset = make_dataset()
        config = WorkflowConfig(
            likelihood_threshold=0.35, vote_mode="per-pair", **overrides
        )
        workflow = HybridWorkflow(config)
        one_shot = workflow.resolve(dataset)
        batch_size = random.Random(order_seed).choice([7, 16, 33])
        stream = resolve_stream(
            dataset,
            config=config,
            batch_size=batch_size,
            arrival_order=shuffled_ids(dataset, order_seed),
        )
        assert set(stream.matches) == set(one_shot.matches)
        assert stream.matches == one_shot.matches  # identical ranking of matches
        assert stream.posteriors == one_shot.posteriors
        assert stream.likelihoods == one_shot.likelihoods
        assert stream.ranked_pairs == one_shot.ranked_pairs
        assert stream.recall_ceiling == one_shot.recall_ceiling

    def test_hit_pair_coverage_matches_one_shot(self):
        dataset = make_dataset()
        config = WorkflowConfig(likelihood_threshold=0.35, vote_mode="per-pair")
        workflow = HybridWorkflow(config)
        candidates = workflow.machine_candidates(dataset)
        one_shot_covered = workflow.generate_hits(candidates).covered_pairs()

        resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
        resolver.add_truth(dataset.ground_truth)
        records = list(dataset.store)
        for start in range(0, len(records), 11):
            resolver.add_batch(records[start : start + 11])
        assert resolver.covered_pairs() == one_shot_covered == set(candidates.keys())

    def test_pair_hits_equivalence(self):
        dataset = make_dataset(seed=21)
        config = WorkflowConfig(
            likelihood_threshold=0.35,
            hit_type="pair",
            vote_mode="per-pair",
            aggregation="majority",
        )
        one_shot = HybridWorkflow(config).resolve(dataset)
        stream = resolve_stream(dataset, config=config, batch_size=19)
        assert set(stream.matches) == set(one_shot.matches)
        assert stream.posteriors == one_shot.posteriors


# ----------------------------------------------------- incremental behaviour
class TestIncrementalBehaviour:
    def _two_island_records(self):
        island_a = [
            Record("a1", {"t": "golden gate grill san francisco"}),
            Record("a2", {"t": "golden gate grill san francisco"}),
        ]
        island_b = [
            Record("b1", {"t": "brooklyn bagel company new york"}),
            Record("b2", {"t": "brooklyn bagel company new york"}),
        ]
        return island_a, island_b

    def test_clean_component_state_preserved(self):
        island_a, island_b = self._two_island_records()
        config = WorkflowConfig(likelihood_threshold=0.5, vote_mode="per-pair")
        resolver = StreamingResolver(config=config)
        resolver.add_truth([("a1", "a2"), ("b1", "b2")])
        first = resolver.add_batch(island_a)
        votes_before = resolver.votes_for("a1", "a2")
        posterior_before = first.posteriors[("a1", "a2")]
        assert votes_before

        second = resolver.add_batch(island_b)
        # Island A was untouched by the batch: votes and posterior carried
        # over bit-for-bit, and the delta reports the preservation.
        assert resolver.votes_for("a1", "a2") == votes_before
        assert second.posteriors[("a1", "a2")] == posterior_before
        assert second.delta.preserved_posterior_pairs == 1
        assert second.delta.reused_vote_pairs == 0
        assert ("b1", "b2") in second.posteriors

    def test_recrowd_policy_never_reuses_votes(self):
        config = WorkflowConfig(likelihood_threshold=0.3, vote_mode="per-pair")
        resolver = StreamingResolver(config=config)
        base = [
            Record("r1", {"t": "alpha beta gamma delta"}),
            Record("r2", {"t": "alpha beta gamma delta"}),
        ]
        resolver.add_batch(base)
        votes_before = resolver.votes_for("r1", "r2")
        # A new record joins the same component: the component is dirty and
        # its HITs are regenerated, but the r1-r2 votes are reused.
        snap = resolver.add_batch([Record("r3", {"t": "alpha beta gamma epsilon"})])
        assert resolver.votes_for("r1", "r2") == votes_before
        assert snap.delta.reused_vote_pairs >= 1
        assert snap.delta.regenerated_hits >= 1

    def test_recrowd_policy_dirty_draws_fresh_votes(self):
        config = WorkflowConfig(
            likelihood_threshold=0.3, vote_mode="per-pair", recrowd_policy="dirty"
        )
        resolver = StreamingResolver(config=config)
        base = [
            Record("r1", {"t": "alpha beta gamma delta"}),
            Record("r2", {"t": "alpha beta gamma delta"}),
        ]
        resolver.add_batch(base)
        votes_before = resolver.votes_for("r1", "r2")
        resolver.add_batch([Record("r3", {"t": "alpha beta gamma epsilon"})])
        votes_after = resolver.votes_for("r1", "r2")
        # Fresh round: different workers were asked (round salt differs).
        assert votes_after != votes_before
        assert resolver._vote_rounds[("r1", "r2")] == 2

    def test_sequential_platform_rejected(self):
        platform = SimulatedCrowdPlatform(vote_mode="sequential")
        with pytest.raises(ValueError):
            StreamingResolver(platform=platform)

    def test_snapshot_before_any_batch_is_empty(self):
        resolver = StreamingResolver()
        snap = resolver.snapshot()
        assert snap.matches == []
        assert snap.candidate_count == 0
        assert snap.hit_count == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkflowConfig(recrowd_policy="sometimes")
        with pytest.raises(ValueError):
            WorkflowConfig(streaming_aggregation_scope="galaxy")
        with pytest.raises(ValueError):
            WorkflowConfig(stream_batch_size=0)

    def test_resolve_stream_rejects_partial_order(self):
        dataset = make_dataset(record_count=20, duplicate_pairs=3)
        with pytest.raises(ValueError):
            resolve_stream(dataset, arrival_order=dataset.store.record_ids[:-1])


# ------------------------------------------------- bounded-staleness (epsilon)
class TestBoundedStalenessAggregation:
    def _growing_component_batches(self):
        base = [
            Record("r1", {"t": "alpha beta gamma delta"}),
            Record("r2", {"t": "alpha beta gamma delta"}),
        ]
        growth = [Record("r3", {"t": "alpha beta gamma epsilon"})]
        return base, growth

    def test_epsilon_zero_always_reaggregates(self):
        base, growth = self._growing_component_batches()
        config = WorkflowConfig(likelihood_threshold=0.3, vote_mode="per-pair")
        resolver = StreamingResolver(config=config)
        resolver.add_batch(base)
        snap = resolver.add_batch(growth)
        assert snap.delta.stale_skipped_components == 0

    def test_large_epsilon_skips_low_gain_components(self):
        # Under recrowd_policy="never" the second batch adds votes only for
        # the two *new* pairs (3 votes each = 6 fresh votes in the dirty
        # component); an epsilon above that must skip the re-aggregation
        # and keep the cached posteriors bit-for-bit.
        base, growth = self._growing_component_batches()
        config = WorkflowConfig(likelihood_threshold=0.3, vote_mode="per-pair")
        resolver = StreamingResolver(config=config)
        first = resolver.add_batch(base)
        posterior_before = first.posteriors[("r1", "r2")]
        config.staleness_epsilon = 1000  # raise the bound mid-session
        snap = resolver.add_batch(growth)
        assert snap.delta.stale_skipped_components == 1
        assert snap.posteriors[("r1", "r2")] == posterior_before
        # The freshly voted pairs were *not* folded in — that's the
        # staleness trade: votes are ledgered but the posterior is deferred.
        assert ("r1", "r3") not in snap.posteriors
        assert resolver.votes_for("r1", "r3")

    def test_pending_votes_accumulate_until_the_bound_is_crossed(self):
        """Deferred components re-aggregate once enough evidence piles up:
        staleness is bounded by epsilon votes, not indefinite."""
        base, growth = self._growing_component_batches()
        config = WorkflowConfig(likelihood_threshold=0.3, vote_mode="per-pair")
        resolver = StreamingResolver(config=config)
        resolver.add_batch(base)
        # Each new pair gains 3 votes; one new record adds 2 pairs = 6.
        config.staleness_epsilon = 8
        deferred = resolver.add_batch(growth)
        assert deferred.delta.stale_skipped_components == 1
        assert ("r1", "r3") not in deferred.posteriors
        # Another arrival: the component's pending gain (6 + 9) crosses the
        # bound, so everything deferred is folded in now.
        caught_up = resolver.add_batch(
            [Record("r4", {"t": "alpha beta gamma zeta"})]
        )
        assert caught_up.delta.stale_skipped_components == 0
        assert ("r1", "r3") in caught_up.posteriors
        assert ("r1", "r4") in caught_up.posteriors

    def test_flush_settles_deferred_components(self):
        """After flush(), an epsilon session matches the exact session."""
        dataset = make_dataset(record_count=60, duplicate_pairs=10, seed=13)
        exact_config = WorkflowConfig(
            likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority"
        )
        exact = resolve_stream(dataset, config=exact_config, batch_size=17)

        config = WorkflowConfig(
            likelihood_threshold=0.35,
            vote_mode="per-pair",
            aggregation="majority",
            staleness_epsilon=50,
        )
        resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
        resolver.add_truth(dataset.ground_truth)
        records = list(dataset.store)
        for start in range(0, len(records), 17):
            lazy = resolver.add_batch(records[start : start + 17])
        assert lazy.posteriors != exact.posteriors  # staleness was real
        settled = resolver.flush()
        assert settled.posteriors == exact.posteriors
        assert set(settled.matches) == set(exact.matches)
        # Idempotent: nothing pending after a flush.
        assert resolver.flush().posteriors == exact.posteriors

    def test_small_epsilon_equals_exact_aggregation(self):
        """With majority aggregation, skipping zero-gain components changes
        nothing: epsilon=1 must reproduce the epsilon=0 session exactly."""
        dataset = make_dataset(record_count=60, duplicate_pairs=10, seed=13)
        results = {}
        for epsilon in (0, 1):
            config = WorkflowConfig(
                likelihood_threshold=0.35,
                vote_mode="per-pair",
                aggregation="majority",
                staleness_epsilon=epsilon,
            )
            results[epsilon] = resolve_stream(dataset, config=config, batch_size=17)
        assert results[1].posteriors == results[0].posteriors
        assert set(results[1].matches) == set(results[0].matches)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            WorkflowConfig(staleness_epsilon=-1)
        with pytest.raises(ValueError):
            WorkflowConfig(join_workers=-2)


# -------------------------------------------------------- property (random)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(order_seed=order_seeds, batch_size=arrival_batch_sizes)
def test_property_streaming_equals_batch(order_seed, batch_size):
    """Any arrival order / batch size reproduces the one-shot resolution."""
    dataset = make_dataset(record_count=60, duplicate_pairs=10, seed=13)
    config = WorkflowConfig(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority"
    )
    one_shot = HybridWorkflow(config).resolve(dataset)
    stream = resolve_stream(
        dataset,
        config=config,
        batch_size=batch_size,
        arrival_order=shuffled_ids(dataset, order_seed),
    )
    assert set(stream.matches) == set(one_shot.matches)
    assert stream.posteriors == one_shot.posteriors
    assert stream.likelihoods == one_shot.likelihoods
