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
from hypothesis import strategies as st

from strategies import arrival_batch_sizes, drive, event_schedules, order_seeds

from repro.aggregation.majority import MajorityAggregator
from repro.core.config import WorkflowConfig
from repro.core.ranking import RankedIndex, rank_candidates
from repro.core.workflow import HybridWorkflow
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.datasets.restaurant import RestaurantGenerator
from repro.hit.base import HITBatch, PairBasedHIT
from repro.records.record import Record, RecordError
from repro.simjoin.likelihood import SimJoinLikelihood
from repro.streaming import aggregation_schedule as schedule_module
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

    def test_similarity_attributes_restrict_the_streamed_join(self):
        """A session scores pairs over the named attributes only, exactly as
        the batch join does."""
        dataset = make_dataset(record_count=60, duplicate_pairs=15, seed=3)
        config = WorkflowConfig(
            likelihood_threshold=0.3, vote_mode="per-pair", similarity_attributes=["name"]
        )
        stream = resolve_stream(dataset, config=config, batch_size=17)
        expected = SimJoinLikelihood(["name"]).estimate(
            dataset.store, min_likelihood=0.3, cross_sources=dataset.cross_sources
        )
        assert stream.likelihoods == {pair.key: pair.likelihood for pair in expected}
        every_pair = dataset.record_count * (dataset.record_count - 1) // 2
        assert 0 < len(expected) < every_pair

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

    def test_voted_pairs_of_a_dirty_component_keep_their_votes(self):
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
            WorkflowConfig(streaming_aggregation_scope="galaxy")
        with pytest.raises(ValueError):
            WorkflowConfig(stream_batch_size=0)

    def test_resolve_stream_rejects_partial_order(self):
        dataset = make_dataset(record_count=20, duplicate_pairs=3)
        with pytest.raises(ValueError):
            resolve_stream(dataset, arrival_order=dataset.store.record_ids[:-1])


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


# ------------------------------------------------------- the ranked index
def index_of(likelihoods, posteriors):
    index = RankedIndex()
    for key, likelihood in likelihoods.items():
        index.put(key, likelihood, posteriors.get(key))
    return index


def assert_index_ranks_like_the_oracle(index, likelihoods, posteriors):
    ranked, matches = rank_candidates(likelihoods, posteriors)
    assert index.ranked() == ranked
    assert index.matches() == matches


class TestRankedIndex:
    def test_ties_break_on_ascending_pair_key(self):
        likelihoods = {("c", "d"): 0.5, ("a", "z"): 0.5, ("a", "b"): 0.5, ("b", "c"): 0.5}
        posteriors = {("c", "d"): 1.0, ("a", "z"): 1.0}
        index = index_of(likelihoods, posteriors)
        assert index.ranked() == [("a", "z"), ("c", "d"), ("a", "b"), ("b", "c")]
        assert_index_ranks_like_the_oracle(index, likelihoods, posteriors)

    def test_signed_zeros_tie(self):
        """``-0.0 == 0.0``: a signed zero must not reorder equal scores."""
        likelihoods = {("a", "b"): 0.0, ("a", "c"): -0.0, ("a", "d"): 0.0, ("a", "e"): 0.4}
        posteriors = {("a", "b"): -0.0, ("a", "c"): 0.0, ("a", "e"): 0.0}
        index = index_of(likelihoods, posteriors)
        assert index.ranked() == [("a", "d"), ("a", "e"), ("a", "b"), ("a", "c")]
        assert_index_ranks_like_the_oracle(index, likelihoods, posteriors)

    def test_a_pair_moves_between_all_three_tiers(self):
        likelihoods = {("a", "b"): 0.9, ("c", "d"): 0.6, ("e", "f"): 0.3}
        posteriors = {}
        index = index_of(likelihoods, posteriors)
        assert index.ranked()[1] == ("c", "d") and index.matches() == []
        for posterior, position in ((1.0, 0), (0.0, 2), (None, 1), (0.5, 2), (2 / 3, 0)):
            if posterior is None:
                posteriors.pop(("c", "d"))
            else:
                posteriors[("c", "d")] = posterior
            index.put(("c", "d"), 0.6, posterior)
            assert index.ranked()[position] == ("c", "d")
            assert_index_ranks_like_the_oracle(index, likelihoods, posteriors)
        assert index.matches() == [("c", "d")]  # 0.5 is not above the threshold, 2/3 is

    def test_discard_of_an_absent_key_is_a_no_op(self):
        likelihoods = {("a", "b"): 0.9, ("c", "d"): 0.6}
        index = index_of(likelihoods, {})
        index.discard(("x", "y"))
        assert index.ranked() == [("a", "b"), ("c", "d")]
        index.discard(("a", "b"))
        index.discard(("a", "b"))
        assert index.ranked() == [("c", "d")]

    def test_load_takes_the_oracle_order_and_keeps_updating(self):
        likelihoods = {("a", "b"): 0.4, ("c", "d"): 0.6, ("e", "f"): 0.6}
        posteriors = {("a", "b"): 0.8}
        index = RankedIndex()
        index.load(rank_candidates(likelihoods, posteriors)[0], likelihoods, posteriors)
        assert_index_ranks_like_the_oracle(index, likelihoods, posteriors)
        likelihoods[("g", "h")] = 0.6
        index.put(("g", "h"), 0.6, None)
        del likelihoods[("c", "d")]
        index.discard(("c", "d"))
        assert_index_ranks_like_the_oracle(index, likelihoods, posteriors)

    @settings(max_examples=200, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)),
                st.sampled_from((None, 0.0, -0.0, 1 / 3, 0.5, 2 / 3, 1.0, "drop")),
            ),
            max_size=40,
        ),
    )
    def test_property_any_update_sequence_ranks_like_the_oracle(self, operations):
        likelihoods, posteriors = {}, {}
        index = RankedIndex()
        for number, likelihood, posterior in operations:
            key = (f"r{number // 4}", f"s{number % 4}")
            if posterior == "drop":
                likelihoods.pop(key, None)
                posteriors.pop(key, None)
                index.discard(key)
                continue
            likelihoods[key] = likelihood
            if posterior is None:
                posteriors.pop(key, None)
            else:
                posteriors[key] = posterior
            index.put(key, likelihood, posterior)
            assert_index_ranks_like_the_oracle(index, likelihoods, posteriors)
        assert_index_ranks_like_the_oracle(index, likelihoods, posteriors)


# ------------------------------------- snapshot == the ledger ranked afresh
RANKED_MODES = {
    "majority/component": dict(aggregation="majority"),
    "dawid-skene/component": dict(aggregation="dawid-skene"),
    "dawid-skene/global": dict(
        aggregation="dawid-skene", streaming_aggregation_scope="global"
    ),
}


def assert_snapshot_is_the_ledger_ranked_afresh(result, resolver):
    ledger = resolver.storage.ledger
    ranked, matches = rank_candidates(dict(ledger.pairs), dict(ledger.posteriors))
    assert result.ranked_pairs == ranked
    assert result.matches == matches
    assert result.likelihoods == ledger.pairs
    assert result.posteriors == ledger.posteriors
    assert result.candidate_count == len(ranked)
    # The maintained recall ceiling against a walk of the whole truth set.
    arrived = {
        key for key in resolver._truth
        if key[0] in resolver.store and key[1] in resolver.store
    }
    assert result.recall_ceiling == (
        len(arrived & resolver.storage.ledger.pairs.keys()) / len(arrived)
        if arrived else None
    )


def checked_after_every_event(resolver):
    """Wrap the event methods so each result is compared with the oracle."""
    for name in ("add_batch", "retract", "update", "flush"):
        def checked(*arguments, _event=getattr(resolver, name)):
            result = _event(*arguments)
            assert_snapshot_is_the_ledger_ranked_afresh(result, resolver)
            return result
        setattr(resolver, name, checked)
    return resolver


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("mode", sorted(RANKED_MODES))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), schedule=event_schedules(min_size=2, max_size=7))
def test_property_snapshot_equals_the_ledger_ranked_afresh(
    tmp_path_factory, mode, backend, data, schedule
):
    """After every event — and across a save/restore in mid-schedule — the
    incrementally kept order is exactly ``rank_candidates`` over the ledger."""
    dataset = make_dataset(record_count=50, duplicate_pairs=10, seed=29)
    records = list(dataset.store)
    directory = tmp_path_factory.mktemp("ranked")
    config = WorkflowConfig(
        likelihood_threshold=0.3, vote_mode="per-pair", cluster_size=4, seed=5,
        storage_backend=backend, checkpoint_dir=str(directory), **RANKED_MODES[mode],
    )
    resolver = checked_after_every_event(StreamingResolver(config=config))
    resolver.add_truth(dataset.ground_truth)
    stop_at = data.draw(st.integers(min_value=0, max_value=len(schedule)), label="stop_at")
    cursor = drive(resolver, records, schedule[:stop_at])
    before = resolver.snapshot()
    resolver.save()
    resolver.durability.close()

    restored = checked_after_every_event(StreamingResolver.restore(str(directory)))
    after = restored.snapshot()
    assert_snapshot_is_the_ledger_ranked_afresh(after, restored)
    assert (after.ranked_pairs, after.matches) == (before.ranked_pairs, before.matches)
    drive(restored, records, schedule[stop_at:], cursor=cursor)
    assert_snapshot_is_the_ledger_ranked_afresh(restored.snapshot(), restored)
    restored.durability.close()


# ------------------------------------------- the pair-independent skip
class WholeComponentMajority(MajorityAggregator):
    """Majority votes, re-run the way a pair-dependent aggregator is."""

    pair_independent = False


def reuse_counters(result):
    delta = result.delta
    return (delta.preserved_posterior_pairs, delta.reused_vote_pairs)


class TestPairIndependentSkip:
    """Skipping the settled pairs changes no counter and no posterior."""

    GROWING = [
        [Record("r1", {"t": "alpha beta gamma delta"}),
         Record("r2", {"t": "alpha beta gamma delta"})],
        [Record("r3", {"t": "alpha beta gamma epsilon"})],
    ]

    def _config(self, **overrides):
        return WorkflowConfig(**{
            "likelihood_threshold": 0.3, "vote_mode": "per-pair",
            "aggregation": "majority", **overrides,
        })

    def test_dirty_component_with_voted_pairs_and_no_pending_votes(self):
        """Async crowd: r3's pairs are still in flight when its component is
        dirty, so the component's only voted pair has nothing pending — it
        keeps its posterior, and flush settles the rest."""
        plan = {"seed": 1, "delay_ticks_min": 2, "delay_ticks_max": 2}
        resolver = StreamingResolver(
            config=self._config(crowd_mode="async", fault_plan=plan)
        )
        resolver.add_truth([("r1", "r2"), ("r1", "r3")])
        resolver.add_batch(self.GROWING[0])
        for filler in ("unrelated words here", "other things entirely"):
            settled = resolver.add_batch([Record(filler[:5], {"t": filler})])
        assert settled.posteriors == {("r1", "r2"): 1.0}
        assert not resolver.storage.ledger.pending_votes
        growth = resolver.add_batch(self.GROWING[1])
        assert growth.posteriors == {("r1", "r2"): 1.0}
        assert reuse_counters(growth) == (0, 1)
        assert resolver.flush().posteriors == {
            ("r1", "r2"): 1.0, ("r1", "r3"): 2 / 3, ("r2", "r3"): 0.0,
        }

    @pytest.mark.parametrize("batch_size", (7, 17, 50))
    def test_every_event_equals_whole_component_reaggregation(self, monkeypatch, batch_size):
        """Event by event — arrivals and a retraction — the skip gives the
        counters, posteriors and digest of re-running majority over every
        voted pair of the dirty region, while feeding it fewer votes."""
        dataset = make_dataset(record_count=60, duplicate_pairs=10, seed=13)
        records = list(dataset.store)

        def run(aggregator_class):
            fed = []

            class Counting(aggregator_class):
                def aggregate(self, votes):
                    fed.append(len(votes))
                    return super().aggregate(votes)

            monkeypatch.setattr(schedule_module, "build_aggregator", lambda config: Counting())
            resolver = StreamingResolver(config=self._config(likelihood_threshold=0.25))
            resolver.add_truth(dataset.ground_truth)
            trail = []
            for start in range(0, len(records), batch_size):
                result = resolver.add_batch(records[start : start + batch_size])
                trail.append((result.delta.as_dict(), result.posteriors, resolver.state_digest()))
            result = resolver.retract(records[3].record_id)
            trail.append((result.delta.as_dict(), result.posteriors, resolver.state_digest()))
            return trail, sum(fed)

        skipping, skipping_votes = run(MajorityAggregator)
        whole, whole_votes = run(WholeComponentMajority)
        assert skipping == whole
        assert skipping_votes < whole_votes
