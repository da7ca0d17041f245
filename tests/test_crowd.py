"""Tests for the simulated crowd: workers, qualification, pricing, latency, platform."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.crowd import mt19937
from repro.crowd.latency import LatencyModel
from repro.crowd.platform import CrowdRunResult, SimulatedCrowdPlatform
from repro.crowd.pricing import PricingModel
from repro.crowd.qualification import QualificationTest
from repro.crowd.worker import NOISY, RELIABLE, SPAMMER, Worker, WorkerPool, WorkerProfile
from repro.datasets.restaurant import RestaurantGenerator
from repro.hit.base import ClusterBasedHIT, HITBatch, PairBasedHIT
from repro.records.pairs import canonical_pair
from repro.streaming.persistence import state_digest


class TestWorkerProfiles:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkerProfile(name="bad", accuracy=1.5)
        with pytest.raises(ValueError):
            WorkerProfile(name="bad", spammer_mode="weird")

    def test_reliable_worker_mostly_correct(self):
        worker = Worker("w", RELIABLE, seed=1)
        answers = [worker.answer_comparison(True) for _ in range(500)]
        assert sum(answers) / len(answers) > 0.9

    def test_random_spammer_is_uninformative(self):
        worker = Worker("w", SPAMMER, seed=2)
        answers = [worker.answer_comparison(True) for _ in range(1000)]
        assert 0.4 < sum(answers) / len(answers) < 0.6

    def test_always_yes_spammer(self):
        worker = Worker("w", WorkerProfile(name="yes", spammer_mode="always-yes"), seed=0)
        assert all(worker.answer_comparison(False) for _ in range(10))

    def test_qualification_boost(self):
        worker = Worker("w", NOISY, seed=0)
        base = worker.effective_accuracy
        worker.qualified = True
        assert worker.effective_accuracy > base


class TestWorkerHITExecution:
    def test_pair_hit_answers_all_pairs(self):
        worker = Worker("w", RELIABLE, seed=3)
        pairs = (("a", "b"), ("c", "d"))
        answers = worker.do_pair_hit(pairs, truth={("a", "b")})
        assert set(answers) == {("a", "b"), ("c", "d")}

    def test_cluster_hit_answers_are_transitively_consistent(self):
        worker = Worker("w", RELIABLE, seed=4)
        records = ("a", "b", "c", "d")
        truth = {canonical_pair("a", "b"), canonical_pair("b", "c"), canonical_pair("a", "c")}
        answers = worker.do_cluster_hit(records, truth)
        # If a~b and b~c were answered yes, a~c must also be yes (same label).
        if answers[("a", "b")] and answers[("b", "c")]:
            assert answers[("a", "c")]

    def test_cluster_hit_comparison_count_matches_section6(self):
        worker = Worker("w", WorkerProfile(name="perfect", accuracy=1.0), seed=0)
        records = ("r1", "r2", "r3", "r7")
        truth = {("r1", "r2"), ("r1", "r7"), ("r2", "r7")}
        worker.do_cluster_hit(records, truth)
        # Example 4 of the paper: three comparisons suffice.
        assert worker.last_comparisons == 3

    def test_perfect_worker_reproduces_truth(self):
        worker = Worker("w", WorkerProfile(name="perfect", accuracy=1.0), seed=0)
        records = ("a", "b", "c")
        truth = {("a", "b")}
        answers = worker.do_cluster_hit(records, truth)
        assert answers[("a", "b")] is True
        assert answers[("a", "c")] is False
        assert answers[("b", "c")] is False


class TestWorkerPool:
    def test_build_respects_size_and_mix(self):
        pool = WorkerPool.build(size=20, seed=1)
        assert len(pool) == 20
        assert 0 < pool.spammer_count() < 20

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            WorkerPool.build(size=10, reliable_fraction=0.9, noisy_fraction=0.9, spammer_fraction=0.0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool([])


class TestQualification:
    def test_spammers_usually_fail(self):
        pool = WorkerPool([Worker(f"s{i}", SPAMMER, seed=i) for i in range(40)])
        qualified, rejected = QualificationTest().filter_pool(pool)
        assert len(rejected) > len(qualified)

    def test_reliable_workers_usually_pass(self):
        pool = WorkerPool([Worker(f"r{i}", RELIABLE, seed=i) for i in range(40)])
        qualified, rejected = QualificationTest().filter_pool(pool)
        assert len(qualified) > len(rejected)

    def test_constant_answerers_cannot_pass(self):
        worker = Worker("yes", WorkerProfile(name="yes", spammer_mode="always-yes"), seed=0)
        assert not QualificationTest().administer(worker)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QualificationTest(question_count=0)


class TestPricing:
    def test_paper_cost_examples(self):
        pricing = PricingModel()
        # Restaurant: 112 HITs * 3 assignments * $0.025 = $8.40
        assert pricing.total_cost(112, 3) == pytest.approx(8.4)
        # Product: 508 HITs * 3 assignments * $0.025 = $38.10
        assert pricing.total_cost(508, 3) == pytest.approx(38.1)

    def test_naive_pair_cost_from_introduction(self):
        pricing = PricingModel(reward_per_assignment=0.01, platform_fee_per_assignment=0.0)
        # 10,000 records, k=20 pairs per HIT -> ~2.5M pairs / 20 = 2.5M HITs? No:
        # n*(n-1)/2 ~ 50M pairs / 20 = 2.5M HITs at $0.01 -> $25k.  The paper's
        # figure of 5M HITs corresponds to pair-based batching of 10 pairs; we
        # simply check the formula is consistent.
        cost = pricing.naive_pair_cost(10_000, pairs_per_hit=10, assignments_per_hit=1)
        assert cost == pytest.approx(49_995_000 / 10 * 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            PricingModel(reward_per_assignment=-1)
        with pytest.raises(ValueError):
            PricingModel().total_cost(-1, 3)


class TestLatencyModel:
    def test_pair_assignment_time_grows_with_pairs(self):
        model = LatencyModel()
        assert model.pair_assignment_seconds(28) > model.pair_assignment_seconds(16)

    def test_cluster_assignment_time_grows_with_comparisons(self):
        model = LatencyModel()
        assert model.cluster_assignment_seconds(45) > model.cluster_assignment_seconds(20)

    def test_qualification_adds_time(self):
        model = LatencyModel()
        assert model.pair_assignment_seconds(16, qualified=True) > model.pair_assignment_seconds(16)

    def test_pair_appeal_drops_for_large_batches(self):
        model = LatencyModel()
        assert model.batch_appeal("pair", 28) < model.batch_appeal("pair", 16)

    def test_cluster_appeal_below_pair_appeal(self):
        model = LatencyModel()
        assert model.batch_appeal("cluster") < model.batch_appeal("pair", 16)

    def test_qualification_shrinks_worker_pool(self):
        model = LatencyModel()
        assert model.effective_workers("pair", 16, qualification=True) < model.effective_workers(
            "pair", 16, qualification=False
        )

    def test_estimate_aggregates(self):
        model = LatencyModel()
        estimate = model.estimate([60.0, 80.0, 100.0], hit_type="pair", pairs_per_hit=16)
        assert estimate.median_assignment_seconds == 80.0
        assert estimate.assignment_count == 3
        assert estimate.total_minutes > 0

    def test_empty_estimate(self):
        estimate = LatencyModel().estimate([], hit_type="cluster")
        assert estimate.total_minutes == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().pair_assignment_seconds(-1)
        with pytest.raises(ValueError):
            LatencyModel().batch_appeal("other")


class TestPlatform:
    def _cluster_batch(self):
        candidates = {("a", "b"), ("b", "c")}
        return HITBatch(
            hit_type="cluster",
            hits=[ClusterBasedHIT("h1", ("a", "b", "c"))],
            candidate_pairs=candidates,
            cluster_size=3,
        )

    def test_publish_produces_replicated_votes(self):
        platform = SimulatedCrowdPlatform(assignments_per_hit=3, seed=1)
        result = platform.publish(self._cluster_batch(), true_matches={("a", "b")})
        # 3 assignments x 2 candidate pairs = 6 votes.
        assert len(result.votes) == 6
        assert result.assignment_count == 3
        assert result.cost == pytest.approx(3 * 0.025)
        assert result.latency is not None

    def test_distinct_workers_per_hit(self):
        platform = SimulatedCrowdPlatform(assignments_per_hit=3, seed=2)
        result = platform.publish(self._cluster_batch(), true_matches=set())
        workers = {worker for worker, _pair, _answer in result.votes}
        assert len(workers) == 3

    def test_pair_batch_votes_every_listed_pair(self):
        batch = HITBatch(
            hit_type="pair",
            hits=[PairBasedHIT("h1", (("a", "b"), ("c", "d")))],
            candidate_pairs={("a", "b"), ("c", "d")},
            cluster_size=2,
        )
        platform = SimulatedCrowdPlatform(assignments_per_hit=2, seed=3)
        result = platform.publish(batch, true_matches={("a", "b")})
        voted_pairs = {pair for _w, pair, _a in result.votes}
        assert voted_pairs == {("a", "b"), ("c", "d")}

    def test_qualification_filters_pool(self):
        pool = WorkerPool.build(size=30, seed=4)
        platform = SimulatedCrowdPlatform(pool=pool, qualification=QualificationTest(), seed=4)
        assert platform._eligible  # some workers qualified
        assert len(platform._eligible) < len(pool)

    def test_reproducible_with_seed(self):
        result_a = SimulatedCrowdPlatform(seed=7).publish(self._cluster_batch(), {("a", "b")})
        result_b = SimulatedCrowdPlatform(seed=7).publish(self._cluster_batch(), {("a", "b")})
        assert result_a.votes == result_b.votes

    def test_invalid_assignments(self):
        with pytest.raises(ValueError):
            SimulatedCrowdPlatform(assignments_per_hit=0)


class TestCrowdRunResultAssignmentCount:
    def test_counts_completed_assignments(self):
        result = CrowdRunResult(
            assignment_seconds=[30.0, 40.0, 50.0], hit_count=1, assignments_per_hit=3
        )
        assert result.assignment_count == 3

    def test_unfilled_assignments_are_not_counted(self):
        """Regression: a platform that leaves assignments unfilled must not
        report hit_count * assignments_per_hit completed assignments."""
        result = CrowdRunResult(
            assignment_seconds=[30.0, 40.0, 50.0, 60.0], hit_count=2, assignments_per_hit=3
        )
        assert result.assignment_count == 4


def _reference_words(seeds, count):
    rngs = [random.Random(seed) for seed in seeds]
    return np.array([[rng.getrandbits(32) for _ in range(count)] for rng in rngs],
                    dtype=np.uint32).reshape(len(seeds), count)


def _key_words(seed):
    return len(mt19937._key(seed)) // 4


class TestFirstWords:
    """``first_words`` is ``random.Random(s).getrandbits(32)``, word for word."""

    #: Seeds over several key lengths: the platform's own shapes (a negative
    #: platform seed included), multi-byte ids, and leading "\x00"/"\x01"
    #: bytes, whose missing high bits make the key one word shorter than
    #: the byte count alone says.
    SEEDS = (
        [f"7|0|workers|r{i}|r{i + 17}" for i in range(40)]
        + [f"-3|0|worker-{i}|a{i}|b{i}" for i in range(12)]
        + [f"1|2|workers|café-{i}|日本-{i}|ü" for i in range(9)]
        + [f"\x00{'x' * i}" for i in range(8)]
        + [f"\x01{'y' * i}" for i in range(8)]
        + ["", "\x00", "\x01"]
    )

    @pytest.mark.parametrize("count", [1, 2, 8, 227])
    def test_words_match_random_random(self, monkeypatch, count):
        # 10 puts some key-length groups above the bulk size, some below.
        monkeypatch.setattr(mt19937, "BULK_MIN_SEEDS", 10)
        lengths = Counter(_key_words(seed) for seed in self.SEEDS)
        assert len(lengths) >= 3
        assert max(lengths.values()) >= 10 and min(lengths.values()) < 10
        words = mt19937.first_words(self.SEEDS, count)
        assert words.dtype == np.uint32 and words.shape == (len(self.SEEDS), count)
        np.testing.assert_array_equal(words, _reference_words(self.SEEDS, count))

    def test_leading_zero_bytes_shorten_the_key(self):
        # 5 seed bytes + 64 digest bytes: 69 bytes round up to 18 words.  A
        # "\x01" lead leaves 545 bits (18 words), a "\x00" lead before "a"
        # 543 (17 words) — counting characters would get the second wrong.
        assert _key_words("\x01abcd") == 18
        assert _key_words("\x00abcd") == 17

    def test_default_bulk_size_runs_the_vector_pass(self):
        seeds = [f"5|0|workers|r{i:04d}|s{i:04d}" for i in range(mt19937.BULK_MIN_SEEDS)]
        assert len({_key_words(seed) for seed in seeds}) == 1
        np.testing.assert_array_equal(
            mt19937.first_words(seeds, 8), _reference_words(seeds, 8))

    def test_randoms_match_random_random(self, monkeypatch):
        monkeypatch.setattr(mt19937, "BULK_MIN_SEEDS", 1)
        expected = [random.Random(seed).random() for seed in self.SEEDS]
        assert mt19937.first_randoms(self.SEEDS).tolist() == expected

    def test_count_above_the_untwisted_outputs_raises(self):
        assert mt19937.first_words(["a"], mt19937.MAX_COUNT).shape == (1, 227)
        with pytest.raises(ValueError):
            mt19937.first_words(["a"], 228)


def _mixed_pool(size):
    """Workers cycling through every answer mode Worker.answer_comparison has."""
    profiles = [
        RELIABLE, NOISY, SPAMMER,
        WorkerProfile(name="yes", spammer_mode="always-yes"),
        WorkerProfile(name="no", spammer_mode="always-no"),
    ]
    return WorkerPool([Worker(f"worker-{i}", profiles[i % len(profiles)], seed=i)
                       for i in range(size)])


def _oracle_loop(platform, keys, is_match):
    return [vote for key, match in zip(keys, is_match)
            for vote in platform.pair_votes(key, match)]


_record_ids = st.text(alphabet="abcr0123456789é日|", min_size=1, max_size=8)


class TestVotesFor:
    """``votes_for`` returns the ``pair_votes`` loop's votes, vote for vote."""

    @pytest.mark.parametrize("draws", [SimulatedCrowdPlatform.DRAWS, 3])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        keys=st.lists(st.tuples(_record_ids, _record_ids), max_size=25),
        truth=st.lists(st.booleans(), min_size=25, max_size=25),
        pool_size=st.sampled_from([60, 21, 5, 2]),
        k=st.sampled_from([1, 3, 5, 6]),
        qualified=st.booleans(),
        seed=st.integers(-5, 5),
    )
    def test_equals_pair_votes(self, monkeypatch, draws, keys, truth,
                               pool_size, k, qualified, seed):
        monkeypatch.setattr(mt19937, "BULK_MIN_SEEDS", 1)
        monkeypatch.setattr(SimulatedCrowdPlatform, "DRAWS", draws)
        platform = SimulatedCrowdPlatform(
            pool=_mixed_pool(pool_size), assignments_per_hit=k, seed=seed,
            qualification=QualificationTest() if qualified else None, vote_mode="per-pair",
        )
        is_match = truth[:len(keys)]
        assert platform.votes_for(keys, is_match) == _oracle_loop(platform, keys, is_match)

    @pytest.mark.parametrize("pool_size,k,draws,fallback", [
        (60, 3, 8, "none"),   # random.sample's set branch, settled by 8 words
        (60, 3, 3, "some"),   # 3 words leave a repeat or an out-of-range draw undecided
        (60, 6, 8, "all"),    # k=6 widens sample's set size to 85: the pool branch
        (21, 3, 8, "all"),    # n at sample's set size: the pool branch
        (5, 3, 8, "all"),
        (2, 3, 8, "all"),     # fewer workers than assignments: choice
    ])
    def test_fallback_rules(self, monkeypatch, pool_size, k, draws, fallback):
        asked = []
        pair_votes = SimulatedCrowdPlatform.pair_votes

        def counted(platform, pair_key, is_match):
            asked.append(pair_key)
            return pair_votes(platform, pair_key, is_match)

        monkeypatch.setattr(mt19937, "BULK_MIN_SEEDS", 1)
        monkeypatch.setattr(SimulatedCrowdPlatform, "DRAWS", draws)
        platform = SimulatedCrowdPlatform(
            pool=_mixed_pool(pool_size), assignments_per_hit=k, seed=3, vote_mode="per-pair")
        keys = [(f"r{i}", f"r{i + 1000}") for i in range(300)]
        is_match = [i % 3 == 0 for i in range(300)]
        expected = _oracle_loop(platform, keys, is_match)
        monkeypatch.setattr(SimulatedCrowdPlatform, "pair_votes", counted)
        assert platform.votes_for(keys, is_match) == expected
        assert {"none": not asked, "some": 0 < len(asked) < len(keys),
                "all": asked == keys}[fallback], len(asked)


class TestPerPairPublishPaths:
    """A per-pair publish gives the same result through either evaluator."""

    @staticmethod
    def _publish(qualification):
        pairs = [(f"r{i:03d}", f"r{i + 1:03d}") for i in range(0, 240, 2)]
        hits = [PairBasedHIT(f"h{i}", tuple(pairs[i:i + 10])) for i in range(0, len(pairs), 10)]
        batch = HITBatch(hit_type="pair", hits=hits, candidate_pairs=set(pairs), cluster_size=10)
        platform = SimulatedCrowdPlatform(
            seed=11, vote_mode="per-pair",
            qualification=QualificationTest() if qualification else None)
        return platform.publish(batch, true_matches=pairs[::4]), len(pairs)

    @pytest.mark.parametrize("qualification", [False, True])
    def test_bulk_equals_scalar(self, monkeypatch, qualification):
        bulk_calls = []
        votes_for = SimulatedCrowdPlatform.votes_for

        def recorded(platform, keys, is_match):
            bulk_calls.append(len(keys))
            return votes_for(platform, keys, is_match)

        monkeypatch.setattr(SimulatedCrowdPlatform, "votes_for", recorded)
        monkeypatch.setattr(mt19937, "BULK_MIN_SEEDS", 1)
        bulk, pairs = self._publish(qualification)
        monkeypatch.setattr(mt19937, "BULK_MIN_SEEDS", pairs + 1)
        scalar, _ = self._publish(qualification)
        assert bulk_calls == [pairs]
        assert len(bulk.votes) == 3 * pairs
        assert bulk.votes == scalar.votes
        assert bulk.assignment_seconds == scalar.assignment_seconds
        assert bulk.cost == scalar.cost
        assert bulk == scalar

    @pytest.mark.gate
    def test_a_batch_resolve_takes_the_bulk_path_for_every_pair(self, monkeypatch):
        """Restaurant(6000, 750, seed 7) at 0.35 publishes its 4,742
        candidates at once, and every one takes the bulk path; the
        resolution equals one with the bulk path switched off
        (``BULK_MIN_SEEDS`` above the publish), bit for bit.  The one place
        this count is pinned."""
        dataset = RestaurantGenerator(6000, 750, seed=7).generate()

        def resolve():
            config = WorkflowConfig(likelihood_threshold=0.35, vote_mode="per-pair")
            result = HybridWorkflow(config).resolve(dataset)
            return state_digest(result.posteriors, result.cost, result.hit_count)

        obs.activate()
        try:
            bulk_digest = resolve()
            pairs = obs.snapshot().counter_total("crowd_oracle_pairs_total", path="bulk")
        finally:
            obs.deactivate()
        assert pairs == 4742
        monkeypatch.setattr(mt19937, "BULK_MIN_SEEDS", 10**9)
        assert resolve() == bulk_digest
