"""Integration tests: the hybrid workflow, machine-only baselines, CrowdSQL."""

import pytest

from repro.core.baselines import SimJoinRanker, SVMRanker, human_only_hit_count
from repro.core.config import WorkflowConfig
from repro.core.crowdsql import crowd_equijoin
from repro.core.workflow import HybridWorkflow
from repro.crowd.platform import CrowdRunResult
from repro.crowd.worker import WorkerPool, Worker, WorkerProfile
from repro.datasets.base import Dataset
from repro.datasets.paper_example import paper_example_matches, paper_example_store
from repro.evaluation.metrics import precision_recall
from repro.hit.generator import available_generators
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record, RecordStore


@pytest.fixture(scope="module")
def example_dataset():
    return Dataset(
        name="paper-example",
        store=paper_example_store(),
        ground_truth=paper_example_matches(),
    )


def perfect_pool(size=9):
    """A pool of perfectly accurate workers for deterministic integration tests."""
    profile = WorkerProfile(name="perfect", accuracy=1.0)
    return WorkerPool([Worker(f"p{i}", profile, seed=i) for i in range(size)])


class TestWorkflowConfig:
    def test_defaults_valid(self):
        config = WorkflowConfig()
        assert config.hit_type == "cluster"
        assert config.cluster_generator == "two-tiered"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"likelihood_threshold": 1.5},
            {"hit_type": "triples"},
            {"cluster_size": 1},
            {"pairs_per_hit": 0},
            {"assignments_per_hit": 0},
            {"aggregation": "magic"},
            {"vote_timeout": 0},
            {"join_backend": "quantum"},
            {"join_workers": -2},
            {"storage_backend": "postgres"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkflowConfig(**kwargs)

    def test_unknown_cluster_generator_rejected_at_construction(self):
        """Not at the first HIT generation, after a batch was ingested."""
        with pytest.raises(ValueError, match="approximation.*two-tiered.*'nope'"):
            WorkflowConfig(cluster_generator="nope")
        for name in available_generators():
            assert WorkflowConfig(cluster_generator=name).cluster_generator == name

    @pytest.mark.parametrize("attributes", ("name", ["name", 3], 7, {"name": 1}))
    def test_similarity_attributes_must_be_a_list_of_names(self, attributes):
        """A bare string would be read one character at a time."""
        with pytest.raises(ValueError, match="similarity_attributes"):
            WorkflowConfig(similarity_attributes=attributes)

    def test_similarity_attributes_accepts_none_and_sequences(self):
        for attributes in (None, [], ["name"], ("name", "city")):
            assert WorkflowConfig(similarity_attributes=attributes).similarity_attributes == attributes


class TestHybridWorkflowOnPaperExample:
    def test_end_to_end_reproduces_figure_2(self, example_dataset):
        """With perfect workers the workflow returns exactly the four matches."""
        config = WorkflowConfig(
            likelihood_threshold=0.3,
            cluster_size=4,
            similarity_attributes=["product_name"],
            seed=0,
        )
        workflow = HybridWorkflow(config, worker_pool=perfect_pool())
        result = workflow.resolve(example_dataset)
        assert result.candidate_count == 10
        assert result.hit_count == 3
        assert sorted(result.matches) == sorted(example_dataset.ground_truth)
        assert result.cost == pytest.approx(3 * 3 * 0.025)

    def test_pair_based_workflow(self, example_dataset):
        config = WorkflowConfig(
            likelihood_threshold=0.3,
            hit_type="pair",
            pairs_per_hit=2,
            similarity_attributes=["product_name"],
        )
        workflow = HybridWorkflow(config, worker_pool=perfect_pool())
        result = workflow.resolve(example_dataset)
        assert result.hit_count == 5
        assert sorted(result.matches) == sorted(example_dataset.ground_truth)

    def test_majority_aggregation(self, example_dataset):
        config = WorkflowConfig(
            likelihood_threshold=0.3,
            cluster_size=4,
            similarity_attributes=["product_name"],
            aggregation="majority",
        )
        workflow = HybridWorkflow(config, worker_pool=perfect_pool())
        result = workflow.resolve(example_dataset)
        assert sorted(result.matches) == sorted(example_dataset.ground_truth)

    def test_recall_ceiling_reflects_pruning(self, example_dataset):
        config = WorkflowConfig(
            likelihood_threshold=0.5,
            cluster_size=4,
            similarity_attributes=["product_name"],
        )
        workflow = HybridWorkflow(config, worker_pool=perfect_pool())
        result = workflow.resolve(example_dataset)
        # Threshold 0.5 keeps only (r1, r2): recall ceiling 1/4.
        assert result.recall_ceiling == pytest.approx(0.25)

    def test_ranked_pairs_cover_all_candidates(self, example_dataset):
        config = WorkflowConfig(
            likelihood_threshold=0.3, cluster_size=4, similarity_attributes=["product_name"]
        )
        workflow = HybridWorkflow(config, worker_pool=perfect_pool())
        result = workflow.resolve(example_dataset)
        assert len(result.ranked_pairs) == result.candidate_count
        assert set(result.ranked_pairs) == set(result.likelihoods)

    def test_summary_keys(self, example_dataset):
        config = WorkflowConfig(likelihood_threshold=0.3, similarity_attributes=["product_name"])
        result = HybridWorkflow(config, worker_pool=perfect_pool()).resolve(example_dataset)
        summary = result.summary()
        assert {"candidates", "hits", "cost_dollars", "matches"} <= set(summary)


class TestHybridWorkflowOnSyntheticData:
    def test_restaurant_quality(self, small_restaurant):
        config = WorkflowConfig(likelihood_threshold=0.3, cluster_size=6, seed=3)
        workflow = HybridWorkflow(config)
        result = workflow.resolve(small_restaurant)
        precision, recall = precision_recall(result.matches, small_restaurant.ground_truth)
        assert precision > 0.8
        assert recall > 0.6
        assert result.hit_count < result.candidate_count

    def test_qualification_test_changes_latency(self, small_restaurant):
        base = HybridWorkflow(
            WorkflowConfig(likelihood_threshold=0.3, cluster_size=6, seed=3)
        ).resolve(small_restaurant)
        qt = HybridWorkflow(
            WorkflowConfig(
                likelihood_threshold=0.3, cluster_size=6, seed=3, use_qualification_test=True
            )
        ).resolve(small_restaurant)
        assert qt.latency.total_minutes > base.latency.total_minutes

    def test_product_cross_source_candidates(self, small_product):
        config = WorkflowConfig(likelihood_threshold=0.3, cluster_size=6, seed=1)
        workflow = HybridWorkflow(config, worker_pool=perfect_pool())
        result = workflow.resolve(small_product)
        assert result.candidate_count > 0
        precision, _recall = precision_recall(result.matches, small_product.ground_truth)
        assert precision > 0.9


class _FixedCandidateEstimator:
    """Estimator stub returning a hand-built candidate pair set."""

    name = "fixed"

    def __init__(self, pairs):
        self._pairs = pairs

    def estimate(self, store, min_likelihood=0.0, cross_sources=None):
        return PairSet(self._pairs)


class _OmittingPlatform:
    """Platform stub whose crowd votes omit one of the candidate pairs.

    This is the cluster-HIT failure mode the ranking fallback exists for: a
    candidate pair that no published HIT ended up covering produces no
    votes, so aggregation yields no posterior for it.
    """

    def __init__(self, confirmed, rejected):
        self.confirmed = confirmed
        self.rejected = rejected

    def publish(self, batch, true_matches, candidate_pairs=None):
        votes = [(f"w{i}", self.confirmed, True) for i in range(3)]
        votes += [(f"w{i}", self.rejected, False) for i in range(3)]
        return CrowdRunResult(
            votes=votes,
            hit_count=batch.hit_count,
            assignment_seconds=[30.0] * 6,
        )


class TestRankingFallback:
    """Regression: a cluster HIT omits a high-likelihood candidate pair.

    Unvoted pairs must rank by machine likelihood *below* crowd-confirmed
    matches but *above* crowd-rejected pairs — a crowd rejection (posterior
    ~0) is strictly stronger evidence against a match than the machine's
    0.95 likelihood is for one.
    """

    def _dataset(self):
        store = RecordStore()
        for i in range(1, 5):
            store.add(Record(f"r{i}", {"name": f"record {i}"}))
        return Dataset(name="tiny", store=store, ground_truth=frozenset())

    def _resolve(self):
        candidates = [
            RecordPair("r1", "r2", likelihood=0.60),  # crowd-confirmed
            RecordPair("r2", "r3", likelihood=0.95),  # omitted by the HITs
            RecordPair("r3", "r4", likelihood=0.40),  # crowd-rejected
        ]
        workflow = HybridWorkflow(
            WorkflowConfig(likelihood_threshold=0.2),
            estimator=_FixedCandidateEstimator(candidates),
            platform=_OmittingPlatform(confirmed=("r1", "r2"), rejected=("r3", "r4")),
        )
        return workflow.resolve(self._dataset())

    def test_unvoted_pair_ranks_between_confirmed_and_rejected(self):
        result = self._resolve()
        assert ("r2", "r3") not in result.posteriors
        assert result.ranked_pairs == [("r1", "r2"), ("r2", "r3"), ("r3", "r4")]

    def test_unvoted_pair_is_not_a_match(self):
        result = self._resolve()
        assert result.matches == [("r1", "r2")]


class TestBaselines:
    def test_simjoin_ranker_orders_by_likelihood(self, small_restaurant):
        ranked = SimJoinRanker(min_likelihood=0.2).rank(small_restaurant)
        assert len(ranked) > 0
        # The top-ranked pairs should be dominated by true matches.
        top = ranked[: max(5, len(small_restaurant.ground_truth) // 2)]
        hits = sum(1 for key in top if key in small_restaurant.ground_truth)
        assert hits / len(top) > 0.6

    def test_svm_ranker_runs(self, small_restaurant):
        ranked = SVMRanker(min_likelihood=0.2, training_size=80, repetitions=1).rank(small_restaurant)
        assert len(ranked) > 0

    def test_human_only_hit_counts_match_introduction(self):
        # 10,000 records with k=20: ~5,000,000 pair-based and 250,000 cluster-based HITs.
        assert human_only_hit_count(10_000, 10) == pytest.approx(5_000_000, rel=0.01)
        assert human_only_hit_count(10_000, 20, cluster_based=True) == pytest.approx(125_000, rel=0.01)
        with pytest.raises(ValueError):
            human_only_hit_count(1, 10)


class TestCrowdSQL:
    def test_crowd_equijoin_on_paper_example(self):
        store = paper_example_store()
        matches = crowd_equijoin(
            store,
            attribute="product_name",
            ground_truth=paper_example_matches(),
            likelihood_threshold=0.3,
            cluster_size=4,
            seed=1,
        )
        assert ("r1", "r2") in matches
        assert all(id_a < id_b for id_a, id_b in matches)
        # The simulated crowd is imperfect, but most returned pairs are real.
        correct = len(set(matches) & paper_example_matches())
        assert correct >= len(matches) - 1
