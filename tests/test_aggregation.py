"""Tests for majority-vote and Dawid-Skene aggregation."""

import math
import random

import numpy as np
import pytest

from repro.aggregation.dawid_skene import DawidSkeneAggregator
from repro.aggregation.majority import MajorityAggregator, majority_vote
from repro.records.pairs import canonical_pair


def make_votes(truth, workers, rng):
    """Simulate votes: each worker is (id, accuracy) and votes on every pair."""
    votes = []
    for pair_key, is_match in truth.items():
        for worker_id, accuracy in workers:
            answer = is_match if rng.random() < accuracy else not is_match
            votes.append((worker_id, pair_key, answer))
    return votes


class TestMajority:
    def test_majority_vote_fractions(self):
        votes = [
            ("w1", ("a", "b"), True),
            ("w2", ("a", "b"), True),
            ("w3", ("a", "b"), False),
            ("w1", ("c", "d"), False),
        ]
        fractions = majority_vote(votes)
        assert fractions[("a", "b")] == pytest.approx(2 / 3)
        assert fractions[("c", "d")] == 0.0

    def test_majority_decisions_tie_is_non_match(self):
        votes = [("w1", ("a", "b"), True), ("w2", ("a", "b"), False)]
        decisions = MajorityAggregator().decisions(votes)
        assert decisions[("a", "b")] is False

    def test_pair_keys_canonicalised(self):
        votes = [("w1", ("b", "a"), True), ("w2", ("a", "b"), True)]
        fractions = majority_vote(votes)
        assert fractions == {("a", "b"): 1.0}


class TestDawidSkene:
    def test_empty_votes(self):
        result = DawidSkeneAggregator().run([])
        assert result.posteriors == {}
        assert result.converged

    def test_unanimous_votes(self):
        votes = [(f"w{i}", ("a", "b"), True) for i in range(3)]
        votes += [(f"w{i}", ("c", "d"), False) for i in range(3)]
        posteriors = DawidSkeneAggregator().aggregate(votes)
        assert posteriors[("a", "b")] > 0.9
        assert posteriors[("c", "d")] < 0.1

    def test_recovers_truth_with_reliable_majority(self):
        rng = random.Random(0)
        truth = {(f"p{i}", f"q{i}"): (i % 3 == 0) for i in range(60)}
        workers = [("good1", 0.95), ("good2", 0.9), ("good3", 0.92)]
        votes = make_votes(truth, workers, rng)
        decisions = DawidSkeneAggregator().run(votes).decisions()
        accuracy = sum(decisions[key] == truth[key] for key in truth) / len(truth)
        assert accuracy >= 0.95

    def test_downweights_spammers_better_than_majority(self):
        """With 1 good worker and 2 random spammers, EM beats plain majority.

        This is exactly the Section-7.3 motivation for using the EM-based
        algorithm instead of vote averaging: random spammers dilute the
        majority, while EM learns that their votes carry no information.
        """
        rng = random.Random(1)
        truth = {(f"p{i}", f"q{i}"): (i % 2 == 0) for i in range(120)}
        votes = []
        for pair_key, is_match in truth.items():
            votes.append(("good1", pair_key, is_match if rng.random() < 0.95 else not is_match))
            votes.append(("good2", pair_key, is_match if rng.random() < 0.9 else not is_match))
            votes.append(("spam", pair_key, rng.random() < 0.5))
        ds_decisions = DawidSkeneAggregator().run(votes).decisions()
        mv_decisions = MajorityAggregator().decisions(votes)
        ds_accuracy = sum(ds_decisions[key] == truth[key] for key in truth) / len(truth)
        mv_accuracy = sum(mv_decisions[key] == truth[key] for key in truth) / len(truth)
        assert ds_accuracy >= mv_accuracy
        assert ds_accuracy >= 0.85

    def test_worker_accuracy_estimates(self):
        rng = random.Random(2)
        truth = {(f"p{i}", f"q{i}"): (i % 2 == 0) for i in range(100)}
        workers = [("reliable", 0.97), ("noisy", 0.6), ("other", 0.92)]
        votes = make_votes(truth, workers, rng)
        result = DawidSkeneAggregator().run(votes)
        reliable_sens, reliable_spec = result.worker_accuracy["reliable"]
        noisy_sens, noisy_spec = result.worker_accuracy["noisy"]
        assert reliable_sens > noisy_sens
        assert reliable_spec > noisy_spec

    def test_posteriors_in_unit_interval(self):
        rng = random.Random(3)
        truth = {(f"p{i}", f"q{i}"): (i % 4 == 0) for i in range(40)}
        votes = make_votes(truth, [("a", 0.8), ("b", 0.7), ("c", 0.55)], rng)
        posteriors = DawidSkeneAggregator().aggregate(votes)
        assert all(0.0 <= value <= 1.0 for value in posteriors.values())

    def test_convergence_flag(self):
        votes = [(f"w{i}", ("a", "b"), True) for i in range(3)]
        result = DawidSkeneAggregator().run(votes)
        assert result.converged
        assert result.iterations <= 100


def _reference_em(votes, max_iterations=100, tolerance=1e-6, smoothing=4.0,
                  anchor_accuracy=0.75):
    """The pre-vectorization per-vote EM loop, kept verbatim as the oracle
    the numpy scatter-add implementation is regression-tested against."""
    votes = [
        (worker_id, canonical_pair(*pair_key), bool(answer))
        for worker_id, pair_key, answer in votes
    ]
    pair_keys = sorted({pair_key for _, pair_key, _ in votes})
    worker_ids = sorted({worker_id for worker_id, _, _ in votes})
    pair_index = {key: index for index, key in enumerate(pair_keys)}
    worker_index = {worker: index for index, worker in enumerate(worker_ids)}
    n_pairs, n_workers = len(pair_keys), len(worker_ids)
    votes_by_pair = [[] for _ in range(n_pairs)]
    for worker_id, pair_key, answer in votes:
        votes_by_pair[pair_index[pair_key]].append((worker_index[worker_id], answer))
    initial = majority_vote(votes)
    posterior = np.clip(
        np.array([initial[key] for key in pair_keys], dtype=float), 1e-6, 1 - 1e-6
    )
    sensitivity = np.full(n_workers, 0.8)
    specificity = np.full(n_workers, 0.8)
    iterations, converged = 0, False
    for iterations in range(1, max_iterations + 1):
        yes_match = np.full(n_workers, anchor_accuracy * smoothing)
        total_match = np.full(n_workers, smoothing)
        no_nonmatch = np.full(n_workers, anchor_accuracy * smoothing)
        total_nonmatch = np.full(n_workers, smoothing)
        for pair_position, pair_votes in enumerate(votes_by_pair):
            p_match = posterior[pair_position]
            for worker_position, answer in pair_votes:
                total_match[worker_position] += p_match
                total_nonmatch[worker_position] += 1 - p_match
                if answer:
                    yes_match[worker_position] += p_match
                else:
                    no_nonmatch[worker_position] += 1 - p_match
        sensitivity = yes_match / total_match
        specificity = no_nonmatch / total_nonmatch
        prior = float(np.clip(np.mean(posterior), 1e-6, 1 - 1e-6))
        new_posterior = np.empty_like(posterior)
        for pair_position, pair_votes in enumerate(votes_by_pair):
            log_match = math.log(prior)
            log_nonmatch = math.log(1 - prior)
            for worker_position, answer in pair_votes:
                if answer:
                    log_match += math.log(sensitivity[worker_position])
                    log_nonmatch += math.log(1 - specificity[worker_position])
                else:
                    log_match += math.log(1 - sensitivity[worker_position])
                    log_nonmatch += math.log(specificity[worker_position])
            maximum = max(log_match, log_nonmatch)
            numerator = math.exp(log_match - maximum)
            new_posterior[pair_position] = numerator / (
                numerator + math.exp(log_nonmatch - maximum)
            )
        change = float(np.max(np.abs(new_posterior - posterior)))
        posterior = new_posterior
        if change < tolerance:
            converged = True
            break
    return (
        {key: float(posterior[pair_index[key]]) for key in pair_keys},
        {
            worker: (
                float(sensitivity[worker_index[worker]]),
                float(specificity[worker_index[worker]]),
            )
            for worker in worker_ids
        },
        iterations,
        converged,
    )


class TestDawidSkeneVectorizationRegression:
    """The numpy scatter-add EM must reproduce the per-vote loop exactly."""

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_matches_reference_loop_on_random_votes(self, seed):
        rng = random.Random(seed)
        truth = {(f"p{i}", f"q{i}"): (i % 3 == 0) for i in range(rng.randint(5, 50))}
        workers = [(f"w{j}", rng.uniform(0.5, 0.99)) for j in range(rng.randint(1, 8))]
        votes = []
        for pair_key, is_match in truth.items():
            for worker_id, accuracy in workers:
                if rng.random() < 0.2:
                    continue  # sparse vote matrix: not everyone votes on everything
                answer = is_match if rng.random() < accuracy else not is_match
                votes.append((worker_id, pair_key, answer))
        if not votes:
            return
        result = DawidSkeneAggregator().run(votes)
        posteriors, accuracy, iterations, converged = _reference_em(votes)
        assert result.iterations == iterations
        assert result.converged == converged
        assert set(result.posteriors) == set(posteriors)
        for key, expected in posteriors.items():
            assert result.posteriors[key] == pytest.approx(expected, abs=1e-9)
        for worker, (sens, spec) in accuracy.items():
            got_sens, got_spec = result.worker_accuracy[worker]
            assert got_sens == pytest.approx(sens, abs=1e-9)
            assert got_spec == pytest.approx(spec, abs=1e-9)

    def test_single_vote(self):
        result = DawidSkeneAggregator().run([("w1", ("a", "b"), True)])
        posteriors, _, _, _ = _reference_em([("w1", ("a", "b"), True)])
        assert result.posteriors[("a", "b")] == pytest.approx(
            posteriors[("a", "b")], abs=1e-12
        )
