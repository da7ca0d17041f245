"""Dawid-Skene EM aggregation of crowd votes.

The paper combines the three assignments of every HIT with "the EM-based
algorithm [9], which has been shown to be effective in previous work"
(Section 7.3).  This is the classic Dawid & Skene (1979) model specialised
to binary labels: each pair has a latent true label (match / non-match) and
every worker has a 2x2 confusion matrix; EM alternates between estimating
the posterior of the true labels and re-estimating worker confusion matrices
and the class prior.  Spammers (random or constant answerers) receive
near-uninformative confusion matrices and therefore stop influencing the
aggregate, which is exactly why the paper prefers EM over vote averaging.

Both EM steps are vectorized: votes live in flat ``(pair index, worker
index, answer)`` numpy arrays and every accumulation is a weighted
``np.bincount`` scatter-add, so iteration cost no longer pays a Python
dict/loop price per vote (the regression test pins the posteriors to the
reference per-vote implementation within float tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

from repro import obs
from repro.aggregation.majority import Vote, majority_vote
from repro.records.pairs import canonical_pair


@dataclass
class DawidSkeneResult:
    """Output of one EM run."""

    posteriors: Dict[Tuple[str, str], float]
    worker_accuracy: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    class_prior: float = 0.5
    iterations: int = 0
    converged: bool = False

    def decisions(self) -> Dict[Tuple[str, str], bool]:
        """Binary decisions: a match posterior strictly above 0.5."""
        return {key: posterior > 0.5 for key, posterior in self.posteriors.items()}


class DawidSkeneAggregator:
    """Binary Dawid-Skene EM with majority-vote initialisation.

    EM runs at most ``MAX_ITERATIONS`` iterations and stops once no pair
    posterior moves by ``TOLERANCE`` or more.  ``SMOOTHING`` is the strength
    (pseudo-count) of the worker prior added to the confusion-matrix counts.
    Besides avoiding degenerate 0/1 probabilities it anchors the model
    against the label-switching symmetry of the two-coin Dawid-Skene model,
    which matters when each worker only has a handful of votes (e.g. a
    single three-assignment HIT batch on a small dataset).
    ``ANCHOR_ACCURACY`` is the prior belief about worker accuracy behind
    those pseudo-counts; it is above 0.5 so that "workers are better than
    chance" breaks the symmetry.  Real vote counts override the prior as
    soon as a worker has more than a few votes.
    """

    name = "dawid-skene"
    #: EM shares the worker confusion matrices and the class prior across
    #: pairs, so one pair's votes move every posterior aggregated with it.
    pair_independent = False
    MAX_ITERATIONS = 100
    TOLERANCE = 1e-6
    SMOOTHING = 4.0
    ANCHOR_ACCURACY = 0.75

    def aggregate(self, votes: Iterable[Vote]) -> Dict[Tuple[str, str], float]:
        """Return the per-pair match posterior (interface shared with majority)."""
        return self.run(votes).posteriors

    def run(self, votes: Iterable[Vote]) -> DawidSkeneResult:
        """Run EM and return posteriors plus per-worker accuracy estimates."""
        votes = [
            (worker_id, canonical_pair(*pair_key), bool(answer))
            for worker_id, pair_key, answer in votes
        ]
        if not votes:
            return DawidSkeneResult(posteriors={}, converged=True)

        pair_keys = sorted({pair_key for _, pair_key, _ in votes})
        worker_ids = sorted({worker_id for worker_id, _, _ in votes})
        pair_index = {key: index for index, key in enumerate(pair_keys)}
        worker_index = {worker: index for index, worker in enumerate(worker_ids)}
        n_pairs, n_workers = len(pair_keys), len(worker_ids)

        # Flat vote arrays: vote v is (pair_positions[v], worker_positions[v],
        # answers[v]).  Both EM steps are scatter-adds over these arrays
        # (np.bincount with weights), so no per-vote Python bytecode runs
        # inside the iteration loop.
        pair_positions = np.fromiter(
            (pair_index[pair_key] for _, pair_key, _ in votes),
            dtype=np.int64,
            count=len(votes),
        )
        worker_positions = np.fromiter(
            (worker_index[worker_id] for worker_id, _, _ in votes),
            dtype=np.int64,
            count=len(votes),
        )
        answers = np.fromiter(
            (answer for _, _, answer in votes), dtype=bool, count=len(votes)
        )
        yes_pairs = pair_positions[answers]
        yes_workers = worker_positions[answers]
        no_pairs = pair_positions[~answers]
        no_workers = worker_positions[~answers]

        # Initialise posteriors with the majority vote (standard DS warm start).
        initial = majority_vote(votes)
        posterior = np.array([initial[key] for key in pair_keys], dtype=float)
        posterior = np.clip(posterior, 1e-6, 1 - 1e-6)

        # Worker confusion parameters: sensitivity = P(vote yes | match),
        # specificity = P(vote no | non-match).
        sensitivity = np.full(n_workers, 0.8)
        specificity = np.full(n_workers, 0.8)
        prior = float(np.mean(posterior))

        iterations = 0
        converged = False
        for iterations in range(1, self.MAX_ITERATIONS + 1):
            # M-step: re-estimate worker parameters and the class prior.
            # Pseudo-counts encode the "better than chance" worker prior.
            p_match = posterior[pair_positions]
            anchor = self.ANCHOR_ACCURACY * self.SMOOTHING
            total_match = self.SMOOTHING + np.bincount(
                worker_positions, weights=p_match, minlength=n_workers
            )
            total_nonmatch = self.SMOOTHING + np.bincount(
                worker_positions, weights=1.0 - p_match, minlength=n_workers
            )
            yes_match = anchor + np.bincount(
                yes_workers, weights=posterior[yes_pairs], minlength=n_workers
            )
            no_nonmatch = anchor + np.bincount(
                no_workers, weights=1.0 - posterior[no_pairs], minlength=n_workers
            )
            sensitivity = yes_match / total_match
            specificity = no_nonmatch / total_nonmatch
            prior = float(np.clip(np.mean(posterior), 1e-6, 1 - 1e-6))

            # E-step: recompute pair posteriors.  Each vote contributes one
            # log-likelihood term per hypothesis; summing them per pair is a
            # weighted bincount over the pair indices.
            log_match = np.full(n_pairs, np.log(prior))
            log_nonmatch = np.full(n_pairs, np.log(1 - prior))
            log_match += np.bincount(
                yes_pairs, weights=np.log(sensitivity)[yes_workers], minlength=n_pairs
            )
            log_nonmatch += np.bincount(
                yes_pairs, weights=np.log(1 - specificity)[yes_workers], minlength=n_pairs
            )
            log_match += np.bincount(
                no_pairs, weights=np.log(1 - sensitivity)[no_workers], minlength=n_pairs
            )
            log_nonmatch += np.bincount(
                no_pairs, weights=np.log(specificity)[no_workers], minlength=n_pairs
            )
            maximum = np.maximum(log_match, log_nonmatch)
            numerator = np.exp(log_match - maximum)
            new_posterior = numerator / (numerator + np.exp(log_nonmatch - maximum))

            change = float(np.max(np.abs(new_posterior - posterior)))
            posterior = new_posterior
            if change < self.TOLERANCE:
                converged = True
                break

        if obs.enabled():
            obs.inc("aggregation_runs_total", 1, aggregator=self.name,
                    help="Aggregator invocations.")
            obs.inc("dawid_skene_em_iterations_total", iterations,
                    help="Cumulative EM iterations across runs.")
            obs.set_gauge("dawid_skene_last_iterations", iterations,
                          help="EM iterations of the most recent run.")
            obs.set_gauge("dawid_skene_last_convergence_delta", change,
                          help="Final max-abs posterior change of the last run.")
            obs.set_gauge("dawid_skene_last_converged", 1.0 if converged else 0.0,
                          help="Whether the last EM run converged (1) or hit max_iterations (0).")

        worker_accuracy = {
            worker: (float(sensitivity[worker_index[worker]]), float(specificity[worker_index[worker]]))
            for worker in worker_ids
        }
        posteriors = {key: float(posterior[pair_index[key]]) for key in pair_keys}
        return DawidSkeneResult(
            posteriors=posteriors,
            worker_accuracy=worker_accuracy,
            class_prior=prior,
            iterations=iterations,
            converged=converged,
        )
