"""The hybrid human-machine entity-resolution workflow (Figure 1).

``HybridWorkflow.resolve`` runs the full pipeline on a dataset:

1. **Machine pass** — the likelihood estimator scores candidate pairs and
   pairs below the likelihood threshold are pruned.
2. **HIT generation** — the surviving pairs are grouped into pair-based or
   cluster-based HITs.
3. **Crowdsourcing** — the (simulated) platform replicates every HIT into
   assignments and collects per-pair votes.
4. **Aggregation** — votes are combined (Dawid-Skene EM by default) into a
   match posterior per pair, producing the ranked list and the final match
   set.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Tuple

from repro import obs
from repro.aggregation.dawid_skene import DawidSkeneAggregator
from repro.aggregation.majority import MajorityAggregator
from repro.core.config import WorkflowConfig
from repro.core.ranking import rank_candidates
from repro.core.results import ResolutionResult
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.crowd.qualification import QualificationTest
from repro.crowd.worker import WorkerPool
from repro.datasets.base import Dataset
from repro.hit.pair_generation import PairHITGenerator
from repro.hit.two_tiered import TwoTieredClusterGenerator
from repro.records.pairs import PairSet
from repro.simjoin.likelihood import SimJoinLikelihood

PairKey = Tuple[str, str]

logger = logging.getLogger(__name__)


def build_hit_generator(config: WorkflowConfig):
    """Instantiate the HIT generator the config asks for.

    Shared by the batch workflow and the streaming resolver so both batch
    pairs into HITs identically.
    """
    if config.hit_type == "pair":
        return PairHITGenerator(pairs_per_hit=config.pairs_per_hit)
    return TwoTieredClusterGenerator(cluster_size=config.cluster_size)


def build_aggregator(config: WorkflowConfig):
    """Instantiate the vote aggregator the config asks for."""
    if config.aggregation == "majority":
        return MajorityAggregator()
    return DawidSkeneAggregator()


def build_platform(
    config: WorkflowConfig, worker_pool: Optional[WorkerPool] = None
) -> SimulatedCrowdPlatform:
    """The crowd platform the config asks for."""
    return SimulatedCrowdPlatform(
        pool=worker_pool or WorkerPool.build(seed=config.seed),
        assignments_per_hit=config.assignments_per_hit,
        qualification=QualificationTest() if config.use_qualification_test else None,
        seed=config.seed,
        vote_mode=config.vote_mode,
    )


class HybridWorkflow:
    """The CrowdER hybrid workflow over a simulated crowd.

    Parameters
    ----------
    config:
        The workflow configuration (thresholds, HIT type, aggregation, ...).
    worker_pool:
        The simulated crowd's workers; defaults to the pool the config's
        seed builds.

    The machine likelihood estimator is the paper's simjoin, and the crowd
    a simulated platform built from the config.
    """

    def __init__(
        self,
        config: Optional[WorkflowConfig] = None,
        worker_pool: Optional[WorkerPool] = None,
    ) -> None:
        self.config = config or WorkflowConfig()
        self.estimator = SimJoinLikelihood(
            attributes=self.config.similarity_attributes,
            backend=self.config.join_backend,
            workers=self.config.join_workers or None,
        )
        self.platform = build_platform(self.config, worker_pool)

    # -------------------------------------------------------------- stages
    def machine_candidates(self, dataset: Dataset) -> PairSet:
        """Stage 1: machine likelihoods plus threshold pruning."""
        return self.estimator.estimate(
            dataset.store,
            min_likelihood=self.config.likelihood_threshold,
            cross_sources=dataset.cross_sources,
        )

    def generate_hits(self, candidates: PairSet):
        """Stage 2: batch the surviving pairs into HITs."""
        with obs.span("workflow.hit_generation", pairs=len(candidates)):
            return build_hit_generator(self.config).generate(candidates)

    def _aggregator(self):
        return build_aggregator(self.config)

    # ----------------------------------------------------------------- run
    def resolve(self, dataset: Dataset) -> ResolutionResult:
        """Run the full workflow on a dataset and return the result."""
        logger.debug(
            "resolving dataset with %d records (threshold %.2f, %s HITs)",
            len(dataset.store), self.config.likelihood_threshold, self.config.hit_type,
        )
        with obs.span("workflow.resolve", records=len(dataset.store)):
            with obs.span("workflow.machine_pass"):
                candidates = self.machine_candidates(dataset)
            batch = self.generate_hits(candidates)
            with obs.span("workflow.crowd", hits=batch.hit_count):
                crowd_run = self.platform.publish(
                    batch, true_matches=dataset.ground_truth
                )
            with obs.span(
                "workflow.aggregate",
                aggregator=self.config.aggregation,
                votes=len(crowd_run.votes),
            ):
                posteriors = self._aggregator().aggregate(crowd_run.votes)

        likelihoods: Dict[PairKey, float] = {
            pair.key: pair.likelihood or 0.0 for pair in candidates
        }
        # Pairs the crowd never voted on (possible when a cluster HIT omits a
        # candidate pair that another HIT was supposed to cover) fall back to
        # the machine likelihood: below every crowd-confirmed match, above
        # every crowd-rejected pair.
        ranked, matches = rank_candidates(likelihoods, posteriors)

        recall_ceiling = None
        if dataset.ground_truth:
            surviving = candidates.intersection_keys(dataset.ground_truth)
            recall_ceiling = len(surviving) / len(dataset.ground_truth)

        return ResolutionResult(
            ranked_pairs=ranked,
            matches=matches,
            posteriors=dict(posteriors),
            likelihoods=likelihoods,
            candidate_count=len(candidates),
            hit_count=batch.hit_count,
            assignment_count=crowd_run.assignment_count,
            cost=crowd_run.cost,
            latency=crowd_run.latency,
            recall_ceiling=recall_ceiling,
            generator_name=batch.generator_name,
        )
