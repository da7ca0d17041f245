"""Likelihood estimation: the machine pass of the hybrid workflow.

A :class:`LikelihoodEstimator` turns a record store into a scored
:class:`~repro.records.pairs.PairSet`.  :class:`SimJoinLikelihood` is the
estimator the paper evaluates ("simjoin"): Jaccard similarity over pooled
token sets, computed by one of the interchangeable join backends of
:mod:`repro.simjoin.backend` (naive all-pairs scan, prefix-filtering join,
or blocked sparse-matrix join), all of which return identical pair sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.records.pairs import PairSet
from repro.records.record import RecordStore
from repro.similarity.record_similarity import RecordSimilarity
from repro.simjoin.allpairs import all_pairs_similarity
from repro.simjoin.backend import AUTO_BACKEND, resolve_backend


class LikelihoodEstimator:
    """Interface: estimate match likelihoods for candidate pairs."""

    name = "likelihood"

    def estimate(
        self,
        store: RecordStore,
        min_likelihood: float = 0.0,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        """Return scored pairs with likelihood >= ``min_likelihood``."""
        raise NotImplementedError


@dataclass
class SimJoinLikelihood(LikelihoodEstimator):
    """The paper's simjoin likelihood: Jaccard over pooled record tokens.

    Parameters
    ----------
    attributes:
        Attributes pooled into the token set (``None`` = all attributes).
    backend:
        Join backend name (see :func:`repro.simjoin.backend.available_backends`)
        or ``"auto"`` to pick one from the store size and threshold.  Every
        backend produces exactly the same pair set; the choice only affects
        speed.
    workers:
        Worker-process count for the sharded ``parallel`` backend (and the
        auto heuristic that may select it).  ``None`` = one per CPU core;
        irrelevant to the serial backends.
    """

    attributes: Optional[Sequence[str]] = None
    backend: str = AUTO_BACKEND
    workers: Optional[int] = None
    name: str = "simjoin"

    def estimate(
        self,
        store: RecordStore,
        min_likelihood: float = 0.0,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        engine = resolve_backend(
            self.backend,
            record_count=len(store),
            threshold=min_likelihood,
            workers=self.workers,
        )
        resolved = type(engine).__name__
        with obs.span("simjoin.estimate", backend=resolved, records=len(store)):
            pairs = engine.join(
                store,
                min_likelihood,
                attributes=self.attributes,
                cross_sources=cross_sources,
            )
        if obs.enabled():
            obs.inc("simjoin_candidates_total", len(pairs), backend=resolved,
                    help="Candidate pairs at or above the likelihood threshold.")
        # The engines discover identical pairs in different orders, and
        # PairSet insertion order feeds downstream tie-breaking (cluster-HIT
        # grouping of equal-likelihood pairs).  Canonicalize so resolution
        # results are backend-independent.
        return PairSet(
            sorted(pairs, key=lambda pair: (-(pair.likelihood or 0.0), pair.key))
        )


@dataclass
class CustomLikelihood(LikelihoodEstimator):
    """Adapter running any :class:`RecordSimilarity` as a likelihood estimator."""

    similarity: RecordSimilarity = None  # type: ignore[assignment]
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.similarity is None:
            raise ValueError("a RecordSimilarity instance is required")

    def estimate(
        self,
        store: RecordStore,
        min_likelihood: float = 0.0,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        return all_pairs_similarity(
            store,
            similarity=self.similarity,
            min_likelihood=min_likelihood,
            cross_sources=cross_sources,
        )
