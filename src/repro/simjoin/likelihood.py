"""Likelihood estimation: the machine pass of the hybrid workflow.

A :class:`LikelihoodEstimator` turns a record store into a scored
:class:`~repro.records.pairs.PairSet`.  :class:`SimJoinLikelihood` is the
estimator the paper evaluates ("simjoin"): Jaccard similarity over pooled
token sets.  ``"auto"`` computes it with the join kernel
(:class:`repro.simjoin.parallel.VectorizedSimJoin`); ``"naive"`` is the
all-pairs scan kept as the oracle the kernel is tested against.  Both
return the identical pair set in the identical order: most likely first,
ties by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.records.pairs import PairSet
from repro.records.record import RecordStore
from repro.similarity.record_similarity import JaccardRecordSimilarity, RecordSimilarity
from repro.simjoin.allpairs import all_pairs_similarity
from repro.simjoin.parallel import VectorizedSimJoin

#: The accepted ``join_backend`` values: the kernel and the test oracle.
JOIN_BACKENDS = ("auto", "naive")


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
        ``"auto"`` (the kernel) or ``"naive"`` (the all-pairs oracle).  Both
        produce exactly the same pair set; the choice only affects speed.
    workers:
        Threads the kernel's row blocks are scored on (a store of a single
        block is scored inline).  ``None`` = one per CPU core; any value
        returns bit-identical pairs.
    """

    attributes: Optional[Sequence[str]] = None
    backend: str = "auto"
    workers: Optional[int] = None
    name: str = "simjoin"

    def __post_init__(self) -> None:
        if self.backend not in JOIN_BACKENDS:
            raise ValueError(f"join backend must be one of {JOIN_BACKENDS}")

    def estimate(
        self,
        store: RecordStore,
        min_likelihood: float = 0.0,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        naive = self.backend == "naive"
        engine = "naive" if naive else "vectorized"
        with obs.span("simjoin.estimate", backend=engine, records=len(store)):
            if naive:
                # The oracle discovers pairs in its own order, and PairSet
                # insertion order feeds downstream tie-breaking (cluster-HIT
                # grouping of equal-likelihood pairs): sort it into the
                # kernel's canonical order so results are backend-independent.
                pairs = PairSet(sorted(
                    all_pairs_similarity(
                        store,
                        similarity=JaccardRecordSimilarity(self.attributes),
                        min_likelihood=min_likelihood,
                        cross_sources=cross_sources,
                    ),
                    key=lambda pair: (-(pair.likelihood or 0.0), pair.key),
                ))
            else:
                pairs = VectorizedSimJoin(
                    threshold=min_likelihood,
                    attributes=self.attributes,
                    workers=self.workers,
                ).join(store, cross_sources=cross_sources)
        if obs.enabled():
            obs.inc("simjoin_candidates_total", len(pairs), backend=engine,
                    help="Candidate pairs at or above the likelihood threshold.")
        return pairs


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
