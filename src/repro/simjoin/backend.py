"""Pluggable similarity-join backends for the machine pass.

The hybrid workflow's machine pass is a set-similarity self (or cross) join
at a likelihood threshold.  Four interchangeable engines implement it:

* ``naive`` — the reference O(n^2) all-pairs scan
  (:func:`repro.simjoin.allpairs.all_pairs_similarity`);
* ``prefix`` — the prefix-filtering join with length and positional filters
  (:class:`repro.simjoin.prefix_filter.PrefixFilterJoin`), exact for any
  positive threshold;
* ``vectorized`` — blocked sparse-matrix intersection counting
  (:class:`repro.simjoin.vectorized.VectorizedSimJoin`), the fastest
  single-core option on stores beyond a few hundred records;
* ``parallel`` — the same blocked products sharded across a process pool
  (:class:`repro.simjoin.parallel.ParallelSimJoin`), the fastest option on
  large stores with more than one core.

All engines return identical pair sets for the same store and threshold
(the property tests assert ids and likelihoods agree), so callers select
purely on performance.  ``resolve_backend`` implements the ``"auto"``
heuristic used by :class:`~repro.simjoin.likelihood.SimJoinLikelihood`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.records.pairs import PairSet
from repro.records.record import RecordStore
from repro.similarity.record_similarity import JaccardRecordSimilarity
from repro.simjoin.allpairs import all_pairs_similarity
from repro.simjoin.parallel import ParallelSimJoin, resolve_worker_count
from repro.simjoin.prefix_filter import PrefixFilterJoin
from repro.simjoin.vectorized import HAVE_SCIPY, VectorizedSimJoin

AUTO_BACKEND = "auto"

#: Store size at which the sparse-matrix join starts beating the
#: prefix-filter join (CSR construction has a fixed cost that dominates on
#: tiny stores; past a few hundred records the matmul wins decisively).
AUTO_VECTORIZED_MIN_RECORDS = 256

#: Store size at which sharding the blocked products across the process
#: pool wins back publishing the index and dispatching the shards.  Below it
#: the serial vectorized engine is faster even with many idle cores.
AUTO_PARALLEL_MIN_RECORDS = 4096


class SimJoinBackend:
    """Interface: an exact set-similarity join engine."""

    name = "backend"

    def join(
        self,
        store: RecordStore,
        threshold: float,
        attributes: Optional[Sequence[str]] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        """Return all pairs with Jaccard similarity >= ``threshold``."""
        raise NotImplementedError


class NaiveJoinBackend(SimJoinBackend):
    """Reference all-pairs scan; correct at any threshold, O(n^2) pairs."""

    name = "naive"

    def join(
        self,
        store: RecordStore,
        threshold: float,
        attributes: Optional[Sequence[str]] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        return all_pairs_similarity(
            store,
            similarity=JaccardRecordSimilarity(attributes),
            min_likelihood=threshold,
            cross_sources=cross_sources,
        )


class PrefixJoinBackend(SimJoinBackend):
    """Prefix-filtering join; needs a positive threshold to prune.

    At threshold zero every pair survives, so pruning is meaningless and the
    backend falls through to the naive scan (which is what the join would
    degenerate into anyway).
    """

    name = "prefix"

    def join(
        self,
        store: RecordStore,
        threshold: float,
        attributes: Optional[Sequence[str]] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        if threshold <= 0.0:
            return NaiveJoinBackend().join(store, threshold, attributes, cross_sources)
        join = PrefixFilterJoin(threshold=threshold, attributes=attributes)
        return join.join(store, cross_sources=cross_sources)


class VectorizedJoinBackend(SimJoinBackend):
    """Blocked sparse-matrix join; correct at any threshold, needs scipy."""

    name = "vectorized"

    def join(
        self,
        store: RecordStore,
        threshold: float,
        attributes: Optional[Sequence[str]] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        join = VectorizedSimJoin(threshold=threshold, attributes=attributes)
        return join.join(store, cross_sources=cross_sources)


class ParallelJoinBackend(SimJoinBackend):
    """Process-pool sharded sparse-matrix join; bit-identical to ``vectorized``.

    The vectorized engine with its row blocks sharded over the long-lived
    shared pool.  ``workers=None`` (the default) resolves to one worker per
    CPU core at join time; ``resolve_backend(..., workers=N)`` overrides it.
    """

    name = "parallel"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers

    def join(
        self,
        store: RecordStore,
        threshold: float,
        attributes: Optional[Sequence[str]] = None,
        cross_sources: Optional[Tuple[str, str]] = None,
    ) -> PairSet:
        join = ParallelSimJoin(
            threshold=threshold, attributes=attributes, workers=self.workers
        )
        return join.join(store, cross_sources=cross_sources)


_REGISTRY: Dict[str, Callable[[], SimJoinBackend]] = {}


def register_backend(name: str, factory: Callable[[], SimJoinBackend]) -> None:
    """Register a join backend under ``name`` (overwrites any previous one)."""
    if not name or name == AUTO_BACKEND:
        raise ValueError(f"invalid backend name {name!r}")
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Names of all registered backends, in registration order."""
    return list(_REGISTRY)


def get_backend(name: str) -> SimJoinBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown join backend {name!r}; available: {available_backends()}"
        ) from None
    return factory()


def auto_backend_name(
    record_count: int, threshold: float, workers: Optional[int] = None
) -> str:
    """The ``"auto"`` heuristic: pick a backend from store size and threshold.

    Very large stores with more than one effective worker go to the sharded
    parallel engine; large stores to the (serial) vectorized engine (when
    scipy is importable); small stores with a positive threshold use the
    prefix filter, whose inverted index beats matrix construction there;
    everything else falls back to the naive scan.

    ``workers=None`` means "one per CPU core", so on a single-core host the
    parallel engine is never auto-selected.
    """
    if HAVE_SCIPY and record_count >= AUTO_PARALLEL_MIN_RECORDS:
        if resolve_worker_count(workers) > 1:
            return "parallel"
    if HAVE_SCIPY and record_count >= AUTO_VECTORIZED_MIN_RECORDS:
        return "vectorized"
    if threshold > 0.0:
        return "prefix"
    return "naive"


def resolve_backend(
    name: str = AUTO_BACKEND,
    record_count: int = 0,
    threshold: float = 0.0,
    workers: Optional[int] = None,
) -> SimJoinBackend:
    """Return the backend for ``name``, applying the auto heuristic.

    ``workers`` feeds both the auto heuristic and, for backends that take a
    worker count (the parallel engine or registered custom backends with a
    ``workers`` attribute), the engine configuration.
    """
    if name == AUTO_BACKEND:
        name = auto_backend_name(record_count, threshold, workers)
    engine = get_backend(name)
    if workers is not None and hasattr(engine, "workers"):
        engine.workers = workers
    return engine


register_backend(NaiveJoinBackend.name, NaiveJoinBackend)
register_backend(PrefixJoinBackend.name, PrefixJoinBackend)
register_backend(VectorizedJoinBackend.name, VectorizedJoinBackend)
register_backend(ParallelJoinBackend.name, ParallelJoinBackend)
