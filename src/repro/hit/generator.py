"""Common interface for cluster-based HIT generators plus a registry.

Every cluster-based generator (Random, BFS, DFS, Approximation, Two-tiered)
takes a :class:`~repro.records.pairs.PairSet` and a cluster-size threshold
``k`` and returns a :class:`~repro.hit.base.HITBatch` of
:class:`~repro.hit.base.ClusterBasedHIT` objects satisfying Definition 1 of
the paper.  The registry lets the benchmark harness iterate over all
algorithms by name, exactly as the paper's Figures 10 and 11 do.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro import obs
from repro.hit.base import ClusterBasedHIT, HITBatch
from repro.records.pairs import PairSet


class ClusterHITGenerator:
    """Base class for cluster-based HIT generation algorithms."""

    name = "cluster-generator"

    def __init__(self, cluster_size: int) -> None:
        if cluster_size < 2:
            raise ValueError("cluster_size must be at least 2 (a HIT must fit one pair)")
        self.cluster_size = cluster_size

    def generate(self, pairs: PairSet) -> HITBatch:
        """Generate the cluster-based HIT batch for the candidate pairs."""
        with obs.span("hit.cluster", generator=self.name, pairs=len(pairs)):
            clusters = self._clusters(pairs)
        hits = [
            ClusterBasedHIT(hit_id=f"{self.name}-hit-{index + 1}", records=tuple(cluster))
            for index, cluster in enumerate(clusters)
        ]
        if obs.enabled():
            obs.inc("hit_pairs_packed_total", len(pairs), generator=self.name,
                    help="Candidate pairs packed into generated HITs.")
            obs.inc("hits_generated_total", len(hits), generator=self.name,
                    help="HITs produced by the generators.")
        return HITBatch(
            hit_type="cluster",
            hits=list(hits),
            candidate_pairs=set(pairs.keys()),
            generator_name=self.name,
            cluster_size=self.cluster_size,
        )

    def _clusters(self, pairs: PairSet) -> List[Sequence[str]]:
        """Return the record groups; subclasses implement the algorithm."""
        raise NotImplementedError


_REGISTRY: Dict[str, Callable[..., ClusterHITGenerator]] = {}


def register_generator(name: str) -> Callable[[type], type]:
    """Class decorator registering a generator under ``name``."""

    def decorator(cls: type) -> type:
        _REGISTRY[name] = cls
        return cls

    return decorator


def get_cluster_generator(name: str, cluster_size: int) -> ClusterHITGenerator:
    """Instantiate a registered generator by name.

    Known names: ``random``, ``bfs``, ``dfs``, ``approximation``,
    ``two-tiered``.
    """
    # Import implementations lazily so the registry is populated without
    # creating circular imports at module load time.
    from repro.hit import approximation, cluster_baselines, two_tiered  # noqa: F401

    if name not in _REGISTRY:
        raise KeyError(f"unknown cluster generator {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](cluster_size=cluster_size)


def available_generators() -> List[str]:
    """Names of all registered cluster generators."""
    from repro.hit import approximation, cluster_baselines, two_tiered  # noqa: F401

    return sorted(_REGISTRY)
