"""HIT generation: the core algorithmic contribution of CrowdER.

Given a set of candidate pairs (the output of the machine pass) this package
creates the crowd micro-tasks:

* **Pair-based HITs** (Section 3.1): simple chunking of the pair list.
* **Cluster-based HITs** (Sections 3.2-5): groups of records of size at most
  ``k`` such that every candidate pair is contained in at least one group.
  Generating the minimum number of such groups is NP-Hard; implemented here
  are the Goldschmidt k-clique-cover approximation (Section 4), the Random /
  BFS / DFS baselines (Section 7.2) and the paper's two-tiered heuristic
  (Section 5) with its LCC-partitioning top tier and cutting-stock packing
  bottom tier.
* The **comparison-count model** of Section 6 used by the latency analysis.
"""

from repro.hit.base import PairBasedHIT, ClusterBasedHIT, HITBatch, validate_cluster_cover
from repro.hit.pair_generation import PairHITGenerator
from repro.hit.cluster_baselines import (
    RandomClusterGenerator,
    BFSClusterGenerator,
    DFSClusterGenerator,
)
from repro.hit.approximation import ApproximationClusterGenerator
from repro.hit.partitioning import partition_large_component, partition_all
from repro.hit.packing import (
    PackingSolution,
    first_fit_decreasing,
    column_generation_packing,
    pack_components,
)
from repro.hit.two_tiered import TwoTieredClusterGenerator
from repro.hit.comparisons import (
    pair_hit_comparisons,
    cluster_hit_comparisons,
    cluster_hit_comparisons_bounds,
)
from repro.hit.generator import ClusterHITGenerator, get_cluster_generator

__all__ = [
    "PairBasedHIT",
    "ClusterBasedHIT",
    "HITBatch",
    "validate_cluster_cover",
    "PairHITGenerator",
    "RandomClusterGenerator",
    "BFSClusterGenerator",
    "DFSClusterGenerator",
    "ApproximationClusterGenerator",
    "TwoTieredClusterGenerator",
    "ClusterHITGenerator",
    "get_cluster_generator",
    "partition_large_component",
    "partition_all",
    "PackingSolution",
    "first_fit_decreasing",
    "column_generation_packing",
    "pack_components",
    "pair_hit_comparisons",
    "cluster_hit_comparisons",
    "cluster_hit_comparisons_bounds",
]
