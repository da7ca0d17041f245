"""The two-tiered cluster-based HIT generation approach (Algorithm 1).

1. Build the pair graph and split its connected components into small (SCC,
   at most ``k`` vertices) and large (LCC, more than ``k`` vertices).
2. **Top tier**: partition every LCC into highly-connected SCCs, growing
   each by maximum indegree, ties to minimum outdegree
   (:mod:`repro.hit.partitioning`).
3. **Bottom tier**: pack all SCCs into cluster-based HITs of capacity ``k``
   by column generation over Gilmore–Gomory patterns
   (:mod:`repro.hit.packing`).

The generator has one setting, ``k``: both tiers run the paper's rule.

This is the paper's main algorithm; Figures 10 and 11 show it generating the
fewest HITs of all evaluated approaches.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.graph.components import split_components_with_labels
from repro.graph.graph import Graph
from repro.hit.generator import ClusterHITGenerator, register_generator
from repro.hit.packing import pack_components
from repro.hit.partitioning import partition_all
from repro.records.pairs import PairSet


@register_generator("two-tiered")
class TwoTieredClusterGenerator(ClusterHITGenerator):
    """The paper's two-tiered heuristic (Algorithm 1).

    Parameters
    ----------
    cluster_size:
        The cluster-size threshold ``k``.
    """

    name = "two-tiered"

    def _clusters(self, pairs: PairSet) -> List[Sequence[str]]:
        graph = Graph.from_pair_set(pairs)
        small, large, _labels = split_components_with_labels(graph, self.cluster_size)

        # Top tier: partition every large connected component.
        partitioned = partition_all(graph, large, self.cluster_size)

        # Bottom tier: pack all small components (original + partitioned).
        all_small = [list(component) for component in small] + partitioned
        return pack_components(all_small, self.cluster_size)
