"""The two-tiered cluster-based HIT generation approach (Algorithm 1).

1. Build the pair graph and split its connected components into small (SCC,
   at most ``k`` vertices) and large (LCC, more than ``k`` vertices).
2. **Top tier**: partition every LCC into highly-connected SCCs
   (:mod:`repro.hit.partitioning`).
3. **Bottom tier**: pack all SCCs into cluster-based HITs of capacity ``k``
   (:mod:`repro.hit.packing`).

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
    packing_method:
        Bottom-tier solver: ``"column-generation"`` (the paper's choice),
        ``"branch-and-bound"`` or ``"ffd"``.
    tie_break:
        Top-tier tie-breaking rule (see
        :func:`repro.hit.partitioning.partition_large_component`).
    """

    name = "two-tiered"

    def __init__(
        self,
        cluster_size: int,
        packing_method: str = "column-generation",
        tie_break: str = "min-outdegree",
    ) -> None:
        super().__init__(cluster_size)
        self.packing_method = packing_method
        self.tie_break = tie_break

    def _clusters(self, pairs: PairSet) -> List[Sequence[str]]:
        graph = Graph.from_pair_set(pairs)
        small, large, _labels = split_components_with_labels(graph, self.cluster_size)

        # Top tier: partition every large connected component.
        partitioned = partition_all(graph, large, self.cluster_size, tie_break=self.tie_break)

        # Bottom tier: pack all small components (original + partitioned).
        all_small = [list(component) for component in small] + partitioned
        return pack_components(all_small, self.cluster_size, method=self.packing_method)
