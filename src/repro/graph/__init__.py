"""Lightweight undirected-graph substrate used by HIT generation.

The cluster-based HIT generation algorithms of the paper (Sections 4 and 5)
operate on the *pair graph*: vertices are records, edges are the candidate
pairs that survived likelihood pruning.  This package provides the graph
data structure, connected-component extraction and the incremental
union-find the two-tiered approach, its baselines and streaming sessions
need (the BFS/DFS baselines run their own truncated traversals).  It is implemented from scratch
(rather than relying on networkx) so the algorithms can be followed line by
line against the pseudo-code in the paper.
"""

from repro.graph.graph import Graph
from repro.graph.components import labeled_components, split_components_with_labels
from repro.graph.union_find import IncrementalUnionFind

__all__ = [
    "Graph",
    "labeled_components",
    "split_components_with_labels",
    "IncrementalUnionFind",
]
