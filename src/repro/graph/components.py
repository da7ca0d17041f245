"""Connected-component extraction and size-based classification.

The two-tiered approach (Section 5.1) first splits the pair graph into
connected components and classifies them into *small* connected components
(SCCs, at most ``k`` vertices — they already fit into one cluster-based HIT)
and *large* connected components (LCCs, more than ``k`` vertices — they must
be partitioned by the top tier).

:func:`labeled_components` is the single-traversal primitive: it returns
both the component lists and a vertex→component-id map, so callers that
need to group per-vertex data by component (the streaming resolver)
don't re-traverse the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.graph.graph import Graph


def labeled_components(graph: Graph) -> Tuple[List[List[str]], Dict[str, int]]:
    """One BFS pass returning components plus a vertex→component-id map.

    Component ids are dense indices into the returned component list, so
    ``components[labels[v]]`` is the component containing ``v``.  Components
    are discovered in vertex insertion order and vertices inside each
    component are listed in BFS order from the first-seen vertex, so the
    output is deterministic.
    """
    labels: Dict[str, int] = {}
    components: List[List[str]] = []
    for start in graph.vertices():
        if start in labels:
            continue
        component_id = len(components)
        component: List[str] = []
        queue = deque([start])
        labels[start] = component_id
        while queue:
            vertex = queue.popleft()
            component.append(vertex)
            for neighbour in graph.neighbors(vertex):
                if neighbour not in labels:
                    labels[neighbour] = component_id
                    queue.append(neighbour)
        components.append(component)
    return components, labels


def split_components_with_labels(
    graph: Graph, cluster_size: int
) -> Tuple[List[List[str]], List[List[str]], Dict[str, int]]:
    """Split the components into (small, large, labels) by the cluster size.

    Small components have at most ``cluster_size`` vertices; large ones have
    more.  This mirrors lines 2-4 of Algorithm 1 (Two-Tiered) in the paper.
    The labels refer to the discovery order of :func:`labeled_components`
    (they are *not* reindexed after the small/large split), so two vertices
    share a component if and only if their labels are equal.  Everything is
    computed in a single graph traversal.
    """
    if cluster_size < 2:
        raise ValueError("cluster_size must be at least 2")
    components, labels = labeled_components(graph)
    small: List[List[str]] = []
    large: List[List[str]] = []
    for component in components:
        if len(component) <= cluster_size:
            small.append(component)
        else:
            large.append(component)
    return small, large, labels
