"""Top tier of the two-tiered approach: LCC partitioning (Algorithm 2).

A large connected component (more vertices than the cluster-size threshold
``k``) is partitioned into small connected components (SCCs) that together
cover all of its edges.  The greedy procedure grows one SCC at a time:

1. Seed the SCC with the vertex of maximum degree in the remaining LCC.
2. Repeatedly add the candidate vertex with the maximum *indegree* w.r.t.
   the SCC (number of edges into the SCC); ties are broken by minimum
   *outdegree* (number of edges to vertices outside the SCC), then by
   vertex id for determinism.  This is the only selection rule.
3. Stop when the SCC has ``k`` vertices or no candidate remains; output the
   SCC, remove the edges it covers, and repeat while the LCC still has edges.

The implementation keeps the indegree/outdegree of every frontier vertex
incrementally (updated when a vertex joins the SCC) so that partitioning the
pair graphs of the full-size datasets (tens of thousands of edges) stays
tractable in pure Python.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.graph.graph import Graph


def _select_candidate(conn: Dict[str, List[int]]) -> str:
    """Pick the next vertex to add to the SCC from the frontier map.

    ``conn`` maps each frontier vertex to ``[indegree, outdegree]`` w.r.t.
    the current SCC.  The paper's rule: maximum indegree, ties broken by
    minimum outdegree, then by vertex id.
    """
    best_vertex = None
    best_key: Tuple[int, int, str] = (0, 0, "")
    for vertex, (indegree, outdegree) in conn.items():
        key = (-indegree, outdegree, vertex)
        if best_vertex is None or key < best_key:
            best_vertex = vertex
            best_key = key
    assert best_vertex is not None  # caller guarantees conn is non-empty
    return best_vertex


def _max_degree_seed(lcc: Graph, seeds: List[Tuple[int, str]]) -> str:
    """The maximum-degree vertex of ``lcc``, ties to the smallest id.

    ``seeds`` is a heap holding one ``(-degree, id)`` entry per vertex, keyed
    by the degree the vertex had when the entry was pushed.  Algorithm 2 only
    ever removes edges, so a stale entry overstates its vertex: when the top
    entry is stale it is re-keyed (or dropped, at degree zero) and the top is
    looked at again; a top entry that matches its vertex's degree beats every
    other entry's overstated key and is therefore the true maximum — the
    vertex :meth:`Graph.max_degree_vertex` would find by scanning them all.
    The caller guarantees ``lcc`` still has an edge.
    """
    while True:
        stale_degree, vertex = seeds[0]
        degree = lcc.degree(vertex)
        if degree == -stale_degree:
            return vertex
        if degree:
            heapq.heapreplace(seeds, (-degree, vertex))
        else:
            heapq.heappop(seeds)


def partition_large_component(
    graph: Graph,
    component: Sequence[str],
    cluster_size: int,
) -> List[List[str]]:
    """Partition one large connected component into edge-covering SCCs.

    Parameters
    ----------
    graph:
        The pair graph (only the induced subgraph on ``component`` is used;
        ``graph`` itself is not modified).
    component:
        Vertex ids of the large connected component.
    cluster_size:
        The cluster-size threshold ``k``.

    Returns
    -------
    list of list of record ids
        SCCs of at most ``cluster_size`` vertices covering every edge of the
        component.
    """
    if cluster_size < 2:
        raise ValueError("cluster_size must be at least 2")

    lcc = graph.subgraph(component)
    sccs: List[List[str]] = []
    # One (-degree, id) entry per vertex, re-keyed lazily by _max_degree_seed.
    seeds = [(-lcc.degree(vertex), vertex) for vertex in lcc.vertices()]
    heapq.heapify(seeds)

    while lcc.edge_count > 0:
        # Seed: the maximum-degree vertex of the remaining component.
        seed = _max_degree_seed(lcc, seeds)

        scc: List[str] = [seed]
        scc_set = {seed}
        # Frontier map: vertex -> [indegree w.r.t. scc, outdegree].
        conn: Dict[str, List[int]] = {
            neighbour: [1, lcc.degree(neighbour) - 1] for neighbour in lcc.neighbors(seed)
        }

        while len(scc) < cluster_size and conn:
            chosen = _select_candidate(conn)
            del conn[chosen]
            scc.append(chosen)
            scc_set.add(chosen)
            for neighbour in lcc.neighbors(chosen):
                if neighbour in scc_set:
                    continue
                entry = conn.get(neighbour)
                if entry is None:
                    conn[neighbour] = [1, lcc.degree(neighbour) - 1]
                else:
                    entry[0] += 1
                    entry[1] -= 1

        sccs.append(scc)
        lcc.remove_edges_within(scc)
    return sccs


def partition_all(
    graph: Graph,
    large_components: Iterable[Sequence[str]],
    cluster_size: int,
) -> List[List[str]]:
    """Partition every large connected component (Algorithm 2 over the LCC set)."""
    sccs: List[List[str]] = []
    for component in large_components:
        sccs.extend(partition_large_component(graph, component, cluster_size))
    return sccs


def coverage_report(
    graph: Graph, component: Sequence[str], sccs: Sequence[Sequence[str]]
) -> Dict[str, int]:
    """Summarise how well a partition covers a component's edges.

    Returns a dict with ``edges`` (total edges of the component), ``covered``
    (edges inside at least one SCC) and ``uncovered``.  Used by tests.
    """
    component_edges = set(graph.edges_within(component))
    covered = set()
    for scc in sccs:
        covered.update(graph.edges_within(scc))
    covered &= component_edges
    return {
        "edges": len(component_edges),
        "covered": len(covered),
        "uncovered": len(component_edges - covered),
    }
