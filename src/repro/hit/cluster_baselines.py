"""Baseline cluster-based HIT generators: Random, BFS-based and DFS-based.

These are the baseline algorithms of Section 7.2:

* **Random** — repeatedly pick pairs from ``P`` (in random order) and merge
  their records into the current HIT; when the HIT holds ``k`` records it is
  emitted and the pairs it covers are dropped.
* **BFS-based / DFS-based** — build the pair graph and add records to HITs
  in breadth-first / depth-first traversal order; each HIT of ``k`` records
  is emitted and the edges it covers are removed, until no edge remains.

All three guarantee a valid cover (every candidate pair ends up inside at
least one HIT of size at most ``k``); they only differ in how many HITs they
need, which is exactly what Figures 10 and 11 of the paper compare.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations
from typing import List, Sequence, Set, Tuple

from repro.graph.graph import Graph
from repro.hit.generator import ClusterHITGenerator, register_generator
from repro.records.pairs import PairSet, canonical_pair


@register_generator("random")
class RandomClusterGenerator(ClusterHITGenerator):
    """The naive random algorithm of Section 7.2."""

    name = "random"

    def _clusters(self, pairs: PairSet) -> List[Sequence[str]]:
        rng = random.Random(0)
        order = list(pairs.keys())
        rng.shuffle(order)
        remaining: Set[Tuple[str, str]] = set(order)

        clusters: List[List[str]] = []
        cluster: List[str] = []
        members: Set[str] = set()

        def flush() -> None:
            if len(cluster) < 2:
                return
            covered = {
                canonical_pair(a, b)
                for a, b in combinations(sorted(members), 2)
                if canonical_pair(a, b) in remaining
            }
            remaining.difference_update(covered)
            clusters.append(list(cluster))

        for key in order:
            if key not in remaining:
                continue
            id_a, id_b = key
            new_members = [rid for rid in (id_a, id_b) if rid not in members]
            if len(cluster) + len(new_members) > self.cluster_size:
                flush()
                cluster = []
                members = set()
                new_members = [id_a, id_b]
            for rid in new_members:
                cluster.append(rid)
                members.add(rid)
            if len(cluster) >= self.cluster_size:
                flush()
                cluster = []
                members = set()
        flush()

        # A final sweep guarantees cover even for pairs skipped above
        # (possible when a pair's records were split across flushed HITs).
        leftovers = sorted(remaining)
        for key in leftovers:
            if key not in remaining:
                continue
            clusters.append([key[0], key[1]])
            remaining.discard(key)
        return clusters


class _TraversalClusterGenerator(ClusterHITGenerator):
    """Shared implementation for BFS-based and DFS-based generation.

    Following Section 7.2: to generate one cluster-based HIT the algorithm
    traverses the remaining graph (from the first vertex that still has
    edges, in insertion order) and adds records to the HIT in traversal
    order until it holds ``k`` records; the HIT is emitted, the edges it
    covers are removed, and the process repeats until no edge remains.  When
    a connected component is exhausted before the HIT is full, the traversal
    restarts from the next vertex that still has edges (exactly like a full
    graph traversal would), so small components get batched together.  The
    traversal is truncated after ``k`` vertices, so each HIT costs only
    O(k * degree) work.
    """

    def _partial_traversal(
        self, graph: Graph, starts: List[str], start_position: int, limit: int
    ) -> List[str]:
        """Collect up to ``limit`` vertices in traversal order.

        ``starts`` is the static insertion-order vertex list and
        ``start_position`` the index of the first candidate start; when the
        current connected component is exhausted the traversal restarts from
        the next start candidate that still has edges.
        """
        raise NotImplementedError

    def _clusters(self, pairs: PairSet) -> List[Sequence[str]]:
        graph = Graph.from_pair_set(pairs)
        vertices = graph.vertices()
        clusters: List[List[str]] = []
        start_index = 0
        while graph.edge_count > 0:
            # Advance to the next start vertex that still has uncovered edges.
            while start_index < len(vertices):
                vertex = vertices[start_index]
                if graph.has_vertex(vertex) and graph.degree(vertex) > 0:
                    break
                start_index += 1
            if start_index >= len(vertices):
                # All insertion-order starts exhausted but edges remain
                # (cannot happen: an edge keeps both endpoints non-isolated);
                # cover one edge directly as a defensive fallback.
                u, v = next(iter(graph.edges()))
                graph.remove_edge(u, v)
                clusters.append([u, v])
                continue
            cluster = self._partial_traversal(graph, vertices, start_index, self.cluster_size)
            removed = graph.remove_edges_within(cluster)
            if removed == 0:  # pragma: no cover - defensive
                u, v = next(iter(graph.edges()))
                graph.remove_edge(u, v)
                cluster = [u, v]
            clusters.append(list(cluster))
            for vertex in cluster:
                if graph.has_vertex(vertex) and graph.degree(vertex) == 0:
                    graph.remove_vertex(vertex)
        return clusters


@register_generator("bfs")
class BFSClusterGenerator(_TraversalClusterGenerator):
    """BFS-based baseline: fill HITs in breadth-first traversal order."""

    name = "bfs"

    def _partial_traversal(
        self, graph: Graph, starts: List[str], start_position: int, limit: int
    ) -> List[str]:
        order: List[str] = []
        visited = set()
        queue: deque = deque()
        position = start_position
        while len(order) < limit:
            if not queue:
                # Current component exhausted: restart from the next vertex
                # (in insertion order) that still has uncovered edges.
                while position < len(starts):
                    candidate = starts[position]
                    position += 1
                    if (
                        candidate not in visited
                        and graph.has_vertex(candidate)
                        and graph.degree(candidate) > 0
                    ):
                        visited.add(candidate)
                        queue.append(candidate)
                        break
                else:
                    break
            vertex = queue.popleft()
            order.append(vertex)
            if len(order) == limit:
                break
            for neighbour in graph.neighbors(vertex):
                if neighbour not in visited:
                    visited.add(neighbour)
                    queue.append(neighbour)
        return order


@register_generator("dfs")
class DFSClusterGenerator(_TraversalClusterGenerator):
    """DFS-based baseline: fill HITs in depth-first traversal order."""

    name = "dfs"

    def _partial_traversal(
        self, graph: Graph, starts: List[str], start_position: int, limit: int
    ) -> List[str]:
        order: List[str] = []
        visited = set()
        stack: List[str] = []
        position = start_position
        while len(order) < limit:
            if not stack:
                while position < len(starts):
                    candidate = starts[position]
                    position += 1
                    if (
                        candidate not in visited
                        and graph.has_vertex(candidate)
                        and graph.degree(candidate) > 0
                    ):
                        stack.append(candidate)
                        break
                else:
                    break
            vertex = stack.pop()
            if vertex in visited:
                continue
            visited.add(vertex)
            order.append(vertex)
            if len(order) == limit:
                break
            for neighbour in reversed(graph.neighbors(vertex)):
                if neighbour not in visited:
                    stack.append(neighbour)
        return order
