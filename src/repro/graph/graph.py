"""Undirected simple graph with deterministic iteration order.

Determinism matters here: HIT generation must be reproducible so that the
benchmark harness regenerates the same tables on every run.  Adjacency is
therefore stored in insertion-ordered dictionaries rather than sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.records.pairs import PairSet, canonical_pair


class Graph:
    """An undirected simple graph over hashable string vertex ids."""

    def __init__(self) -> None:
        # vertex -> {neighbour: True}; the inner dict is used as an ordered set.
        self._adjacency: Dict[str, Dict[str, bool]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------ build
    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[str, str]]) -> "Graph":
        """Build a graph from an iterable of (u, v) edges."""
        graph = cls()
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_pair_set(cls, pairs: PairSet) -> "Graph":
        """Build the pair graph of the paper: one edge per candidate pair."""
        graph = cls()
        for pair in pairs:
            graph.add_edge(pair.id_a, pair.id_b)
        return graph

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph()
        for vertex in self._adjacency:
            clone.add_vertex(vertex)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    # ------------------------------------------------------------- mutation
    def add_vertex(self, vertex: str) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if vertex not in self._adjacency:
            self._adjacency[vertex] = {}

    def add_edge(self, u: str, v: str) -> None:
        """Add an undirected edge; self-loops are rejected."""
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adjacency[u]:
            self._adjacency[u][v] = True
            self._adjacency[v][u] = True
            self._edge_count += 1

    def remove_edge(self, u: str, v: str) -> None:
        """Remove an edge if present (no error if absent)."""
        if u in self._adjacency and v in self._adjacency[u]:
            del self._adjacency[u][v]
            del self._adjacency[v][u]
            self._edge_count -= 1

    def remove_vertex(self, vertex: str) -> None:
        """Remove a vertex and all its incident edges."""
        if vertex not in self._adjacency:
            return
        for neighbour in list(self._adjacency[vertex]):
            self.remove_edge(vertex, neighbour)
        del self._adjacency[vertex]

    def remove_edges_within(self, vertices: Iterable[str]) -> int:
        """Remove all edges whose both endpoints lie in ``vertices``.

        Returns the number of removed edges.  This is the "remove the edges
        of lcc that are covered by scc" step of Algorithm 2.
        """
        vertex_set = set(vertices)
        removed = 0
        for u in list(vertex_set):
            if u not in self._adjacency:
                continue
            for v in list(self._adjacency[u]):
                if v in vertex_set:
                    self.remove_edge(u, v)
                    removed += 1
        return removed

    # -------------------------------------------------------------- queries
    def has_vertex(self, vertex: str) -> bool:
        """True if the vertex is in the graph."""
        return vertex in self._adjacency

    def has_edge(self, u: str, v: str) -> bool:
        """True if the undirected edge (u, v) is in the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def vertices(self) -> List[str]:
        """All vertices in insertion order."""
        return list(self._adjacency)

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Yield each undirected edge exactly once, in canonical order."""
        seen: Set[Tuple[str, str]] = set()
        for u, neighbours in self._adjacency.items():
            for v in neighbours:
                key = canonical_pair(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key

    def edge_keys(self) -> Set[Tuple[str, str]]:
        """The set of canonical edge keys."""
        return set(self.edges())

    def neighbors(self, vertex: str) -> List[str]:
        """Neighbours of a vertex in insertion order."""
        if vertex not in self._adjacency:
            raise KeyError(f"unknown vertex {vertex!r}")
        return list(self._adjacency[vertex])

    def degree(self, vertex: str) -> int:
        """Degree of a vertex."""
        if vertex not in self._adjacency:
            raise KeyError(f"unknown vertex {vertex!r}")
        return len(self._adjacency[vertex])

    def max_degree_vertex(self, candidates: Optional[Iterable[str]] = None) -> Optional[str]:
        """Return the vertex with the maximum degree (ties broken by id).

        Restricting to ``candidates`` lets Algorithm 2 pick the max-degree
        vertex of one connected component only.
        """
        pool = list(candidates) if candidates is not None else self.vertices()
        best: Optional[str] = None
        best_degree = -1
        for vertex in pool:
            if vertex not in self._adjacency:
                continue
            degree = len(self._adjacency[vertex])
            if degree > best_degree or (degree == best_degree and best is not None and vertex < best):
                best = vertex
                best_degree = degree
        return best

    def subgraph(self, vertices: Iterable[str]) -> "Graph":
        """Return the induced subgraph on the given vertices."""
        vertex_set = set(vertices)
        sub = Graph()
        for vertex in self._adjacency:
            if vertex in vertex_set:
                sub.add_vertex(vertex)
        # Only the kept vertices' adjacency is walked.  Taking them in this
        # graph's vertex order and adding each edge at its first endpoint
        # reproduces the order ``edges()`` would yield them in, so neighbour
        # order in the subgraph does not depend on how it was built.
        for u in sub._adjacency:
            for v in self._adjacency[u]:
                if v in vertex_set:
                    sub.add_edge(u, v)
        return sub

    def edges_within(self, vertices: Iterable[str]) -> List[Tuple[str, str]]:
        """Edges whose both endpoints lie in ``vertices`` (canonical keys)."""
        vertex_set = set(vertices)
        result: List[Tuple[str, str]] = []
        for u, v in self.edges():
            if u in vertex_set and v in vertex_set:
                result.append((u, v))
        return result

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._adjacency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"
