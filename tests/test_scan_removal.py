"""The resolve path pays per item kept, not per item looked at.

Count-based, not time-based: HIT coverage is computed from a HIT's own
``k*(k-1)/2`` pairs and never walks the candidate set once per HIT, and
Algorithm 2 seeds each SCC from a heap instead of rescanning every vertex —
with the scanning implementation (``Graph.max_degree_vertex``) kept as the
oracle the heap must agree with.  A streaming append re-aggregates the pairs
that got fresh votes, not the component they sit in, and its snapshot
re-places the pairs that changed instead of re-ranking the session.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import pair_sets

from repro.core.config import WorkflowConfig
from repro.crowd.platform import CrowdRunResult, SimulatedCrowdPlatform
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.hit.base import ClusterBasedHIT, HITBatch, PairBasedHIT
from repro.hit.partitioning import (
    _TIE_BREAK_RULES,
    _select_candidate,
    partition_large_component,
)
from repro.records.record import Record
from repro.storage.base import PairLedger
from repro.streaming import session as session_module
from repro.streaming.session import StreamingResolver


class UnwalkableSet(set):
    """A candidate set that may be probed but not iterated."""

    def __iter__(self):
        raise AssertionError("the candidate set was walked")


class CountingSet(set):
    """A candidate set that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


CANDIDATES = [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")]


class TestCoverageNeverWalksTheCandidates:
    def test_checkable_pairs_probes_a_set(self):
        hit = ClusterBasedHIT("h1", ("c", "a", "b"))
        assert hit.checkable_pairs(UnwalkableSet(CANDIDATES)) == {("a", "b"), ("b", "c")}
        assert hit.checkable_pairs() & UnwalkableSet(CANDIDATES) == {("a", "b"), ("b", "c")}

    @pytest.mark.parametrize("container", [
        list, set, frozenset, UnwalkableSet,
        lambda pairs: dict.fromkeys(pairs).keys(),
        lambda pairs: iter(pairs),
    ])
    def test_wrapper_values_for_every_container(self, container):
        """Canonical output whatever the orientation or container of the input."""
        hit = ClusterBasedHIT("h1", ("a", "b", "c"))
        # ("b", "a") is a reversed candidate, ("c", "d") is half outside.
        pairs = [("b", "a"), ("b", "c"), ("c", "d"), ("x", "y")]
        assert hit.checkable_pairs(container(pairs)) == {("a", "b"), ("b", "c")}
        assert hit.checkable_pairs(container([])) == set()

    @pytest.mark.parametrize("hits", [
        [ClusterBasedHIT("h1", ("a", "b", "c")), ClusterBasedHIT("h2", ("c", "d"))],
        [PairBasedHIT("h1", (("a", "b"), ("b", "c"))), PairBasedHIT("h2", (("c", "d"),))],
    ])
    def test_publish_per_pair(self, hits):
        batch = HITBatch(
            hit_type="cluster" if isinstance(hits[0], ClusterBasedHIT) else "pair",
            hits=hits, candidate_pairs=set(CANDIDATES),
        )

        def votes(candidates):
            platform = SimulatedCrowdPlatform(seed=5, vote_mode="per-pair")
            result = CrowdRunResult(hit_count=2, assignments_per_hit=3)
            platform._publish_per_pair(
                batch, {("a", "b")}, candidates, random.Random(5), result
            )
            return result.votes

        guarded = votes(UnwalkableSet(CANDIDATES))
        assert guarded == votes(set(CANDIDATES))
        assert {vote[1] for vote in guarded} == {("a", "b"), ("b", "c"), ("c", "d")}

    def test_batch_bookkeeping_walks_once_not_once_per_hit(self):
        batch = HITBatch(
            hit_type="cluster",
            hits=[ClusterBasedHIT(f"h{i}", ("a", "b", "c")) for i in range(20)],
            candidate_pairs=set(CANDIDATES),
        )
        batch.candidate_pairs = CountingSet(batch.candidate_pairs)
        assert batch.covered_pairs() == {("a", "b"), ("b", "c")}
        assert batch.candidate_pairs.walks == 0
        mapping = batch.pair_to_hits()
        assert batch.candidate_pairs.walks == 1     # the dict of empty lists
        assert len(mapping[("a", "b")]) == 20 and mapping[("x", "y")] == []

    def test_streaming_publish_walks_do_not_grow_with_the_hits(self, small_restaurant):
        """``CrowdDriver.request`` walks ``to_vote`` a fixed number of times
        (sorting it, looking its likelihoods up, canonicalising it for the platform)
        however many HITs the batch is packed into."""
        resolver = StreamingResolver(config=WorkflowConfig(
            likelihood_threshold=0.3, cluster_size=3, vote_mode="per-pair", seed=3,
        ))
        driver = resolver.driver
        request = driver.request
        seen = []

        def counted(to_vote, *session_view):
            to_vote = CountingSet(to_vote)
            before = driver.hit_count
            outcome = request(to_vote, *session_view)
            seen.append((driver.hit_count - before, to_vote.walks))
            return outcome

        driver.request = counted
        records = list(small_restaurant.store)
        for offset in range(0, len(records), 40):
            resolver.add_batch(records[offset:offset + 40])
        hit_counts = {hits for hits, _ in seen}
        assert len(hit_counts) > 1 and max(hit_counts) >= 5
        assert len({walks for _, walks in seen}) == 1


def _reference_partition(graph, component, cluster_size, tie_break):
    """Algorithm 2 with the seed found by scanning: the oracle."""
    lcc = graph.subgraph(component)
    sccs = []
    while lcc.edge_count > 0:
        seed = lcc.max_degree_vertex()
        scc, scc_set = [seed], {seed}
        conn = {
            neighbour: [1, lcc.degree(neighbour) - 1] for neighbour in lcc.neighbors(seed)
        }
        while len(scc) < cluster_size and conn:
            chosen = _select_candidate(conn, tie_break)
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


class TestSeedHeapMatchesTheScan:
    @settings(max_examples=150, deadline=None)
    @given(pairs=pair_sets(), cluster_size=st.integers(min_value=2, max_value=6))
    def test_same_sccs_for_every_tie_break(self, pairs, cluster_size):
        """26 vertices and up to 60 edges: degree ties at nearly every seed."""
        graph = Graph.from_pair_set(pairs)
        for component in connected_components(graph):
            if len(component) <= cluster_size:
                continue
            for tie_break in _TIE_BREAK_RULES:
                assert partition_large_component(
                    graph, component, cluster_size, tie_break=tie_break
                ) == _reference_partition(graph, component, cluster_size, tie_break)

    def test_subgraph_keeps_vertex_and_neighbour_order(self):
        """The induced subgraph lists vertices and neighbours as a full edge
        walk of the parent would: earlier vertices first, then adjacency order."""
        graph = Graph.from_edges(
            [("d", "a"), ("x", "a"), ("c", "d"), ("a", "c"), ("b", "a"), ("c", "b"), ("x", "b")]
        )
        sub = graph.subgraph(["c", "b", "a", "d"])
        assert sub.vertices() == ["d", "a", "c", "b"]
        assert {vertex: sub.neighbors(vertex) for vertex in sub.vertices()} == {
            "d": ["a", "c"], "a": ["d", "c", "b"], "c": ["d", "a", "b"], "b": ["a", "c"],
        }
        assert sub.edge_count == 5 and not sub.has_vertex("x")


class TestAppendCostFollowsTheFreshVotes:
    """One component that every append dirties and grows by exactly one pair."""

    @staticmethod
    def _chain(length):
        # Neighbours share two of four tokens (Jaccard 0.5), records two
        # apart one of five (0.2): a path, so record i adds the pair (i-1, i).
        return [
            Record(f"r{i:02d}", {"t": f"w{i} w{i + 1} w{i + 2}"}) for i in range(length)
        ]

    def _appends(self, monkeypatch, aggregation, length=12):
        """Per append: (``set_posterior`` calls, freshly voted pairs, dirty pairs)."""
        written = []
        set_posterior = PairLedger.set_posterior

        def counted(ledger, key, posterior):
            written.append(key)
            set_posterior(ledger, key, posterior)

        monkeypatch.setattr(PairLedger, "set_posterior", counted)
        resolver = StreamingResolver(config=WorkflowConfig(
            likelihood_threshold=0.3, vote_mode="per-pair", aggregation=aggregation, seed=3,
        ))
        appends = []
        for record in self._chain(length):
            del written[:]
            delta = resolver.add_batch([record])
            appends.append((len(written), delta.crowdsourced_pairs, delta.dirty_pairs))
        return appends

    def test_majority_writes_one_posterior_per_freshly_voted_pair(self, monkeypatch):
        """Fails at the parent commit, which wrote the whole dirty component."""
        appends = self._appends(monkeypatch, "majority")
        assert [dirty for _, _, dirty in appends] == list(range(12))
        assert [fresh for _, fresh, _ in appends] == [0] + [1] * 11
        assert [written for written, _, _ in appends] == [0] + [1] * 11

    def test_dawid_skene_still_reaggregates_the_whole_dirty_component(self, monkeypatch):
        """EM shares worker estimates across pairs: the skip must not apply."""
        appends = self._appends(monkeypatch, "dawid-skene")
        assert [written for written, _, _ in appends] == list(range(12))

    def test_snapshot_after_a_one_pair_event_never_reranks(self, monkeypatch):
        chain = self._chain(14)
        resolver = StreamingResolver(config=WorkflowConfig(
            likelihood_threshold=0.3, vote_mode="per-pair", aggregation="majority", seed=3,
        ))
        resolver.add_batch(chain[:10])
        ranked = []
        rank_candidates = session_module.rank_candidates

        def counted(likelihoods, posteriors):
            ranked.append(len(likelihoods))
            return rank_candidates(likelihoods, posteriors)

        monkeypatch.setattr(session_module, "rank_candidates", counted)
        for record in chain[10:]:
            assert resolver.add_batch([record]).new_candidate_pairs == 1
            result = resolver.snapshot()
            assert (result.ranked_pairs, result.matches) == rank_candidates(
                result.likelihoods, result.posteriors
            )
        resolver.retract("r04")
        resolver.snapshot()
        assert ranked == []

    def test_an_update_materialises_no_result(self, monkeypatch):
        """Both halves of an update produce deltas; the event answers with
        the merged one and builds no result."""
        resolver = StreamingResolver(config=WorkflowConfig(
            likelihood_threshold=0.3, vote_mode="per-pair", aggregation="majority", seed=3,
        ))
        resolver.add_batch(self._chain(8))
        snapshots = []
        snapshot = StreamingResolver.snapshot

        def counted(session):
            snapshots.append(session)
            return snapshot(session)

        monkeypatch.setattr(StreamingResolver, "snapshot", counted)
        delta = resolver.update(Record("r03", {"t": "w3 w4 w5 w6"}))
        assert snapshots == []
        assert (delta.retracted_records, delta.invalidated_pairs) == (1, 2)
        assert (delta.new_records, delta.new_candidate_pairs) == (1, 3)
