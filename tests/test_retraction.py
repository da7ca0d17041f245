"""Tests for provenance-driven record retraction and update.

Retraction must be *exact*: only the provenance-reachable pairs and
components of the retracted record are invalidated and re-resolved
(asserted through the delta stats), and the session afterwards agrees with
a session that never saw the record — same candidate pairs with
bit-identical likelihoods, same matches among the surviving records.
"""

import pytest

from repro.core.config import WorkflowConfig
from repro.datasets.restaurant import RestaurantGenerator
from repro.graph.union_find import IncrementalUnionFind
from repro.records.record import Record, RecordError
from repro.simjoin.likelihood import SimJoinLikelihood
from repro.streaming import StreamingResolver
from repro.streaming.incremental_join import IncrementalSimJoin


def make_config(**overrides):
    base = dict(
        likelihood_threshold=0.35, vote_mode="per-pair", aggregation="majority"
    )
    base.update(overrides)
    return WorkflowConfig(**base)


def two_islands():
    island_a = [
        Record("a1", {"t": "golden gate grill san francisco"}),
        Record("a2", {"t": "golden gate grill san francisco"}),
        Record("a3", {"t": "golden gate grill san francisco bay"}),
    ]
    island_b = [
        Record("b1", {"t": "brooklyn bagel company new york"}),
        Record("b2", {"t": "brooklyn bagel company new york"}),
    ]
    return island_a, island_b


# ------------------------------------------------------------- join layer
class TestIncrementalJoinRetraction:
    def test_retracted_record_stops_joining(self):
        join = IncrementalSimJoin(threshold=0.5)
        join.add_batch([Record("r1", {"t": "alpha beta gamma"})])
        join.retract("r1")
        delta = join.add_batch([Record("r2", {"t": "alpha beta gamma"})])
        assert len(delta) == 0
        assert len(join) == 1 and "r1" not in join
        assert join.record_ids == ["r2"]

    def test_retracted_id_can_be_re_added(self):
        join = IncrementalSimJoin(threshold=0.5)
        join.add_batch(
            [Record("r1", {"t": "alpha beta"}), Record("r2", {"t": "alpha beta"})]
        )
        join.retract("r1")
        delta = join.add_batch([Record("r1", {"t": "alpha beta"})])
        assert [pair.key for pair in delta] == [("r1", "r2")]

    def test_unknown_or_double_retraction_rejected(self):
        join = IncrementalSimJoin(threshold=0.5)
        join.add_batch([Record("r1", {"t": "alpha"})])
        with pytest.raises(RecordError):
            join.retract("ghost")
        join.retract("r1")
        with pytest.raises(RecordError):
            join.retract("r1")

    @pytest.mark.parametrize("threshold", (0.0, 0.3))
    def test_retraction_equals_never_added(self, threshold):
        """After retracting half the records, the surviving index joins a
        probe batch exactly like an index that never saw them — also at
        threshold zero, where a tombstone's similarity of 0.0 would pass."""
        dataset = RestaurantGenerator(
            record_count=40, duplicate_pairs=8, seed=7
        ).generate()
        records = list(dataset.store)
        resident, probes = records[:30], records[30:]

        full = IncrementalSimJoin(threshold=threshold)
        full.add_batch(resident)
        for record in resident[10:20]:
            full.retract(record.record_id)

        fresh = IncrementalSimJoin(threshold=threshold)
        fresh.add_batch(resident[:10] + resident[20:])

        got = {pair.key: pair.likelihood for pair in full.add_batch(probes)}
        want = {pair.key: pair.likelihood for pair in fresh.add_batch(probes)}
        assert got == want  # bit-identical

    def test_compaction_preserves_results(self):
        join = IncrementalSimJoin(threshold=0.3)
        join.COMPACT_MIN_TOMBSTONES = 4  # force the auto-compaction path
        records = [
            Record(f"r{i}", {"t": f"token{i % 5} shared common words"})
            for i in range(20)
        ]
        join.add_batch(records)
        for i in range(0, 16, 2):
            join.retract(f"r{i}")
        assert join.tombstone_count < 8  # auto-compaction fired along the way
        assert len(join) == 12
        fresh = IncrementalSimJoin(threshold=0.3)
        fresh.add_batch([record for i, record in enumerate(records) if i % 2 or i >= 16])
        probe = [Record("p1", {"t": "token1 shared common words"})]
        got = {pair.key: pair.likelihood for pair in join.add_batch(probe)}
        want = {pair.key: pair.likelihood for pair in fresh.add_batch(probe)}
        assert got == want

    def test_explicit_compact_drops_tombstones(self):
        join = IncrementalSimJoin(threshold=0.3)
        join.add_batch([Record(f"r{i}", {"t": "alpha beta"}) for i in range(6)])
        join.retract("r2")
        join.retract("r4")
        assert join.tombstone_count == 2
        assert join.compact() == 2
        assert join.tombstone_count == 0
        assert join.record_ids == ["r0", "r1", "r3", "r5"]


# ------------------------------------------------------------- union-find
class TestUnionFindDetach:
    def test_detach_dissolves_and_returns_survivors(self):
        uf = IncrementalUnionFind()
        for a, b in [("a", "b"), ("b", "c"), ("x", "y")]:
            uf.union(a, b)
        uf.clear_dirty()
        survivors = uf.detach(["b"])
        assert sorted(survivors) == ["a", "c"]
        assert "b" not in uf
        # Survivors come back as dirty singletons; untouched components stay clean.
        assert uf.component_count == 3
        assert uf.is_dirty("a") and uf.is_dirty("c")
        assert not uf.is_dirty("x")

    def test_detach_unknown_items_is_a_noop(self):
        uf = IncrementalUnionFind()
        uf.union("a", "b")
        assert uf.detach(["ghost"]) == []
        assert uf.connected("a", "b")


# ---------------------------------------------------------------- session
class TestSessionRetraction:
    def test_retraction_is_scoped_to_the_touched_component(self):
        island_a, island_b = two_islands()
        resolver = StreamingResolver(config=make_config(likelihood_threshold=0.5))
        resolver.add_truth([("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("b1", "b2")])
        resolver.add_batch(island_a + island_b)
        votes_b = resolver.votes_for("b1", "b2")
        before = resolver.snapshot()
        posterior_b = before.posteriors[("b1", "b2")]

        result = resolver.retract("a3")
        delta = result.delta
        assert delta.retracted_records == 1
        assert delta.invalidated_pairs == 2  # (a1,a3) and (a2,a3)
        assert delta.dirty_components == 1  # only island A was re-formed
        assert delta.clean_components == 1  # island B untouched
        assert delta.regenerated_hits == 0  # retraction never publishes HITs
        assert delta.crowdsourced_pairs == 0
        # Island B kept its votes and posterior bit-for-bit.
        assert resolver.votes_for("b1", "b2") == votes_b
        assert result.posteriors[("b1", "b2")] == posterior_b
        # The invalidated pairs are gone everywhere.
        for key in [("a1", "a3"), ("a2", "a3")]:
            assert key not in result.posteriors
            assert key not in result.likelihoods
            assert resolver.votes_for(*key) == []
        assert ("a1", "a2") in result.posteriors  # the surviving pair remains

    def test_retraction_matches_a_session_that_never_saw_the_record(self):
        dataset = RestaurantGenerator(
            record_count=60, duplicate_pairs=10, seed=13
        ).generate()
        records = list(dataset.store)
        victim = records[7].record_id

        with_retraction = StreamingResolver(config=make_config())
        with_retraction.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 17):
            with_retraction.add_batch(records[start : start + 17])
        after = with_retraction.retract(victim)

        survivors = [record for record in records if record.record_id != victim]
        never_saw = StreamingResolver(config=make_config())
        never_saw.add_truth(dataset.ground_truth)
        reference = never_saw.snapshot()
        for start in range(0, len(survivors), 17):
            reference = never_saw.add_batch(survivors[start : start + 17])

        # Same surviving candidates with bit-identical likelihoods, same
        # match set (votes are a pure function of the pair key, so the
        # never-retracted pairs aggregated identically).
        assert after.likelihoods == reference.likelihoods
        assert set(after.matches) == set(reference.matches)
        assert after.posteriors == reference.posteriors

    def test_retraction_splits_a_bridged_component(self):
        resolver = StreamingResolver(config=make_config(likelihood_threshold=0.3))
        left = Record("l1", {"t": "alpha beta gamma delta"})
        bridge = Record("m1", {"t": "alpha beta epsilon zeta"})
        right = Record("r1", {"t": "epsilon zeta eta theta"})
        resolver.add_truth([])
        resolver.add_batch([left, bridge, right])
        assert resolver.components.connected("l1", "r1")  # bridged via m1
        result = resolver.retract("m1")
        assert not resolver.components.connected("l1", "r1")
        assert result.delta.invalidated_pairs == 2
        assert resolver.candidate_count == 0

    def test_retract_unknown_record_raises(self):
        resolver = StreamingResolver(config=make_config())
        with pytest.raises(RecordError):
            resolver.retract("ghost")

    def test_provenance_tracks_discovery_coverage_and_votes(self):
        island_a, _ = two_islands()
        resolver = StreamingResolver(config=make_config(likelihood_threshold=0.5))
        resolver.add_truth([("a1", "a2")])
        resolver.add_batch(island_a)
        ledger = resolver.storage.ledger
        assert ("a1", "a2") in ledger.pairs and ("a1", "a2") in ledger.covered
        assert len(resolver.votes_for("a1", "a2")) == resolver.config.assignments_per_hit
        assert ledger.pairs_of("a3") == {("a1", "a3"), ("a2", "a3")}
        assert ledger.pairs_of("b1") == set()
        resolver.retract("a3")
        assert ledger.pairs_of("a3") == set()
        assert ledger.pairs_of("a1") == {("a1", "a2")}


class TestSessionUpdate:
    def test_update_matches_a_session_built_with_the_new_version(self):
        dataset = RestaurantGenerator(
            record_count=50, duplicate_pairs=8, seed=23
        ).generate()
        records = list(dataset.store)
        revised = records[4].with_attributes(name="completely different bistro")

        updating = StreamingResolver(config=make_config())
        updating.add_truth(dataset.ground_truth)
        for start in range(0, len(records), 13):
            updating.add_batch(records[start : start + 13])
        updated = updating.update(revised)
        assert updated.delta.retracted_records == 1

        replaced = [revised if r.record_id == revised.record_id else r for r in records]
        rebuilt = StreamingResolver(config=make_config())
        rebuilt.add_truth(dataset.ground_truth)
        reference = rebuilt.snapshot()
        for start in range(0, len(replaced), 13):
            reference = rebuilt.add_batch(replaced[start : start + 13])

        assert updated.likelihoods == reference.likelihoods
        assert set(updated.matches) == set(reference.matches)

    def test_update_unknown_record_raises(self):
        resolver = StreamingResolver(config=make_config())
        with pytest.raises(RecordError):
            resolver.update(Record("ghost", {"t": "boo"}))

    def test_update_without_text_change_preserves_matches(self):
        island_a, _ = two_islands()
        resolver = StreamingResolver(config=make_config(likelihood_threshold=0.5))
        resolver.add_truth([("a1", "a2"), ("a1", "a3"), ("a2", "a3")])
        before = resolver.add_batch(island_a)
        after = resolver.update(island_a[0])  # identical content
        assert set(after.matches) == set(before.matches)
        assert after.posteriors == before.posteriors
