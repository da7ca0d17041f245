"""Tests for the pluggable similarity-join backend registry.

The core contract: every backend (naive all-pairs, prefix-filtering,
vectorized sparse-matrix) returns the *same* pair set — identical ids and
likelihoods within 1e-9 — for any store, threshold and source restriction.
The property tests below drive randomized stores (including empty-token
records, duplicate records and two-source linkage joins) through all three
engines at thresholds 0.1, 0.5 and 0.9.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from strategies import random_stores

from repro.records.pairs import PairSet
from repro.records.record import Record, RecordStore
from repro.simjoin.backend import (
    AUTO_BACKEND,
    AUTO_VECTORIZED_MIN_RECORDS,
    NaiveJoinBackend,
    SimJoinBackend,
    auto_backend_name,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.simjoin.likelihood import SimJoinLikelihood
from repro.simjoin.prefix_filter import PrefixFilterJoin
from repro.simjoin.vectorized import HAVE_SCIPY, VectorizedSimJoin
from repro.similarity.set_similarity import (
    cosine_token_similarity,
    dice_similarity,
    jaccard_similarity,
)

THRESHOLDS = (0.1, 0.5, 0.9)
# The vectorized backend needs scipy; on scipy-less installs the naive and
# prefix engines must still agree, so it is dropped rather than skipped.
BACKENDS = ("naive", "prefix") + (("vectorized",) if HAVE_SCIPY else ())

def _assert_backends_agree(store, threshold, cross_sources=None):
    results = {
        name: get_backend(name).join(store, threshold, cross_sources=cross_sources)
        for name in BACKENDS
    }
    reference = results["naive"]
    for name in BACKENDS[1:]:
        assert results[name].to_key_set() == reference.to_key_set(), (
            f"{name} pair set differs from naive at threshold {threshold}"
        )
        for pair in reference:
            other = results[name].get(pair.id_a, pair.id_b)
            assert other.likelihood == pytest.approx(pair.likelihood, abs=1e-9), (
                f"{name} likelihood differs for {pair.key} at threshold {threshold}"
            )


class TestBackendEquivalence:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(store=random_stores())
    def test_self_join_backends_identical(self, store):
        for threshold in THRESHOLDS:
            _assert_backends_agree(store, threshold)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(store=random_stores(with_sources=True))
    def test_cross_source_backends_identical(self, store):
        for threshold in THRESHOLDS:
            _assert_backends_agree(store, threshold, cross_sources=("abt", "buy"))

    def test_zero_threshold_backends_identical(self, example_store):
        _assert_backends_agree(example_store, 0.0)

    def test_empty_token_records_pair_up(self):
        """Two token-less records are textually identical (similarity 1.0)."""
        store = RecordStore()
        store.add(Record("a", {"name": ""}))
        store.add(Record("b", {"name": ""}))
        store.add(Record("c", {"name": "apple ipad"}))
        for name in BACKENDS:
            pairs = get_backend(name).join(store, 0.9)
            assert pairs.to_key_set() == {("a", "b")}, name
            assert pairs.get("a", "b").likelihood == 1.0


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("quantum")

    def test_register_custom_backend(self):
        class EmptyBackend(SimJoinBackend):
            name = "empty-test"

            def join(self, store, threshold, attributes=None, cross_sources=None):
                return PairSet()

        register_backend("empty-test", EmptyBackend)
        try:
            assert isinstance(get_backend("empty-test"), EmptyBackend)
            assert "empty-test" in available_backends()
        finally:
            from repro.simjoin import backend as backend_module

            del backend_module._REGISTRY["empty-test"]

    def test_auto_name_reserved(self):
        with pytest.raises(ValueError):
            register_backend(AUTO_BACKEND, NaiveJoinBackend)

    def test_auto_heuristic(self):
        large = AUTO_VECTORIZED_MIN_RECORDS
        if HAVE_SCIPY:
            assert auto_backend_name(large, 0.3) == "vectorized"
            assert auto_backend_name(large, 0.0) == "vectorized"
        assert auto_backend_name(10, 0.3) == "prefix"
        assert auto_backend_name(10, 0.0) == "naive"

    def test_resolve_backend_by_name_and_auto(self):
        assert resolve_backend("naive").name == "naive"
        auto = resolve_backend(AUTO_BACKEND, record_count=10, threshold=0.5)
        assert auto.name == "prefix"


class TestSimJoinLikelihoodBackendSelection:
    def test_explicit_backend_used(self, example_store):
        for name in BACKENDS:
            pairs = SimJoinLikelihood(backend=name).estimate(
                example_store, min_likelihood=0.3
            )
            assert len(pairs) > 0

    def test_invalid_backend_raises(self, example_store):
        with pytest.raises(ValueError):
            SimJoinLikelihood(backend="quantum").estimate(example_store, min_likelihood=0.3)


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
class TestVectorizedJoin:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VectorizedSimJoin(threshold=1.5)
        with pytest.raises(ValueError):
            VectorizedSimJoin(measure="hamming")
        with pytest.raises(ValueError):
            VectorizedSimJoin(block_size=0)

    def test_tiny_stores(self):
        store = RecordStore()
        assert len(VectorizedSimJoin(0.5).join(store)) == 0
        store.add(Record("a", {"name": "solo"}))
        assert len(VectorizedSimJoin(0.5).join(store)) == 0

    def test_blocking_is_transparent(self, example_store):
        whole = VectorizedSimJoin(0.2, block_size=1024).join(example_store)
        blocked = VectorizedSimJoin(0.2, block_size=2).join(example_store)
        assert whole.to_key_set() == blocked.to_key_set()

    @pytest.mark.parametrize("measure,reference", [
        ("jaccard", jaccard_similarity),
        ("dice", dice_similarity),
        ("cosine", cosine_token_similarity),
    ])
    def test_measures_match_python_reference(self, example_store, measure, reference):
        from repro.records.tokenize import record_token_set

        pairs = VectorizedSimJoin(0.0, measure=measure).join(example_store)
        records = {record.record_id: record for record in example_store}
        for pair in pairs:
            tokens_a = record_token_set(records[pair.id_a])
            tokens_b = record_token_set(records[pair.id_b])
            # cosine_token_similarity takes sequences; sets are fine for the
            # binary (distinct-token) case the vectorized join computes.
            expected = reference(sorted(tokens_a), sorted(tokens_b))
            assert pair.likelihood == pytest.approx(expected, abs=1e-9)


class TestPrefixFilterStillExact:
    """The new length/positional filters must not drop true pairs."""

    def test_matches_naive_on_paper_example_fine_thresholds(self, example_store):
        backend = get_backend("naive")
        for threshold in (0.05, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0):
            naive = backend.join(example_store, threshold)
            filtered = PrefixFilterJoin(threshold=threshold).join(example_store)
            assert filtered.to_key_set() == naive.to_key_set(), threshold

    def test_identical_records_survive_threshold_one(self):
        store = RecordStore()
        store.add(Record("a", {"name": "apple ipad mini"}))
        store.add(Record("b", {"name": "apple ipad mini"}))
        store.add(Record("c", {"name": "sony walkman"}))
        pairs = PrefixFilterJoin(threshold=1.0).join(store)
        assert pairs.to_key_set() == {("a", "b")}
