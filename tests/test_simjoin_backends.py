"""Tests for the batch similarity join: the kernel against its oracle.

The core contract: ``auto`` (the sparse-product kernel) returns the *same*
pair set as ``naive`` (the all-pairs scan) — identical ids, likelihoods and
order — for any store, threshold and source restriction.  The property
tests below drive randomized stores (including empty-token records,
duplicate records and two-source linkage joins) through both.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import random_stores, record_texts

from repro.core.config import WorkflowConfig
from repro.datasets.product import ProductGenerator
from repro.datasets.restaurant import RestaurantGenerator
from repro.records.record import Record, RecordStore
from repro.simjoin.likelihood import SimJoinLikelihood
from repro.simjoin.parallel import VectorizedSimJoin
from repro.simjoin.vectorized import HAVE_SCIPY, BlockScorer, min_overlap, similarity
from repro.similarity import record_similarity
from repro.similarity.set_similarity import jaccard_similarity

THRESHOLDS = (0.1, 0.5, 0.9)
BACKENDS = ("naive", "auto")


def _join(backend, store, threshold, cross_sources=None):
    return SimJoinLikelihood(backend=backend).estimate(
        store, threshold, cross_sources=cross_sources
    )


def _assert_backends_agree(store, threshold, cross_sources=None):
    reference = _join("naive", store, threshold, cross_sources)
    auto = _join("auto", store, threshold, cross_sources)
    assert auto.to_key_set() == reference.to_key_set(), (
        f"auto pair set differs from naive at threshold {threshold}"
    )
    for pair in reference:
        other = auto.get(pair.id_a, pair.id_b)
        assert other.likelihood == pytest.approx(pair.likelihood, abs=1e-9), (
            f"auto likelihood differs for {pair.key} at threshold {threshold}"
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
            pairs = _join(name, store, 0.9)
            assert pairs.to_key_set() == {("a", "b")}, name
            assert pairs.get("a", "b").likelihood == 1.0


@st.composite
def _stores_up_to_40(draw):
    """0-40 records over the shared vocabulary, empty-token records included,
    each tagged with a source so the same store serves linkage joins."""
    texts = draw(st.lists(st.one_of(st.just(""), record_texts), max_size=40))
    store = RecordStore()
    for i, text in enumerate(texts):
        source = ("abt", "buy")[draw(st.integers(0, 1))]
        store.add(Record(f"r{i:03d}", {"name": text}, source=source))
    return store


def _items(pairs):
    """(ids, likelihood) in PairSet order: equality is bit-for-bit and ordered."""
    return [(pair.key, pair.likelihood) for pair in pairs]


class TestAutoEqualsNaive:
    """``auto`` is the kernel, ``naive`` the oracle: one PairSet, two ways."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        store=_stores_up_to_40(),
        threshold=st.sampled_from((0.0, 0.2, 1 / 3, 0.5, 1.0)),
        cross_sources=st.sampled_from((None, ("abt", "buy"), ("abt", "abt"))),
    )
    def test_property_identical_pair_set(self, store, threshold, cross_sources):
        auto = _join("auto", store, threshold, cross_sources)
        naive = _join("naive", store, threshold, cross_sources)
        assert _items(auto) == _items(naive)
        # Canonical order: descending likelihood, ties by key.
        assert _items(auto) == sorted(_items(auto), key=lambda item: (-item[1], item[0]))

    @pytest.mark.parametrize("threshold", (0.2, 0.35))
    @pytest.mark.parametrize("record_count", (9, 255, 257))
    def test_restaurant_stores_around_the_old_crossover(self, record_count, threshold):
        """9 / 255 / 257 records: the sizes the retired size heuristic routed
        to three different engines."""
        store = RestaurantGenerator(
            record_count=record_count, duplicate_pairs=max(3, record_count // 8), seed=7
        ).generate().store
        auto = _join("auto", store, threshold)
        assert len(auto) > 0
        assert _items(auto) == _items(_join("naive", store, threshold))

    @pytest.mark.gate
    @pytest.mark.parametrize("slice_", ("restaurant", "product"))
    def test_the_oracle_prepares_each_record_once(self, slice_, monkeypatch):
        """The count gate of the all-pairs oracle: one tokenisation per
        record.  Tokenising both records of every pair would make 249,500
        on the Restaurant slice (124,750 pairs)."""
        if slice_ == "restaurant":
            dataset = RestaurantGenerator(500, 62, seed=7).generate()
            threshold, expected = 0.35, 500
        else:
            dataset = ProductGenerator(
                shared_entities=110, extra_buy_duplicates=9, abt_only=8, seed=7
            ).generate()
            threshold, expected = 0.2, len(dataset.store)
        auto = _join("auto", dataset.store, threshold, dataset.cross_sources)
        calls = []
        real = record_similarity.record_token_set

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(record_similarity, "record_token_set", counting)
        naive = _join("naive", dataset.store, threshold, dataset.cross_sources)
        assert len(calls) == expected
        assert len(naive) > 0
        assert _items(naive) == _items(auto)


class TestSimJoinLikelihoodBackendSelection:
    def test_explicit_backend_used(self, example_store):
        for name in BACKENDS:
            pairs = SimJoinLikelihood(backend=name).estimate(
                example_store, min_likelihood=0.3
            )
            assert len(pairs) > 0

    @pytest.mark.parametrize("name", ("quantum", "prefix", "vectorized", "parallel"))
    def test_invalid_backend_raises(self, name):
        """Only ``auto`` and ``naive`` exist; the error names both."""
        for build in (
            lambda: SimJoinLikelihood(backend=name),
            lambda: WorkflowConfig(join_backend=name),
        ):
            with pytest.raises(ValueError, match="'auto', 'naive'"):
                build()


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
class TestVectorizedJoin:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VectorizedSimJoin(threshold=1.5)
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

    def test_jaccard_matches_python_reference(self, example_store):
        from repro.records.tokenize import record_token_set

        pairs = VectorizedSimJoin(0.0).join(example_store)
        records = {record.record_id: record for record in example_store}
        for pair in pairs:
            tokens_a = record_token_set(records[pair.id_a])
            tokens_b = record_token_set(records[pair.id_b])
            assert pair.likelihood == jaccard_similarity(tokens_a, tokens_b)


# ------------------------------------------------- the kernel's overlap bound
def _python_similarity(a, b):
    """Exact Jaccard similarity of two token sets, in plain Python floats."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _dense_oracle(threshold, left, right, start, end, triangle, alive):
    """All-pairs reference for the kernel: no product, no prefilter.

    A positive threshold reads a *sparse* product, so pairs sharing no token
    are not the kernel's to report (the engines add empty-vs-empty pairs
    themselves); at threshold zero the kernel scores every pair.
    """
    expected = []
    for row in range(start, end):
        for col, other in enumerate(right):
            if triangle > 0 and not col > row or triangle < 0 and not col < row:
                continue
            if alive is not None and not alive[col]:
                continue
            if threshold > 0.0 and not left[row] & other:
                continue
            value = _python_similarity(left[row], other)
            if value >= threshold:
                expected.append((row, col, value))
    return sorted(expected)


def _incidence(token_sets, width):
    from scipy import sparse

    indptr = np.cumsum([0] + [len(tokens) for tokens in token_sets])
    indices = np.array(
        [token for tokens in token_sets for token in sorted(tokens)], dtype=np.int64
    )
    return sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int32), indices, indptr),
        shape=(len(token_sets), width),
    )


def _score(threshold, left, right=None, start=0, end=None, triangle=0, alive=None):
    """Left rows ``[start, end)`` through ``BlockScorer.score``, as one block
    (a self-product under a triangle is banded, as the engines run it)."""
    end = len(left) if end is None else end
    if end == start:
        return []
    width = 1 + max((token for tokens in left + (right or []) for token in tokens), default=0)
    scorer = BlockScorer(
        _incidence(left, width),
        None if right is None else _incidence(right, width),
        threshold=threshold,
        block_size=end - start,
        triangle=triangle,
        alive=None if alive is None else np.array(alive, dtype=bool),
    )
    rows, cols, values = scorer.score(start)
    return sorted(zip(rows.tolist(), cols.tolist(), values.tolist()))


_kernel_token_sets = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=11), max_size=10),
    min_size=1, max_size=9,
)
_kernel_thresholds = st.one_of(
    st.sampled_from((0.0, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.6, 2 / 3, 0.7, 0.75, 0.9, 1.0)),
    st.floats(min_value=0.01, max_value=1.0),
)


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
class TestKernelOverlapBound:
    """The integer prefilter on the raw product never changes the kernel's output."""

    @settings(max_examples=300, deadline=None)
    @given(
        left=_kernel_token_sets,
        right=st.none() | _kernel_token_sets,
        threshold=_kernel_thresholds,
        triangle=st.sampled_from((-1, 0, 1)),
        data=st.data(),
    )
    def test_scored_block_equals_dense_oracle(
        self, left, right, threshold, triangle, data
    ):
        if right is not None:
            triangle = 0            # the diagonal only means something in a self-product
        columns = left if right is None else right
        start = data.draw(st.integers(min_value=0, max_value=len(left) - 1))
        end = data.draw(st.integers(min_value=start, max_value=len(left)))
        alive = data.draw(
            st.none() | st.lists(st.booleans(), min_size=len(columns), max_size=len(columns))
        )
        assert _score(threshold, left, right, start, end, triangle, alive) == (
            _dense_oracle(threshold, left, columns, start, end, triangle, alive)
        )

    def test_naive_ceiling_would_drop_a_true_pair(self):
        """``0.28 * 25 == 7.000000000000001``: its ceiling is 8, the pair has 7."""
        assert math.ceil(0.28 * 25) == 8
        assert min_overlap(0.28, np.array([25]))[0] == 7
        big, small = frozenset(range(25)), frozenset(range(7))
        assert len(big & small) / len(big | small) >= 0.28
        assert _score(0.28, [big, small], triangle=1) == [(0, 1, 0.28)]

    @pytest.mark.parametrize("threshold,size_a,size_b", [
        # B is a subset of A, sized so that the similarity equals the
        # threshold and the overlap equals the bound exactly.
        (0.3, 10, 3),
        (1 / 3, 3, 1),
        (1 / 3, 9, 3),
        (0.5, 4, 2),
        (1.0, 5, 5),
        (0.7, 10, 7),
        # Every size up to 40 where the float product t * |A| lands above
        # the integer overlap, so a plain ceiling would drop the pair.
        (0.28, 25, 7),
        (14 / 25, 25, 14),
        (15 / 29, 29, 15),
        (29 / 35, 35, 29),
        (21 / 38, 38, 21),
        (25 / 39, 39, 25),
    ])
    def test_pairs_exactly_at_the_threshold_survive(self, threshold, size_a, size_b):
        a, b = frozenset(range(size_a)), frozenset(range(size_b))
        value = _python_similarity(a, b)
        assert value >= threshold
        # Both orientations: the bound comes from the left row's size.
        assert _score(threshold, [a, b]) == [
            (0, 0, 1.0), (0, 1, value), (1, 0, value), (1, 1, 1.0)
        ]
        assert _score(threshold, [a, b], triangle=1) == [(0, 1, value)]

    def test_bound_is_necessary_for_every_small_size(self):
        """Every (|A|, |B|, overlap) up to 40 tokens, 128 thresholds: a pair
        that passes the exact float test is never below the bound."""
        sizes = np.arange(1, 41)
        size_a, size_b, inter = (grid.ravel() for grid in np.meshgrid(sizes, sizes, sizes))
        feasible = inter <= np.minimum(size_a, size_b)
        size_a, size_b, inter = size_a[feasible], size_b[feasible], inter[feasible]
        values = similarity(inter, size_a, size_b)
        thresholds = sorted(
            {k / 100 for k in range(1, 101)} | {p / q for q in range(3, 10) for p in range(1, q)}
        )
        for threshold in thresholds:
            passing = values >= threshold
            assert (inter[passing] >= min_overlap(threshold, size_a[passing])).all(), (
                threshold
            )
