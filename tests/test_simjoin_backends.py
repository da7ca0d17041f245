"""Tests for the batch similarity join: the kernel against its oracle.

The core contract: ``auto`` (one append of the store to an empty
:class:`IncrementalSimJoin`, the sparse-product kernel) returns the *same*
pair set as ``naive`` (the all-pairs scan) — identical ids, likelihoods and
order — for any store, threshold and source restriction.  The property
tests below drive randomized stores (including empty-token records,
duplicate records, two-source linkage joins and records of neither source)
through both.
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
from repro.simjoin.vectorized import (
    BlockScorer,
    block_incidence,
    min_overlap,
    similarity,
)
from repro.similarity import record_similarity
from repro.similarity.set_similarity import jaccard_similarity
from repro.streaming.incremental_join import IncrementalSimJoin

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
    each tagged with a source (or none) so the same store serves linkage
    joins, records that belong to neither joined source included."""
    texts = draw(st.lists(st.one_of(st.just(""), record_texts), max_size=40))
    store = RecordStore()
    for i, text in enumerate(texts):
        source = draw(st.sampled_from(("abt", "buy", "pos", None)))
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


class TestVectorizedJoin:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IncrementalSimJoin(threshold=1.5)
        with pytest.raises(ValueError):
            IncrementalSimJoin(threshold=0.0, block_size=0)

    def test_tiny_stores(self):
        store = RecordStore()
        assert len(_join("auto", store, 0.5)) == 0
        store.add(Record("a", {"name": "solo"}))
        assert len(_join("auto", store, 0.5)) == 0

    def test_blocking_is_transparent(self, example_store):
        records = list(example_store)
        whole = IncrementalSimJoin(0.2, block_size=1024).add_batch(records)
        blocked = IncrementalSimJoin(0.2, block_size=2).add_batch(records)
        assert _items(whole) == _items(blocked)

    def test_jaccard_matches_python_reference(self, example_store):
        from repro.records.tokenize import record_token_set

        pairs = _join("auto", example_store, 0.0)
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


def _dense_oracle(threshold, token_sets, start, end, alive):
    """All-pairs reference for the kernel: no product, no prefilter, no band.

    At a positive threshold the kernel's overlap bound is at least 1, so
    pairs sharing no token are not the kernel's to report (the engines add
    empty-vs-empty pairs themselves); at threshold zero the kernel scores
    every pair below the diagonal.
    """
    expected = []
    for row in range(start, end):
        for col, other in enumerate(token_sets[:row]):
            if alive is not None and not alive[col]:
                continue
            if threshold > 0.0 and not token_sets[row] & other:
                continue
            value = _python_similarity(token_sets[row], other)
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


def _score(threshold, token_sets, start=0, end=None, alive=None):
    """Rows ``[start, end)`` through ``BlockScorer.score``, as one block
    (banded, as the join runs it)."""
    end = len(token_sets) if end is None else end
    if end == start:
        return []
    width = 1 + max((token for tokens in token_sets for token in tokens), default=0)
    scorer = BlockScorer(
        _incidence(token_sets, width),
        threshold=threshold,
        block_size=end - start,
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


class TestKernelOverlapBound:
    """The integer prefilter on the raw product never changes the kernel's output."""

    @settings(max_examples=300, deadline=None)
    @given(
        token_sets=_kernel_token_sets,
        threshold=_kernel_thresholds,
        data=st.data(),
    )
    def test_scored_block_equals_dense_oracle(self, token_sets, threshold, data):
        start = data.draw(st.integers(min_value=0, max_value=len(token_sets) - 1))
        end = data.draw(st.integers(min_value=start, max_value=len(token_sets)))
        alive = data.draw(
            st.none()
            | st.lists(st.booleans(), min_size=len(token_sets), max_size=len(token_sets))
        )
        assert _score(threshold, token_sets, start, end, alive) == (
            _dense_oracle(threshold, token_sets, start, end, alive)
        )

    @pytest.mark.parametrize("threshold", (0.0, 0.3, 1.0))
    def test_only_pairs_below_the_diagonal_are_scored(self, threshold):
        """Identical rows score 1.0 with one another, yet no row is paired
        with itself or a later row, in a band from the first row or not."""
        token_sets = [frozenset({1, 2, 3})] * 4
        assert _score(threshold, token_sets) == [
            (row, col, 1.0) for row in range(4) for col in range(row)
        ]
        assert _score(threshold, token_sets, start=2) == [
            (row, col, 1.0) for row in (2, 3) for col in range(row)
        ]

    def test_naive_ceiling_would_drop_a_true_pair(self):
        """``0.28 * 25 == 7.000000000000001``: its ceiling is 8, the pair has 7."""
        assert math.ceil(0.28 * 25) == 8
        assert min_overlap(0.28, np.array([25]))[0] == 7
        big, small = frozenset(range(25)), frozenset(range(7))
        assert len(big & small) / len(big | small) >= 0.28
        # The bound is the row's: the big set's row, below the diagonal.
        assert _score(0.28, [small, big]) == [(1, 0, 0.28)]

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
        # Both orientations: the bound comes from the row's size.
        assert _score(threshold, [a, b]) == [(1, 0, value)]
        assert _score(threshold, [b, a]) == [(1, 0, value)]

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


class TestDenseBlockDtype:
    """A block's counts are held in the smallest unsigned type that fits its
    largest row; a count equal to that row's size must not wrap."""

    @pytest.mark.parametrize("largest, dtype", (
        (255, np.uint8), (256, np.uint16), (65_536, np.uint32),
    ))
    @pytest.mark.parametrize("threshold", (0.0, 0.3, 1.0))
    def test_counts_up_to_the_largest_row_size_equal_the_oracle(
        self, largest, dtype, threshold
    ):
        big = frozenset(range(largest))
        # Two copies of the largest row share all of its tokens.
        token_sets = [
            big, frozenset(range(largest // 3)), big,
            frozenset(range(largest - 1, largest + 2)), frozenset(),
        ]
        assert _score(threshold, token_sets) == _dense_oracle(
            threshold, token_sets, 0, len(token_sets), None
        )
        matrix = _incidence(token_sets, largest + 2)
        _tokens, dense = block_incidence(matrix, np.diff(matrix.indptr), 0, len(token_sets))
        assert dense.dtype == dtype
