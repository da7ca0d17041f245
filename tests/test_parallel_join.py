"""Property tests for the sharded join and the columnar CSR build.

The central contract of :mod:`repro.simjoin.parallel`: for *any* worker
count (including more workers than shards), any threshold and any store,
:class:`VectorizedSimJoin` with ``workers=N`` returns
**bit-identical** pair sets and likelihoods to ``workers=1`` — asserted
with exact ``==`` on the floats, not a tolerance.  The columnar index builders must
produce matrices whose intersection counts (``X @ X.T``) equal ``len(a & b)``
on the token sets themselves, which is the invariant every similarity value
rests on.
"""

import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import WORDS as _WORDS
from strategies import random_stores

import repro
import repro.simjoin
from repro import obs
from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.datasets.restaurant import RestaurantGenerator
from repro.records.pairs import PairSet, RecordPair
from repro.records.record import Record, RecordStore
from repro.simjoin import parallel as parallel_module
from repro.simjoin import vectorized
from repro.simjoin.columnar import (
    columnar_csr_arrays,
    extend_vocabulary_csr_arrays,
)
from repro.simjoin.parallel import (
    VectorizedSimJoin,
    join_blocks,
    ranked_pair_set,
    resolve_worker_count,
)
from repro.simjoin.vectorized import HAVE_SCIPY, BlockScorer
from repro.streaming.incremental_join import IncrementalSimJoin
from repro.streaming.session import resolve_stream

pytestmark = pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")

if HAVE_SCIPY:
    from scipy import sparse


def pair_items(pairs):
    """Canonical (key, likelihood) list for exact set comparison."""
    return sorted((pair.key, pair.likelihood) for pair in pairs)


def block_sequence(join, store, cross_sources=None):
    """Every pair block the join yields for the store, in the order yielded."""
    return list(
        join._pair_blocks(
            join._incidence_matrix(store), join._plan(list(store), cross_sources)
        )
    )


def same_block_sequence(actual, expected):
    """Same block boundaries and same contents, array for array."""
    return len(actual) == len(expected) and all(
        np.array_equal(mine, theirs)
        for block, other in zip(actual, expected)
        for mine, theirs in zip(block, other)
    )


def canonical_sort(pairs):
    """The canonical order, as the Python sort the kernel's order replaces."""
    return sorted(pairs, key=lambda pair: (-(pair.likelihood or 0.0), pair.key))


def items_in_order(pairs):
    return [(pair.key, pair.likelihood) for pair in pairs]


def restaurant_store(record_count, seed):
    return RestaurantGenerator(
        record_count=record_count, duplicate_pairs=record_count // 8, seed=seed
    ).generate().store


class TestParallelEqualsVectorized:
    """``workers=N`` == ``workers=1``."""

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        store=random_stores(),
        threshold=st.sampled_from((0.0, 0.3, 0.7)),
        workers=st.sampled_from((1, 2, 3, 8)),
    )
    def test_property_bit_identical_self_join(self, store, threshold, workers):
        # block_size=2 forces many shards even on tiny stores, so the pool
        # path (not just the workers<=1 degenerate case) is exercised.
        serial = VectorizedSimJoin(threshold, block_size=2).join(store)
        parallel = VectorizedSimJoin(
            threshold, block_size=2, workers=workers
        ).join(store)
        assert pair_items(parallel) == pair_items(serial)
        assert same_block_sequence(
            block_sequence(
                VectorizedSimJoin(threshold, block_size=2, workers=workers),
                store,
            ),
            block_sequence(VectorizedSimJoin(threshold, block_size=2), store),
        )

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        store=random_stores(with_sources=True),
        threshold=st.sampled_from((0.0, 0.5)),
        workers=st.sampled_from((1, 2, 6)),
    )
    def test_property_bit_identical_cross_source(self, store, threshold, workers):
        serial = VectorizedSimJoin(threshold, block_size=2).join(
            store, cross_sources=("abt", "buy")
        )
        parallel = VectorizedSimJoin(threshold, block_size=2, workers=workers).join(
            store, cross_sources=("abt", "buy")
        )
        assert pair_items(parallel) == pair_items(serial)
        assert same_block_sequence(
            block_sequence(
                VectorizedSimJoin(threshold, block_size=2, workers=workers),
                store, ("abt", "buy"),
            ),
            block_sequence(VectorizedSimJoin(threshold, block_size=2), store, ("abt", "buy")),
        )

    @pytest.mark.parametrize("workers", (1, 2, 5, 64))
    def test_restaurant_dataset_bit_identical(self, workers):
        dataset = RestaurantGenerator(
            record_count=300, duplicate_pairs=40, seed=3
        ).generate()
        serial = VectorizedSimJoin(0.3, block_size=64).join(dataset.store)
        parallel = VectorizedSimJoin(0.3, block_size=64, workers=workers).join(
            dataset.store
        )
        # workers=64 is far more workers than the ~5 row blocks: the extra
        # workers idle, the result must not change.
        assert pair_items(parallel) == pair_items(serial)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            VectorizedSimJoin(workers=-1)
        assert resolve_worker_count(0) >= 1
        assert resolve_worker_count(None) >= 1
        assert resolve_worker_count(7) == 7

    def test_single_shard_store_uses_serial_path(self):
        # Default block size >> store size: one shard, no pool to pay for.
        store = RecordStore()
        store.add(Record("a", {"name": "apple ipad"}))
        store.add(Record("b", {"name": "apple ipad"}))
        pairs = VectorizedSimJoin(0.5, workers=8).join(store)
        assert pair_items(pairs) == [(("a", "b"), 1.0)]


class TestBandedProduct:
    """A triangle-masked self-product multiplies each block only by the rows
    on its side of the diagonal; nothing it returns may change."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        store=random_stores(),
        threshold=st.sampled_from((0.0, 0.3, 0.7)),
        triangle=st.sampled_from((1, -1)),
        workers=st.sampled_from((1, 2)),
        data=st.data(),
    )
    def test_property_banded_blocks_equal_the_full_product(
        self, store, threshold, triangle, workers, data
    ):
        matrix = VectorizedSimJoin()._incidence_matrix(store)
        count = matrix.shape[0]
        start = data.draw(st.integers(min_value=0, max_value=count - 1))
        block_size = data.draw(st.integers(min_value=1, max_value=count))
        alive = data.draw(
            st.none() | st.lists(st.booleans(), min_size=count, max_size=count)
        )
        alive = None if alive is None else np.array(alive, dtype=bool)
        banded = list(join_blocks(
            matrix, start=start, workers=workers, threshold=threshold,
            block_size=block_size, triangle=triangle, alive=alive,
        ))
        # The reference: every block against the whole matrix (passed as
        # the right operand, so it is not banded), under the same mask.
        whole = BlockScorer(
            matrix, matrix, threshold=threshold, block_size=block_size,
            triangle=triangle, alive=alive,
        )
        expected = [whole.score(block_start) for block_start in whole.block_starts(start)]
        assert same_block_sequence(banded, expected)

    @pytest.mark.gate
    def test_the_self_join_computes_the_kept_side_of_each_block_only(self):
        store = restaurant_store(2000, seed=7)  # Restaurant(2000, 250, seed 7)
        obs.activate()
        try:
            pairs = VectorizedSimJoin(threshold=0.35).join(store)
            entries = obs.snapshot().counter_total(
                "simjoin_product_entries_total", kind="self"
            )
        finally:
            obs.deactivate()
        matrix = VectorizedSimJoin()._incidence_matrix(store)
        whole = (matrix @ matrix.T).nnz
        assert whole == 2_046_222
        assert entries == 1_151_738 <= 0.57 * whole
        assert len(pairs) == 659

    def test_a_single_block_append_multiplies_the_whole_matrix_as_before(self):
        records = list(restaurant_store(300, seed=5))
        join = IncrementalSimJoin(threshold=0.3)
        join.add_batch(records[:200])
        obs.activate()
        try:
            join.add_batch(records[200:])
            entries = obs.snapshot().counter_total(
                "simjoin_product_entries_total", kind="new_vs_old"
            )
        finally:
            obs.deactivate()
        store = RecordStore()
        for record in records:
            store.add(record)
        matrix = VectorizedSimJoin()._incidence_matrix(store)
        assert entries == (matrix[200:] @ matrix.T).nnz > 0


#: Ids whose ``str`` order is not their arrival order (``"r10" < "r9"``),
#: non-ASCII ids, and an id that a numpy string array would merge with
#: another (``"a\x00"`` loses its trailing NUL there and equals ``"a"``).
_TRICKY_IDS = ["r9", "r10", "r1", "é", "ß", "Z", "a", "a\x00", "a\x00\x00", "\x00", "日本"]


class TestCanonicalOrder:
    """The join orders its pairs on the arrays exactly as the Python sort did."""

    @settings(max_examples=100, deadline=None)
    @given(
        ids=st.permutations(_TRICKY_IDS),
        data=st.data(),
    )
    def test_property_ranked_pair_set_equals_the_python_sort(self, ids, data):
        every_pair = [(i, j) for i in range(len(ids)) for j in range(len(ids)) if i != j]
        chosen = data.draw(st.lists(st.sampled_from(every_pair), max_size=30))
        seen, rows, cols = set(), [], []
        for i, j in chosen:
            if frozenset((i, j)) not in seen:
                seen.add(frozenset((i, j)))
                rows.append(i)
                cols.append(j)
        # Few distinct values: many ties, broken by key alone.
        values = data.draw(st.lists(
            st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=len(rows), max_size=len(rows)
        ))
        expected = PairSet(canonical_sort(
            RecordPair(ids[i], ids[j], likelihood=v) for i, j, v in zip(rows, cols, values)
        ))
        arrays = (
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(values, dtype=np.float64),
        )
        split = data.draw(st.integers(min_value=0, max_value=len(rows)))
        blocks = [tuple(a[:split] for a in arrays), tuple(a[split:] for a in arrays)]
        assert items_in_order(ranked_pair_set(ids, blocks)) == items_in_order(expected)

    def test_no_blocks_and_empty_blocks(self):
        assert len(ranked_pair_set(["a", "b"], [])) == 0
        empty = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
        assert len(ranked_pair_set(["a", "b"], [empty, empty])) == 0

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        store=random_stores(with_sources=True),
        threshold=st.sampled_from((0.0, 0.3, 0.7)),
        batch_size=st.integers(min_value=1, max_value=6),
    )
    def test_property_join_and_streaming_deltas_come_out_sorted(
        self, store, threshold, batch_size
    ):
        # Renamed so that str order is not arrival order ("r10" < "r9").
        records = [
            Record(f"r{len(store) - position}", record.attributes, source=record.source)
            for position, record in enumerate(store)
        ]
        renamed = RecordStore()
        for record in records:
            renamed.add(record)
        for cross_sources in (None, ("abt", "buy")):
            joined = VectorizedSimJoin(threshold, block_size=2).join(
                renamed, cross_sources=cross_sources
            )
            assert items_in_order(joined) == items_in_order(canonical_sort(joined))
            join = IncrementalSimJoin(
                threshold=threshold, cross_sources=cross_sources, block_size=2
            )
            streamed = {}
            for first in range(0, len(records), batch_size):
                delta = join.add_batch(records[first : first + batch_size])
                assert items_in_order(delta) == items_in_order(canonical_sort(delta))
                streamed.update(items_in_order(delta))
            assert sorted(streamed.items()) == pair_items(joined)


class TestWorkerThreads:
    """What threads change: shared address space, shared interpreter."""

    def test_default_worker_count_is_the_cores_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert resolve_worker_count(0) == resolve_worker_count(None) == 3
        monkeypatch.delattr("os.sched_getaffinity")
        assert resolve_worker_count(0) == 64

    def test_concurrent_sharded_joins_each_equal_their_serial_join(self):
        """The server's shard owners: K threads, each running a sharded join
        on its own store at the same moment."""
        stores = [restaurant_store(120, seed) for seed in range(4)]
        expected = [
            pair_items(VectorizedSimJoin(0.3, block_size=8).join(store))
            for store in stores
        ]
        ready = threading.Barrier(len(stores))

        def sharded(store):
            ready.wait(timeout=30)
            return pair_items(VectorizedSimJoin(0.3, block_size=8, workers=2).join(store))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # 8 join threads on 2 cores, switching hard
        try:
            with ThreadPoolExecutor(len(stores)) as owners:
                assert list(owners.map(sharded, stores, timeout=60)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_a_raising_block_surfaces_and_cancels_the_rest(self, monkeypatch):
        store = restaurant_store(200, seed=13)
        real_score_product = vectorized.score_product
        scored = []

        def failing_score_product(product, left_sizes, right_sizes, start, *rest):
            if start == 0:
                raise MemoryError("block 0")
            time.sleep(0.02)  # the failure is seen while most blocks still wait
            scored.append(start)
            return real_score_product(product, left_sizes, right_sizes, start, *rest)

        monkeypatch.setattr(vectorized, "score_product", failing_score_product)
        threads_before = threading.active_count()
        with pytest.raises(MemoryError, match="block 0"):
            VectorizedSimJoin(0.3, block_size=2, workers=2).join(store)
        assert threading.active_count() == threads_before
        assert len(scored) < len(store) // 2 // 2  # of 100 blocks, most never ran

    @pytest.mark.parametrize("workers", (1, 2))
    def test_block_spans_descend_from_the_one_map_span(self, workers, tmp_path):
        store = restaurant_store(300, seed=3)
        trace = tmp_path / "trace.jsonl"
        obs.activate(trace_path=str(trace))
        try:
            VectorizedSimJoin(0.3, block_size=64, workers=workers).join(store)
            snapshot = obs.snapshot()
        finally:
            obs.deactivate()
        spans = [
            event for event in map(json.loads, trace.read_text().splitlines())
            if event.get("type") == "span"
        ]
        blocks = [span for span in spans if span["name"] == "simjoin.vectorized.block"]
        maps = [span for span in spans if span["name"] == "simjoin.parallel.map"]
        assert len(blocks) == 5  # ceil(300 / 64), whatever the worker count
        assert snapshot.get("simjoin_parallel_shard_seconds") is None
        if workers == 1:
            assert not maps
            return
        assert len(maps) == 1
        assert {span["parent_id"] for span in blocks} == {maps[0]["span_id"]}
        assert snapshot.counter_total("simjoin_parallel_shards_total", kind="self") == 5


class TestNoSecondRuntime:
    """The join has no process pool to fall back into."""

    def test_src_has_no_process_or_shared_memory_machinery(self):
        root = Path(next(iter(repro.__path__)))
        assert not (root / "simjoin" / "pool.py").exists()
        for path in sorted(root.rglob("*.py")):
            source = path.read_text()
            for name in ("multiprocessing", "/dev/shm", "memmap"):
                assert name not in source, (path, name)

    def test_simjoin_exports_no_pool_names(self):
        for name in (
            "ShardPool", "SharedArrayBlock", "active_pools", "shared_pool",
            "shutdown_pools",
        ):
            assert not hasattr(repro.simjoin, name), name
        for name in ("shard_bounds", "SHARDS_PER_WORKER", "_pooled_shard"):
            assert not hasattr(parallel_module, name), name

    def test_the_default_block_rows_are_defined_once(self):
        source = "".join(
            path.read_text() for path in Path(next(iter(repro.__path__))).rglob("*.py")
        )
        assert len(re.findall(r"^DEFAULT_BLOCK_ROWS = \d+$", source, re.MULTILINE)) == 1
        defaults = re.findall(r"block_size: int = (\w+)", source)
        assert len(defaults) == 4 and set(defaults) == {"DEFAULT_BLOCK_ROWS"}


# ---------------------------------------------------------- columnar build
def _gram(indices, indptr, width):
    matrix = sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int64), indices, indptr),
        shape=(len(indptr) - 1, max(1, width)),
    )
    return (matrix @ matrix.T).toarray()


class TestColumnarBuild:
    @given(token_sets=st.lists(st.lists(st.sampled_from(_WORDS), max_size=6).map(set), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_intersection_counts_match_per_record_loop(self, token_sets):
        indices, indptr, width = columnar_csr_arrays(
            [sorted(tokens) for tokens in token_sets]
        )
        assert np.diff(indptr).tolist() == [len(tokens) for tokens in token_sets]
        assert width == len(set().union(*token_sets))
        # Every pairwise intersection count — all any similarity uses —
        # equals the set intersection computed on the tokens themselves.
        expected = [[len(a & b) for b in token_sets] for a in token_sets]
        assert _gram(indices, indptr, width).tolist() == expected

    @given(
        token_sets=st.lists(
            st.lists(st.sampled_from(_WORDS), max_size=5).map(set), max_size=12
        ),
        split=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_incremental_vocabulary_matches_one_shot(self, token_sets, split):
        token_sets = [sorted(tokens) for tokens in token_sets]
        split = min(split, len(token_sets))
        vocab = {}
        first_idx, first_ptr = extend_vocabulary_csr_arrays(token_sets[:split], vocab)
        second_idx, second_ptr = extend_vocabulary_csr_arrays(token_sets[split:], vocab)
        merged_idx = np.concatenate([first_idx, second_idx])
        merged_ptr = np.concatenate([first_ptr, second_ptr[1:] + first_ptr[-1]])
        one_shot = columnar_csr_arrays(token_sets)
        assert len(vocab) == one_shot[2]
        assert merged_ptr.tolist() == one_shot[1].tolist()
        assert np.array_equal(
            _gram(merged_idx, merged_ptr, len(vocab)), _gram(*one_shot)
        )

    def test_empty_inputs(self):
        indices, indptr, width = columnar_csr_arrays([])
        assert len(indices) == 0 and indptr.tolist() == [0] and width == 0
        indices, indptr, width = columnar_csr_arrays([set(), set()])
        assert len(indices) == 0 and indptr.tolist() == [0, 0, 0] and width == 0


# ---------------------------------------------------------- streaming layer
class TestStreamingWithWorkers:
    def test_incremental_join_workers_bit_identical(self):
        dataset = RestaurantGenerator(
            record_count=100, duplicate_pairs=15, seed=9
        ).generate()
        originals = [
            Record(record.record_id, record.attributes, source="abt")
            for record in dataset.store
        ]
        # Each 40-record batch is 20 records followed by their 20 exact
        # copies: every copy sits 20 rows after its original, so with
        # block_size=8 the two always fall into different shards — the
        # intra-batch (new-vs-new) pairs are found across shard boundaries.
        batches = []
        for start in range(0, len(originals), 20):
            chunk = originals[start : start + 20]
            copies = [
                Record(f"{record.record_id}-copy", record.attributes, source="buy")
                for record in chunk
            ]
            batches.append(chunk + copies)
        for cross_sources in (None, ("abt", "buy")):
            joins = {
                workers: IncrementalSimJoin(
                    threshold=0.3, cross_sources=cross_sources,
                    block_size=8, workers=workers,
                )
                for workers in (1, 3)
            }
            for batch in batches:
                deltas = {
                    workers: join.add_batch(batch) for workers, join in joins.items()
                }
                assert pair_items(deltas[3]) == pair_items(deltas[1])
                found = {pair.key: pair.likelihood for pair in deltas[3]}
                for record in batch[:20]:
                    key = (record.record_id, f"{record.record_id}-copy")
                    assert found[key] == 1.0

    def test_streaming_with_join_workers_equals_one_shot_resolve(self):
        dataset = RestaurantGenerator(
            record_count=90, duplicate_pairs=15, seed=11
        ).generate()
        config = WorkflowConfig(
            likelihood_threshold=0.35,
            join_workers=2,
            vote_mode="per-pair",
            aggregation="majority",
            seed=11,
        )
        one_shot = HybridWorkflow(config).resolve(dataset)
        stream = resolve_stream(dataset, config=config, batch_size=23)
        assert stream.likelihoods == one_shot.likelihoods
        assert stream.posteriors == one_shot.posteriors
        assert set(stream.matches) == set(one_shot.matches)
        assert stream.ranked_pairs == one_shot.ranked_pairs
