"""Property tests for the sharded join and the columnar CSR build.

The central contract of :mod:`repro.simjoin.parallel`: for *any* worker
count (including more workers than shards), any threshold, any measure and
any store, :class:`VectorizedSimJoin` with ``workers=N`` returns
**bit-identical** pair sets and likelihoods to ``workers=1`` — asserted
with exact ``==`` on the floats, not a tolerance.  The columnar index builders must
produce matrices whose intersection counts (``X @ X.T``) equal ``len(a & b)``
on the token sets themselves, which is the invariant every similarity value
rests on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import WORDS as _WORDS
from strategies import random_stores, similarity_measures

from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.datasets.restaurant import RestaurantGenerator
from repro.records.record import Record, RecordStore
from repro.simjoin.columnar import (
    columnar_csr_arrays,
    extend_vocabulary_csr_arrays,
)
from repro.simjoin.likelihood import POOL_MIN_RECORDS, SimJoinLikelihood
from repro.simjoin.parallel import (
    VectorizedSimJoin,
    resolve_worker_count,
    shard_bounds,
)
from repro.simjoin.pool import (
    WORKER_CACHE_BLOCKS,
    active_pools,
    shared_pool,
    shutdown_pools,
)
from repro.simjoin.vectorized import HAVE_SCIPY
from repro.streaming.incremental_join import IncrementalSimJoin
from repro.streaming.session import resolve_stream

pytestmark = pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")

if HAVE_SCIPY:
    from scipy import sparse


def pair_items(pairs):
    """Canonical (key, likelihood) list for exact set comparison."""
    return sorted((pair.key, pair.likelihood) for pair in pairs)


def _worker_cache_size(_task):
    """Runs inside a pool worker: (pid, blocks its scorer cache holds)."""
    import os
    import time

    from repro.simjoin import parallel

    time.sleep(0.05)  # long enough that every worker takes a task
    return os.getpid(), len(parallel._WORKER_SCORERS)


class TestParallelEqualsVectorized:
    """``workers=N`` == ``workers=1``."""

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        store=random_stores(),
        threshold=st.sampled_from((0.0, 0.3, 0.7)),
        measure=similarity_measures,
        workers=st.sampled_from((1, 2, 3, 8)),
    )
    def test_property_bit_identical_self_join(self, store, threshold, measure, workers):
        # block_size=2 forces many shards even on tiny stores, so the pool
        # path (not just the workers<=1 degenerate case) is exercised.
        serial = VectorizedSimJoin(threshold, measure=measure, block_size=2).join(store)
        parallel = VectorizedSimJoin(
            threshold, measure=measure, block_size=2, workers=workers
        ).join(store)
        assert pair_items(parallel) == pair_items(serial)

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


class TestShardBounds:
    @given(
        count=st.integers(min_value=0, max_value=500),
        workers=st.integers(min_value=1, max_value=16),
        block_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_partition_the_row_range(self, count, workers, block_size):
        bounds = shard_bounds(count, workers, block_size)
        if count == 0:
            assert bounds == []
            return
        assert bounds[0][0] == 0
        assert bounds[-1][1] == count
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start  # contiguous, disjoint
        assert all(start < stop for start, stop in bounds)


class TestPoolFloor:
    def test_auto_scores_small_stores_inline_whatever_the_worker_count(self):
        """Below ``POOL_MIN_RECORDS`` the batch join never touches the pool."""
        dataset = RestaurantGenerator(
            record_count=2100, duplicate_pairs=100, seed=3
        ).generate()
        assert 2 * 1024 < len(dataset.store) < POOL_MIN_RECORDS  # several row blocks
        shutdown_pools()
        pairs = SimJoinLikelihood(workers=4).estimate(dataset.store, 0.35)
        assert not active_pools()
        assert pair_items(pairs) == pair_items(
            VectorizedSimJoin(0.35, workers=4).join(dataset.store)
        )
        assert active_pools()  # the explicit worker count did shard


# ------------------------------------------------------------- reused pool
class TestReusedPool:
    """The long-lived pool: same workers across batches, same answers."""

    def _halves(self, seed=5):
        dataset = RestaurantGenerator(
            record_count=200, duplicate_pairs=30, seed=seed
        ).generate()
        records = list(dataset.store)
        halves = []
        for chunk in (records[:100], records[100:]):
            store = RecordStore()
            for record in chunk:
                store.add(record)
            halves.append(store)
        return halves

    def test_worker_pids_stable_across_batches(self):
        """The regression the reused pool exists for: consecutive batches
        must land on the *same* worker processes, not a fresh fork each."""
        first, second = self._halves()
        join = VectorizedSimJoin(0.3, block_size=8, workers=2)
        join.join(first)
        pids_after_first = tuple(shared_pool(2).worker_pids())
        join.join(second)
        pids_after_second = tuple(shared_pool(2).worker_pids())
        assert pids_after_first == pids_after_second
        assert len(set(pids_after_first)) == 2
        assert all(pid != 0 for pid in pids_after_first)

    def test_no_leaked_shared_memory_blocks(self):
        """Payload blocks are unlinked as soon as the map returns."""
        import glob

        first, second = self._halves(seed=21)
        join = VectorizedSimJoin(0.3, block_size=8, workers=2)
        # More consecutive joins than a worker may cache blocks for: each
        # publishes a fresh block, so an unbounded worker cache would pin
        # every one of them (unlinked pages stay alive while mapped).
        for _ in range(WORKER_CACHE_BLOCKS + 1):
            join.join(first)
            join.join(second)
        assert glob.glob("/dev/shm/repro-shard-*") == []
        cached = dict(shared_pool(2).map(_worker_cache_size, range(8)))
        assert set(cached) <= set(shared_pool(2).worker_pids())
        assert all(0 < size <= WORKER_CACHE_BLOCKS for size in cached.values())

    def test_shutdown_pools_releases_workers(self):
        first, _second = self._halves(seed=23)
        VectorizedSimJoin(0.3, block_size=8, workers=2).join(first)
        assert active_pools()
        shutdown_pools()
        assert not active_pools()
        # The registry recovers transparently on the next join.
        pairs = VectorizedSimJoin(0.3, block_size=8, workers=2).join(first)
        assert len(active_pools()) == 1
        assert pair_items(pairs) == pair_items(
            VectorizedSimJoin(0.3, block_size=8).join(first)
        )

    def test_pool_children_metrics_fold_into_parent_snapshot(self):
        """Shard timings report the reused workers' PIDs and land in the
        parent registry (children cannot export — their obs copy is inert)."""
        from repro import obs

        first, _second = self._halves(seed=29)
        obs.activate()
        try:
            VectorizedSimJoin(0.3, block_size=8, workers=2).join(first)
            snapshot = obs.snapshot()
        finally:
            obs.deactivate()
        pool_pids = set(shared_pool(2).worker_pids())
        shard_count = snapshot.counter_total("simjoin_parallel_shards_total", kind="self")
        assert shard_count > 0
        timings = snapshot.get("simjoin_parallel_shard_seconds")
        assert timings is not None
        workers_seen = {
            sample["labels"]["worker"]
            for sample in timings["samples"]
            if sample["labels"].get("kind") == "self"
        }
        assert workers_seen  # at least one worker reported a timing
        assert workers_seen <= {str(pid) for pid in pool_pids}
        assert (
            snapshot.histogram_count("simjoin_parallel_shard_seconds", kind="self")
            == shard_count
        )


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
