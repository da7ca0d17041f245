"""Cross-dataset regression matrix: dataset × mode.

Tier-1 (every push, bundled mini corpora, seconds not minutes):

* the join kernel (``auto``) and the all-pairs oracle (``naive``) produce
  the identical candidate pair set on every matrix dataset;
* streaming replay and SQLite-backed streaming produce exactly the batch
  workflow's match set;
* every cell (all modes × all datasets) is within the committed per-cell
  tolerances of ``BENCH_matrix.json``.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from strategies import arrival_batch_sizes, order_seeds

from repro.evaluation import matrix as mx
from repro.simjoin.likelihood import SimJoinLikelihood
from repro.streaming.session import resolve_stream

pytestmark = pytest.mark.matrix


@pytest.fixture(scope="module")
def rows():
    """Every cell, computed once for the whole module."""
    return {
        (dataset, mode): mx.run_cell(dataset, mode) for dataset, mode in mx.iter_cells()
    }


@pytest.fixture(scope="module")
def baseline():
    return mx.load_baseline()


# ------------------------------------------------------ join-level agreement
@pytest.mark.parametrize("dataset_name", mx.matrix_datasets())
def test_kernel_and_naive_agree_on_candidate_pairs(dataset_name):
    """``auto`` (the kernel) == ``naive`` (the oracle): same pairs per dataset."""
    dataset, config = mx.load_matrix_dataset(dataset_name)
    kernel, naive = (
        SimJoinLikelihood(config.similarity_attributes, backend=backend).estimate(
            dataset.store,
            config.likelihood_threshold,
            cross_sources=dataset.cross_sources,
        )
        for backend in ("auto", "naive")
    )
    assert kernel.to_key_set() == naive.to_key_set(), (
        f"{dataset_name}: kernel pair set differs from naive"
    )


# --------------------------------------------------- mode-level equivalence
@pytest.mark.parametrize("dataset_name", mx.matrix_datasets())
def test_streaming_modes_equal_batch(dataset_name, rows):
    """stream and stream-sqlite reproduce the batch match set exactly."""
    batch = rows[(dataset_name, "batch")]
    for mode in ("stream", "stream-sqlite"):
        assert rows[(dataset_name, mode)]["_matches"] == batch["_matches"], (
            f"{dataset_name}: {mode} match set differs from batch"
        )


@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(order_seed=order_seeds, batch_size=arrival_batch_sizes)
def test_property_streaming_order_invariant_on_etl_corpus(rows, order_seed, batch_size):
    """Arrival order / batch size never change an ETL corpus resolution."""
    import random

    dataset, config = mx.load_matrix_dataset("abt-buy")
    order = dataset.store.record_ids
    random.Random(order_seed).shuffle(order)
    result = resolve_stream(
        dataset, config=config, batch_size=batch_size, arrival_order=order
    )
    assert frozenset(result.matches) == rows[("abt-buy", "batch")]["_matches"]


# ----------------------------------------------------- tolerance regression
def test_tier1_cells_within_committed_tolerances(rows, baseline):
    """Every cell stays inside the committed per-cell tolerances."""
    violations = mx.compare_rows(list(rows.values()), baseline)
    assert not violations, "matrix regression:\n" + "\n".join(violations)
