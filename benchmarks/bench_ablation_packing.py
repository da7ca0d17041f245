"""Ablation: bottom-tier packing solver (FFD vs branch-and-bound vs column generation).

The packing solver is a design choice worth ablating: the paper uses
column generation + branch-and-bound; this benchmark checks
how much the cheaper first-fit-decreasing heuristic gives up in HIT count
(usually nothing on real pair graphs, where most packed components are
two-record SCCs).
"""

from repro.evaluation.reporting import format_table
from repro.hit.two_tiered import TwoTieredClusterGenerator
from repro.simjoin.likelihood import SimJoinLikelihood

METHODS = ["ffd", "branch-and-bound", "column-generation"]


def _run(dataset, threshold=0.2, cluster_size=10):
    pairs = SimJoinLikelihood().estimate(
        dataset.store, min_likelihood=threshold, cross_sources=dataset.cross_sources
    )
    rows = []
    for method in METHODS:
        generator = TwoTieredClusterGenerator(cluster_size=cluster_size, packing_method=method)
        batch = generator.generate(pairs)
        rows.append({"packing": method, "pairs": len(pairs), "hits": batch.hit_count})
    return rows


def test_ablation_packing_restaurant(benchmark, restaurant_dataset, report):
    rows = benchmark.pedantic(_run, args=(restaurant_dataset,), rounds=1, iterations=1)
    report(format_table(
        rows, columns=["packing", "pairs", "hits"],
        title="Ablation — Restaurant: packing solver vs number of cluster-based HITs",
    ))


def test_ablation_packing_product(benchmark, product_dataset, report):
    rows = benchmark.pedantic(_run, args=(product_dataset,), rounds=1, iterations=1)
    report(format_table(
        rows, columns=["packing", "pairs", "hits"],
        title="Ablation — Product: packing solver vs number of cluster-based HITs",
    ))
