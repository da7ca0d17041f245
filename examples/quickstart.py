"""Quickstart: run the hybrid human-machine workflow on the paper's example.

This script walks through the CrowdER pipeline on the nine-product table of
the paper (Table 1): the machine pass prunes the 36 possible pairs down to
ten candidates, the two-tiered algorithm groups them into three cluster-based
HITs, a simulated crowd verifies them, and the aggregated answers yield the
four duplicate pairs of Figure 2(c).

Run with:  python examples/quickstart.py
"""

from repro import HybridWorkflow, WorkflowConfig, paper_example_matches, paper_example_store
from repro.datasets.base import Dataset
from repro.evaluation.metrics import precision_recall


def main() -> None:
    store = paper_example_store()
    dataset = Dataset(name="table-1", store=store, ground_truth=paper_example_matches())

    print("Records (Table 1 of the paper):")
    for record in store:
        print(f"  {record.record_id}: {record.get('product_name')}  {record.get('price')}")

    config = WorkflowConfig(
        likelihood_threshold=0.3,          # the threshold used in Example 1
        hit_type="cluster",
        cluster_size=4,                    # k = 4 as in Section 3.2 (two-tiered HITs)
        similarity_attributes=["product_name"],
        assignments_per_hit=3,
        seed=1,
    )
    workflow = HybridWorkflow(config)

    candidates = workflow.machine_candidates(dataset)
    print(f"\nMachine pass: {dataset.total_pair_count()} possible pairs, "
          f"{len(candidates)} survive the {config.likelihood_threshold} threshold")

    batch = workflow.generate_hits(candidates)
    print(f"HIT generation ({batch.generator_name}): {batch.hit_count} cluster-based HITs")
    for hit in batch.hits:
        print(f"  {hit.hit_id}: {hit.records}")

    result = workflow.resolve(dataset)
    print("\nCrowd + aggregation:")
    print(f"  cost: ${result.cost:.2f}   assignments: {result.assignment_count}   "
          f"estimated completion: {result.latency.total_minutes:.0f} minutes")
    print(f"  matches found: {sorted(result.matches)}")

    precision, recall = precision_recall(result.matches, dataset.ground_truth)
    print(f"  precision {precision:.0%}, recall {recall:.0%} against the ground truth")


if __name__ == "__main__":
    main()
