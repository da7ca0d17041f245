"""Streaming incremental resolution vs full batch re-resolution.

Measures what the ``repro.streaming`` subsystem buys: when one batch of new
records arrives at an already-resolved store, an incremental
:class:`~repro.streaming.StreamingResolver` update (join only new-vs-old /
new-vs-new, regenerate HITs only for dirty components, reuse votes and
posteriors everywhere else) against re-running the whole
:class:`~repro.core.workflow.HybridWorkflow` from scratch on the grown
store.  Both paths use deterministic per-pair votes, so the benchmark also
asserts they produce the *same match set* — the speedup is not bought with
a different answer.

Standalone script (not a pytest-benchmark module) so CI can gate on it::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full run
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke    # <30 s CI gate

The full run asserts the acceptance criterion of the streaming work: the
incremental update must be at least ``--min-speedup`` (default 5x) faster
than the full re-resolve at the largest store size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro import obs
from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.datasets.restaurant import RestaurantGenerator
from repro.evaluation.reporting import format_table
from repro.streaming.session import StreamingResolver


def run_scenario(
    record_count: int,
    append_count: int,
    threshold: float,
    seed: int,
    setup_batch_size: int,
) -> dict:
    """Time one append scenario and return a report row."""
    dataset = RestaurantGenerator(
        record_count=record_count,
        duplicate_pairs=max(1, record_count // 8),
        seed=seed,
    ).generate()
    config = WorkflowConfig(
        likelihood_threshold=threshold,
        vote_mode="per-pair",
        aggregation="majority",
        seed=seed,
    )
    records = list(dataset.store)
    resident, appended = records[:-append_count], records[-append_count:]

    # Untimed setup: stream the resident records into an open session.
    resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, len(resident), setup_batch_size):
        resolver.add_batch(resident[start : start + setup_batch_size])

    # The append and the result it leads to, as the full resolve builds one.
    start_time = time.perf_counter()
    delta = resolver.add_batch(appended)
    snapshot = resolver.snapshot()
    incremental_seconds = time.perf_counter() - start_time

    start_time = time.perf_counter()
    full = HybridWorkflow(config).resolve(dataset)
    full_seconds = time.perf_counter() - start_time

    identical = set(snapshot.matches) == set(full.matches)
    speedup = full_seconds / incremental_seconds if incremental_seconds > 0 else float("inf")
    return {
        "records": record_count,
        "appended": append_count,
        "dirty_pairs": delta.dirty_pairs,
        "total_pairs": snapshot.candidate_count,
        "incremental_s": f"{incremental_seconds:.4f}",
        "full_s": f"{full_seconds:.4f}",
        "speedup": f"{speedup:.1f}x",
        "matches_identical": identical,
        "_speedup": speedup,
        "_identical": identical,
    }


def collect_metrics_snapshot(
    record_count: int,
    append_count: int,
    threshold: float,
    seed: int,
    setup_batch_size: int,
) -> dict:
    """Re-run the smallest scenario with metrics on and return the snapshot.

    A *separate*, untimed pass: the timed measurements above always run with
    the registry disabled, so the instrumentation never taints the speedup
    numbers that this benchmark gates on.
    """
    obs.activate()
    try:
        dataset = RestaurantGenerator(
            record_count=record_count,
            duplicate_pairs=max(1, record_count // 8),
            seed=seed,
        ).generate()
        config = WorkflowConfig(
            likelihood_threshold=threshold,
            vote_mode="per-pair",
            aggregation="majority",
            seed=seed,
        )
        records = list(dataset.store)
        resident, appended = records[:-append_count], records[-append_count:]
        resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
        resolver.add_truth(dataset.ground_truth)
        for start in range(0, len(resident), setup_batch_size):
            resolver.add_batch(resident[start : start + setup_batch_size])
        resolver.add_batch(appended)
        snapshot = obs.snapshot()
        return snapshot.to_dict() if snapshot is not None else {}
    finally:
        obs.deactivate()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small store and no speedup gate (the <30 s CI run)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="store sizes to benchmark (default: 1000 2000; smoke: 400)",
    )
    parser.add_argument(
        "--append", type=int, default=None,
        help="records in the appended batch (default: 100; smoke: 50)",
    )
    # 0.35 is the paper's Restaurant threshold; lower values produce one
    # giant near-duplicate component that stays dirty on every append.
    parser.add_argument("--threshold", type=float, default=0.35, help="likelihood threshold")
    parser.add_argument("--seed", type=int, default=7, help="dataset / crowd seed")
    parser.add_argument(
        "--setup-batch-size", type=int, default=250,
        help="arrival batch size used to stream in the resident records",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required incremental-over-full speedup at the largest size (full runs)",
    )
    parser.add_argument("--json", type=str, default=None,
                        help="write measured rows to this JSON file")
    args = parser.parse_args(argv)

    sizes = args.sizes or ([400] if args.smoke else [1000, 2000])
    append_count = args.append if args.append is not None else (50 if args.smoke else 100)
    if append_count < 1 or append_count >= min(sizes):
        print(
            f"error: --append must be in [1, smallest size); got {append_count}",
            file=sys.stderr,
        )
        return 2

    rows = [
        run_scenario(size, append_count, args.threshold, args.seed, args.setup_batch_size)
        for size in sizes
    ]
    print(format_table(
        rows,
        columns=[
            "records", "appended", "dirty_pairs", "total_pairs",
            "incremental_s", "full_s", "speedup", "matches_identical",
        ],
        title=f"Streaming incremental update vs full re-resolve — "
              f"threshold {args.threshold}, +{append_count} records",
    ))

    if args.json:
        payload = {
            "benchmark": "streaming",
            "cpus": os.cpu_count(),
            "threshold": args.threshold,
            "append": append_count,
            "rows": [
                {key: value for key, value in row.items() if not key.startswith("_")}
                for row in rows
            ],
            # Observability snapshot from an extra instrumented pass at the
            # smallest size — untimed, so the rows above are unaffected.
            "metrics": collect_metrics_snapshot(
                min(sizes), append_count, args.threshold, args.seed,
                args.setup_batch_size,
            ),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    failures = 0
    for row in rows:
        if not row["_identical"]:
            print(
                f"MISMATCH: streaming and batch match sets differ at "
                f"{row['records']} records",
                file=sys.stderr,
            )
            failures += 1
    if not args.smoke:
        largest = rows[-1]
        if largest["_speedup"] < args.min_speedup:
            print(
                f"FAIL: incremental speedup {largest['_speedup']:.1f}x at "
                f"{largest['records']} records is below the required "
                f"{args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1
    print("streaming and batch resolution produced identical match sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
