"""Sharded join (``workers=N``) vs the one-worker join, with a built-in correctness assertion.

:class:`repro.simjoin.parallel.VectorizedSimJoin` with ``workers=N`` (the
kernel's row blocks scored on N threads) against ``workers=1`` on the same
store, asserting the pair sets and likelihoods are *bit-identical*.  The
full run gates >= ``--min-speedup`` (default 2x) with ``--workers``
(default 4) at the largest size — a multi-core gate: on a single-core host
a second thread cannot win.  A full run measures the library's default row
block unless ``--block-size`` forces another.

Standalone script (not a pytest-benchmark module) so CI can gate on it::

    PYTHONPATH=src python benchmarks/bench_parallel_join.py            # full gate
    PYTHONPATH=src python benchmarks/bench_parallel_join.py --smoke    # <30 s CI run

The smoke run asserts the equivalence at a small size but applies no
speedup gate — CI smoke runners may be single-core.  The nightly job runs
the full gate on a multi-core runner.  ``--json`` writes the measured rows
for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.datasets.restaurant import RestaurantGenerator
from repro.evaluation.reporting import format_table
from repro.simjoin.parallel import VectorizedSimJoin
from repro.simjoin.vectorized import DEFAULT_BLOCK_ROWS


def run_join_scenario(
    record_count: int, threshold: float, workers: int, seed: int, block_size: int
) -> dict:
    """Time the serial and sharded joins on one store; assert bit-identical."""
    dataset = RestaurantGenerator(
        record_count=record_count,
        duplicate_pairs=max(1, record_count // 8),
        seed=seed,
    ).generate()

    start = time.perf_counter()
    serial = VectorizedSimJoin(threshold, block_size=block_size, workers=1).join(
        dataset.store
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = VectorizedSimJoin(
        threshold, block_size=block_size, workers=workers
    ).join(dataset.store)
    parallel_seconds = time.perf_counter() - start

    identical = sorted((p.key, p.likelihood) for p in serial) == sorted(
        (p.key, p.likelihood) for p in parallel
    )
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
    return {
        "records": record_count,
        "pairs": len(serial),
        "workers": workers,
        "serial_s": round(serial_seconds, 3),
        "parallel_s": round(parallel_seconds, 3),
        "speedup": round(speedup, 2),
        "bit_identical": identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small size, equivalence assert only, no speedup gate (<30 s)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="store sizes to benchmark (default: 2000 10000; smoke: 600)",
    )
    parser.add_argument("--threshold", type=float, default=0.3, help="likelihood threshold")
    parser.add_argument("--workers", type=int, default=4, help="threads for the sharded join")
    parser.add_argument(
        "--block-size", type=int, default=None,
        help=f"matmul row-block size (default: the library's, {DEFAULT_BLOCK_ROWS}; "
             "smoke: 128 so the store spans several blocks)",
    )
    parser.add_argument("--seed", type=int, default=7, help="dataset seed")
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="required parallel-over-serial speedup at the largest size (full runs)",
    )
    parser.add_argument("--json", type=str, default=None, help="write measured rows to this JSON file")
    args = parser.parse_args(argv)

    sizes = args.sizes or ([600] if args.smoke else [2000, 10000])
    # A smoke store of few default row blocks would barely leave the
    # inline path; a small block size keeps the worker threads (dispatch,
    # result order) under test.
    block_size = args.block_size or (128 if args.smoke else DEFAULT_BLOCK_ROWS)

    join_rows = [
        run_join_scenario(size, args.threshold, args.workers, args.seed, block_size)
        for size in sizes
    ]
    print(format_table(
        join_rows,
        columns=["records", "pairs", "workers", "serial_s", "parallel_s", "speedup", "bit_identical"],
        title=f"Sharded join (workers=N) vs workers=1 — threshold {args.threshold}",
    ))

    if args.json:
        payload = {
            "benchmark": "parallel_join",
            "cpus": os.cpu_count(),
            "sizes": sizes,
            "workers": args.workers,
            "executor": "threads",
            "block_rows": block_size,
            "default_block_rows": DEFAULT_BLOCK_ROWS,
            "threshold": args.threshold,
            "join": join_rows,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    failures = 0
    for row in join_rows:
        if not row["bit_identical"]:
            print(
                f"MISMATCH: sharded and one-worker pair sets differ at {row['records']} records",
                file=sys.stderr,
            )
            failures += 1
    if not args.smoke:
        largest_join = join_rows[-1]
        if largest_join["speedup"] < args.min_speedup:
            print(
                f"FAIL: parallel speedup {largest_join['speedup']:.2f}x at "
                f"{largest_join['records']} records with {args.workers} workers "
                f"is below the required {args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1
    print("the sharded join is bit-identical to the one-worker join")
    return 0


if __name__ == "__main__":
    sys.exit(main())
