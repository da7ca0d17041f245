"""The session store: save + restore cost, and peak RSS.

A durable session is one file — ``store.sqlite``: its state tables and its
event log.  The session keeps its state in RAM and writes each event's
changed rows into the file at the event's commit; restoring pages the
state in and replays the logged tail (:mod:`repro.streaming.persistence`).
This script prices that design:

1. **Save and restore.**  For each size it streams the store through a
   durable session (that build *is* the cold-resolve cost a crash would
   force without the store), calls ``save()`` — a commit, the store is
   current after every event — closes and drops the session, restores it,
   asserts the restored session is **bit-identical**, and reports
   ``save_s``, ``restore_s`` and the restore-over-cold speedup.

2. **Peak RSS.**  The same stream through a durable session in a
   *separate subprocess* (``ru_maxrss`` is a per-process high-water mark),
   recorded, not gated.

Standalone script (not a pytest-benchmark module) so CI can gate on it::

    PYTHONPATH=src python benchmarks/bench_storage.py            # full gates
    PYTHONPATH=src python benchmarks/bench_storage.py --smoke    # <30 s CI run

The full run gates one thing: restoring must beat the cold re-resolve by at
least ``--min-speedup`` (default 3x) at the largest size — a floor against
restore degenerating into a re-resolve, not a performance claim (the cold resolve itself got ~4x faster since the gate
was set at 5x; absolute seconds are what the rows record).  ``--json`` writes the measured rows, which CI commits as
``BENCH_storage.json`` so the perf trajectory is visible in-repo.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.core.config import WorkflowConfig
from repro.datasets.restaurant import RestaurantGenerator
from repro.evaluation.reporting import format_table
from repro.streaming import StreamingResolver


def build_session(
    record_count: int,
    threshold: float,
    seed: int,
    batch_size: int,
    directory: Path,
) -> StreamingResolver:
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
        checkpoint_dir=str(directory),
    )
    records = list(dataset.store)
    resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, len(records), batch_size):
        resolver.add_batch(records[start : start + batch_size])
    return resolver


def run_restore_scenario(
    record_count: int, threshold: float, seed: int, batch_size: int
) -> dict:
    """Time one cold-resolve, save, drop, restore scenario."""
    directory = Path(tempfile.mkdtemp(prefix="bench-storage-"))
    try:
        start_time = time.perf_counter()
        resolver = build_session(record_count, threshold, seed, batch_size, directory)
        cold_seconds = time.perf_counter() - start_time
        digest = resolver.state_digest()
        matches = set(resolver.snapshot().matches)

        start_time = time.perf_counter()
        resolver.save()
        save_seconds = time.perf_counter() - start_time
        resolver.durability.close()
        # After the close the WAL is folded back, so the files are the store.
        store_bytes = sum(
            path.stat().st_size for path in directory.glob("store.sqlite*")
        )

        start_time = time.perf_counter()
        restored = StreamingResolver.restore(directory)
        restore_seconds = time.perf_counter() - start_time
        identical = (
            restored.state_digest() == digest
            and set(restored.snapshot().matches) == matches
        )
        restored.durability.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "records": record_count,
        "pairs": restored.candidate_count,
        "cold_resolve_s": round(cold_seconds, 3),
        "save_s": round(save_seconds, 4),
        "restore_s": round(restore_seconds, 4),
        "store_mb": round(store_bytes / 1e6, 2),
        "speedup": round(cold_seconds / restore_seconds, 1),
        "bit_identical": identical,
    }


def run_rss_child(
    record_count: int, threshold: float, seed: int, batch_size: int
) -> int:
    """Child-process entry point: stream the store, print peak RSS as JSON."""
    directory = Path(tempfile.mkdtemp(prefix="bench-storage-rss-"))
    try:
        resolver = build_session(record_count, threshold, seed, batch_size, directory)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        resolver.durability.close()
        print(
            json.dumps(
                {
                    "records": len(resolver.store),
                    "pairs": resolver.candidate_count,
                    "matches": len(resolver.snapshot().matches),
                    "peak_rss_kb": peak_kb,
                }
            )
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def run_rss_scenario(
    record_count: int, threshold: float, seed: int, batch_size: int
) -> dict:
    """Measure the peak RSS of a durable session's stream in a subprocess."""
    result = subprocess.run(
        [
            sys.executable,
            __file__,
            "--_rss-child",
            "--rss-size",
            str(record_count),
            "--threshold",
            str(threshold),
            "--seed",
            str(seed),
            "--batch-size",
            str(batch_size),
        ],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        raise RuntimeError(f"RSS child failed:\n{result.stderr}")
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    return {
        "records": payload["records"],
        "pairs": payload["pairs"],
        "matches": payload["matches"],
        "peak_rss_mb": round(payload["peak_rss_kb"] / 1024, 1),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small store and no gates (the <30 s CI run)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="restore-scenario store sizes (default: 2000 10000; smoke: 400)",
    )
    parser.add_argument(
        "--rss-size", type=int, default=None,
        help="record count of the peak-RSS stream (default: 50000; smoke: 2000)",
    )
    parser.add_argument("--threshold", type=float, default=0.35, help="likelihood threshold")
    parser.add_argument("--seed", type=int, default=7, help="dataset / crowd seed")
    parser.add_argument(
        "--batch-size", type=int, default=250,
        help="arrival batch size used to stream in the records",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required restore-over-cold-resolve speedup at the largest size",
    )
    parser.add_argument("--json", type=str, default=None,
                        help="write measured rows to this JSON file")
    parser.add_argument("--_rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    rss_size = args.rss_size if args.rss_size is not None else (
        2000 if args.smoke else 50_000
    )
    if getattr(args, "_rss_child"):
        return run_rss_child(rss_size, args.threshold, args.seed, args.batch_size)

    sizes = args.sizes or ([400] if args.smoke else [2000, 10000])
    restore_rows = [
        run_restore_scenario(size, args.threshold, args.seed, args.batch_size)
        for size in sizes
    ]
    print(format_table(
        restore_rows,
        columns=[
            "records", "pairs", "cold_resolve_s", "save_s", "restore_s",
            "store_mb", "speedup", "bit_identical",
        ],
        title=f"Save + restore vs cold re-resolve — "
              f"threshold {args.threshold}, batches of {args.batch_size}",
    ))

    rss_rows = [run_rss_scenario(rss_size, args.threshold, args.seed, args.batch_size)]
    print(format_table(
        rss_rows,
        columns=["records", "pairs", "matches", "peak_rss_mb"],
        title=f"Peak RSS streaming {rss_size} records through a durable session",
    ))

    if args.json:
        payload = {
            "benchmark": "storage",
            "cpus": os.cpu_count(),
            "threshold": args.threshold,
            "batch_size": args.batch_size,
            "restore": restore_rows,
            "rss": rss_rows,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    failures = 0
    for row in restore_rows:
        if not row["bit_identical"]:
            print(
                f"MISMATCH: restored session differs from the original at "
                f"{row['records']} records",
                file=sys.stderr,
            )
            failures += 1
    largest = restore_rows[-1]
    if not args.smoke and largest["speedup"] < args.min_speedup:
        print(
            f"FAIL: restore speedup {largest['speedup']:.1f}x at "
            f"{largest['records']} records is below the required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        failures += 1
    if failures:
        return 1
    print("restored sessions were bit-identical; gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
