"""Fault-injection equivalence gate: async crowd under faults == sync.

The robustness headline of the async crowd layer
(:mod:`repro.crowd.async_platform`): a seeded :class:`~repro.crowd.faults.
FaultPlan` that drops, duplicates, reorders and churns vote deliveries must
not change *what* the session concludes — only when the votes arrive.  The
gate streams the Abt-Buy mini corpus twice, synchronously and
asynchronously under a hostile fault schedule, and fails unless:

* the final match sets (and hence F1) are identical,
* the fault machinery actually fired (nonzero ``crowd_retries_total`` and
  ``crowd_timeouts_total`` in the exported metrics — a fault plan that
  never triggers is not a robustness test), and
* the Prometheus export written along the way passes the strict
  ``repro.obs.export`` validator.

Standalone script (not a pytest-benchmark module) so CI can gate on it::

    PYTHONPATH=src python benchmarks/bench_fault_injection.py            # full gates
    PYTHONPATH=src python benchmarks/bench_fault_injection.py --smoke    # <30 s CI run

The async run uses majority aggregation with component scope — one of the
equivalence classes (majority/any scope, Dawid-Skene/global scope) for
which fault-schedule independence holds exactly; see ``docs/crowd.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.core.config import WorkflowConfig
from repro.crowd import AsyncCrowd, FaultPlan
from repro.etl.registry import load_corpus
from repro.evaluation.metrics import f1_score
from repro.evaluation.reporting import format_table
from repro.obs.export import to_prometheus, validate_prometheus_text
from repro.streaming import StreamingResolver

#: A deliberately hostile schedule: ~40% of attempts abandoned, a third
#: duplicated, half jittered out of order, worker churn and publish bursts.
HOSTILE_PLAN = dict(
    seed=13,
    delay_ticks_min=0,
    delay_ticks_max=5,
    drop_probability=0.4,
    duplicate_probability=0.3,
    duplicate_delay_ticks=2,
    reorder_probability=0.5,
    reorder_window_ticks=4,
    churn_probability=0.2,
    burst_every=2,
    burst_backlog_ticks=4,
)


def run_session(dataset, records, threshold, seed, batch_size, crowd=None):
    """Stream the records through one session; return (snapshot, seconds)."""
    config = WorkflowConfig(
        likelihood_threshold=threshold,
        vote_mode="per-pair",
        aggregation="majority",
        stream_batch_size=batch_size,
        crowd=crowd,
        seed=seed,
    )
    start_time = time.perf_counter()
    resolver = StreamingResolver(config=config, cross_sources=dataset.cross_sources)
    resolver.add_truth(dataset.ground_truth)
    for start in range(0, len(records), batch_size):
        resolver.add_batch(records[start : start + batch_size])
    snapshot = resolver.flush()
    return snapshot, time.perf_counter() - start_time


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="higher threshold / fewer pairs (the <30 s CI run)",
    )
    parser.add_argument("--threshold", type=float, default=None,
                        help="likelihood threshold (default: 0.1; smoke: 0.2)")
    parser.add_argument("--seed", type=int, default=7, help="dataset / crowd seed")
    parser.add_argument("--batch-size", type=int, default=100,
                        help="arrival batch size used to stream in the records")
    parser.add_argument("--metrics-out", type=str, default=None,
                        help="write the async run's Prometheus export here "
                             "(default: fault-metrics.prom in the CWD)")
    parser.add_argument("--json", type=str, default=None,
                        help="write measured rows to this JSON file")
    args = parser.parse_args(argv)

    threshold = args.threshold if args.threshold is not None else (
        0.2 if args.smoke else 0.1
    )
    metrics_out = args.metrics_out or "fault-metrics.prom"
    dataset = load_corpus("abt-buy")
    records = list(dataset.store)

    sync_snap, sync_seconds = run_session(
        dataset, records, threshold, args.seed, args.batch_size
    )

    # Metrics cover only the async run, so the counters the gate asserts on
    # are unambiguously the fault machinery's.
    obs.activate()
    async_snap, async_seconds = run_session(
        dataset, records, threshold, args.seed, args.batch_size,
        AsyncCrowd(vote_timeout=3, max_retries=2, fault_plan=FaultPlan(**HOSTILE_PLAN)),
    )
    metrics = obs.snapshot()
    obs.deactivate()
    retries = metrics.counter_total("crowd_retries_total")
    timeouts = metrics.counter_total("crowd_timeouts_total")
    reissued = metrics.counter_total("crowd_reissued_total")
    duplicates = metrics.counter_total("crowd_duplicates_dropped_total")

    export_text = to_prometheus(metrics)
    Path(metrics_out).write_text(export_text, encoding="utf-8")
    export_errors = validate_prometheus_text(export_text)

    rows = [
        {
            "mode": "sync",
            "matches": len(sync_snap.matches),
            "f1": f"{f1_score(sync_snap.matches, dataset.ground_truth):.4f}",
            "hits": sync_snap.hit_count,
            "cost": f"${sync_snap.cost:.2f}",
            "seconds": f"{sync_seconds:.2f}",
            "retries": 0,
            "timeouts": 0,
        },
        {
            "mode": "async+faults",
            "matches": len(async_snap.matches),
            "f1": f"{f1_score(async_snap.matches, dataset.ground_truth):.4f}",
            "hits": async_snap.hit_count,
            "cost": f"${async_snap.cost:.2f}",
            "seconds": f"{async_seconds:.2f}",
            "retries": int(retries),
            "timeouts": int(timeouts),
        },
    ]
    print(format_table(
        rows,
        columns=["mode", "matches", "f1", "hits", "cost", "seconds",
                 "retries", "timeouts"],
        title=f"Fault injection on {dataset.name} — threshold {threshold}, "
              f"drop {HOSTILE_PLAN['drop_probability']}, "
              f"dup {HOSTILE_PLAN['duplicate_probability']}, "
              f"reorder {HOSTILE_PLAN['reorder_probability']}",
    ))
    print(f"async robustness: {int(timeouts)} timeouts, {int(retries)} retries, "
          f"{int(reissued)} reissued, {int(duplicates)} duplicates dropped")
    print(f"metrics exported to {metrics_out}")

    if args.json:
        payload = {
            "benchmark": "fault_injection",
            "cpus": os.cpu_count(),
            "threshold": threshold,
            "batch_size": args.batch_size,
            "fault_plan": HOSTILE_PLAN,
            "rows": rows,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    failures = 0
    if async_snap.matches != sync_snap.matches:
        print("FAIL: async match set differs from the sync baseline", file=sys.stderr)
        failures += 1
    if async_snap.posteriors != sync_snap.posteriors:
        print("FAIL: async posteriors differ from the sync baseline", file=sys.stderr)
        failures += 1
    if async_snap.hit_count != sync_snap.hit_count:
        print(
            f"FAIL: async issued {async_snap.hit_count} HITs, "
            f"sync {sync_snap.hit_count}",
            file=sys.stderr,
        )
        failures += 1
    if retries <= 0 or timeouts <= 0:
        print(
            f"FAIL: fault machinery never fired (retries={int(retries)}, "
            f"timeouts={int(timeouts)}) — the plan is not exercising anything",
            file=sys.stderr,
        )
        failures += 1
    for error in export_errors:
        print(f"FAIL: invalid Prometheus export: {error}", file=sys.stderr)
        failures += 1
    if failures:
        return 1
    print("async final state is identical to the synchronous baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
