"""Time one long in-process streaming session, append by append.

Streams ``RestaurantGenerator(N, N // 8, seed)`` through a fresh in-memory
``StreamingResolver`` — majority votes, likelihood threshold 0.35, per-pair
votes, one join thread: the configuration of the harness's ``stream-mem``
workload at a larger size — in 250-record batches, then flushes.  Prints,
and with ``--output`` writes, one JSON object:

* ``wall_s``: the stream, ``add_truth`` to ``flush``, wall clock (generating
  the dataset is not in it);
* ``append_ms``: per decile of the appends, in arrival order, how many there
  were and the median (``p50``) and nearest-rank 99th percentile (``p99``)
  of their ``add_batch`` latency — with 200 appends a decile holds 20, so
  its ``p99`` is its slowest;
* ``peak_rss_mb``: the process's peak resident set, dataset included;
* ``records``, ``batch_size``, ``seed``, ``candidates``, ``matches`` and
  ``hits`` to say what was run.

::

    PYTHONPATH=src python tools/long_stream.py                      # N = 50,000: minutes
    PYTHONPATH=src python tools/long_stream.py --records 1000 --output long-stream.json

The run is one process and one session; the harness (``benchmarks/harness``)
does not run it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import WorkflowConfig
from repro.core.results import ResolutionResult
from repro.datasets.base import Dataset
from repro.datasets.restaurant import RestaurantGenerator
from repro.streaming.session import StreamingResolver

BATCH_SIZE = 250


def config(seed: int) -> WorkflowConfig:
    """The stream's configuration (the harness's ``stream-mem`` one)."""
    return WorkflowConfig(
        likelihood_threshold=0.35, aggregation="majority", vote_mode="per-pair",
        join_workers=1, seed=seed,
    )


def deciles(latencies: Sequence[float]) -> List[Dict[str, float]]:
    """Per tenth of ``latencies`` (in order): its count, median and
    nearest-rank 99th percentile, in milliseconds."""
    rows = []
    for tenth in range(10):
        part = sorted(latencies[len(latencies) * tenth // 10:len(latencies) * (tenth + 1) // 10])
        if not part:
            continue
        rows.append({
            "appends": len(part),
            "p50": round(statistics.median(part) * 1e3, 3),
            "p99": round(part[math.ceil(0.99 * len(part)) - 1] * 1e3, 3),
        })
    return rows


def stream(dataset: Dataset, seed: int,
           batch_size: int = BATCH_SIZE) -> Tuple[Dict[str, object], ResolutionResult]:
    """Stream ``dataset`` through one session; returns the report and the
    flushed resolution."""
    records = list(dataset.store)
    latencies: List[float] = []
    began = time.perf_counter()
    resolver = StreamingResolver(config=config(seed))
    resolver.add_truth(dataset.ground_truth)
    for offset in range(0, len(records), batch_size):
        chunk = records[offset:offset + batch_size]
        appended = time.perf_counter()
        resolver.add_batch(chunk)
        latencies.append(time.perf_counter() - appended)
    result = resolver.flush()
    wall_s = time.perf_counter() - began
    report = {
        "records": len(records),
        "batch_size": batch_size,
        "seed": seed,
        "wall_s": round(wall_s, 3),
        "append_ms": deciles(latencies),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "candidates": result.candidate_count,
        "matches": len(result.matches),
        "hits": result.hit_count,
    }
    return report, result


def main(argv: Optional[Sequence[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int, default=50_000,
                        help="records N; N // 8 of them are duplicate pairs (default 50000)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=Path, help="also write the JSON here")
    arguments = parser.parse_args(argv)
    if arguments.records < 8:
        parser.error("--records must be at least 8")
    dataset = RestaurantGenerator(
        arguments.records, arguments.records // 8, seed=arguments.seed
    ).generate()
    report, _ = stream(dataset, arguments.seed)
    text = json.dumps(report, indent=2)
    print(text)
    if arguments.output is not None:
        arguments.output.write_text(text + "\n")
    return report


if __name__ == "__main__":
    main(sys.argv[1:])
