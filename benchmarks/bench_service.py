"""Resolution service throughput over HTTP, with a built-in correctness assertion.

An in-process :class:`repro.service.app.ResolutionService` hosts
``--sessions`` concurrent sessions, each driven from its own client thread.
Reports aggregate records/sec and p99 append latency, and asserts every
served result is bit-identical to a standalone
:class:`~repro.streaming.StreamingResolver` replay.

Standalone script (not a pytest-benchmark module) so CI can run it::

    PYTHONPATH=src python benchmarks/bench_service.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # <30 s CI run

There is no ratio gate: absolute serving numbers are tracked by the harness
(``benchmarks/harness/``, workload ``serve-http``).  ``--json`` writes the
measured row for artifact upload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from repro.core.config import WorkflowConfig
from repro.datasets.restaurant import RestaurantGenerator
from repro.evaluation.reporting import format_table
from repro.service.app import ResolutionService
from repro.service.client import ServiceClient
from repro.service.sessions import encode_result
from repro.streaming import StreamingResolver
from repro.streaming.persistence import encode_record


def _records(record_count: int, seed: int):
    dataset = RestaurantGenerator(
        record_count=record_count,
        duplicate_pairs=max(1, record_count // 8),
        seed=seed,
    ).generate()
    return dataset, list(dataset.store)


# ------------------------------------------------------- service serving
class _ServiceThread:
    """The service on its own event-loop thread, bound to an ephemeral port."""

    def __init__(self, shard_count: int, queue_depth: int = 256) -> None:
        self.service = ResolutionService(
            port=0, shard_count=shard_count, queue_depth=queue_depth
        )
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    def start(self) -> ServiceClient:
        self.thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("service failed to start")
        return ServiceClient("127.0.0.1", self.service.port)

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)


def run_service_scenario(
    session_count: int, records_per_session: int, batch: int, seed: int
) -> dict:
    """Drive N concurrent sessions over HTTP; assert every result matches
    a standalone resolver replaying the same appends."""
    workloads = []
    for index in range(session_count):
        _, records = _records(records_per_session, seed + index)
        workloads.append((f"bench-{index}", records))

    runner = _ServiceThread(shard_count=max(2, session_count))
    client = runner.start()
    latencies: List[float] = []
    latency_lock = threading.Lock()

    def drive(session_id: str, records) -> dict:
        client.create_session(
            session_id, config={"likelihood_threshold": 0.35, "aggregation": "majority"}
        )
        for offset in range(0, len(records), batch):
            payload = [
                encode_record(record)
                for record in records[offset : offset + batch]
            ]
            started = time.perf_counter()
            client.append(session_id, payload)
            elapsed = time.perf_counter() - started
            with latency_lock:
                latencies.append(elapsed)
        client.flush(session_id)
        served = client.result(session_id)
        client.close(session_id)
        return served

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=session_count) as pool:
        futures = [
            pool.submit(drive, session_id, records)
            for session_id, records in workloads
        ]
        served_results = [future.result() for future in futures]
    wall_seconds = time.perf_counter() - start
    runner.stop()

    identical = True
    for (session_id, records), served in zip(workloads, served_results):
        resolver = StreamingResolver(
            config=WorkflowConfig(
                likelihood_threshold=0.35,
                vote_mode="per-pair",
                aggregation="majority",
            )
        )
        for offset in range(0, len(records), batch):
            resolver.add_batch(records[offset : offset + batch])
        resolver.flush()
        if encode_result(resolver.snapshot()) != served:
            identical = False

    total_records = session_count * records_per_session
    return {
        "sessions": session_count,
        "records": total_records,
        "batch": batch,
        "wall_s": f"{wall_seconds:.3f}",
        "records_per_s": f"{total_records / wall_seconds:.0f}",
        "append_p99_ms": f"{np.percentile(latencies, 99) * 1000:.1f}",
        "bit_identical": identical,
        "_identical": identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, equivalence assert only (<30 s)",
    )
    parser.add_argument(
        "--append-batch", type=int, default=50,
        help="records per streaming append (small on purpose: the service "
             "workload is many low-latency appends)",
    )
    parser.add_argument(
        "--sessions", type=int, default=None,
        help="concurrent sessions in the serving scenario (default 4; smoke 2)",
    )
    parser.add_argument(
        "--session-records", type=int, default=None,
        help="records per served session (default 1000; smoke 150)",
    )
    parser.add_argument("--seed", type=int, default=7, help="dataset seed")
    parser.add_argument("--json", type=str, default=None, help="write the measured row to this JSON file")
    args = parser.parse_args(argv)

    sessions = args.sessions or (2 if args.smoke else 4)
    session_records = args.session_records or (150 if args.smoke else 1000)

    service_row = run_service_scenario(
        sessions, session_records, max(25, args.append_batch), args.seed
    )
    print(format_table(
        [service_row],
        columns=["sessions", "records", "batch", "wall_s", "records_per_s",
                 "append_p99_ms", "bit_identical"],
        title=f"Service throughput — {sessions} concurrent sessions over HTTP",
    ))

    if args.json:
        payload = {
            "benchmark": "service",
            "cpus": os.cpu_count(),
            "append_batch": args.append_batch,
            "service": {k: v for k, v in service_row.items() if not k.startswith("_")},
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if not service_row["_identical"]:
        print(
            "MISMATCH: a served session differs from its standalone replay",
            file=sys.stderr,
        )
        return 1
    print("served sessions are bit-identical to their standalone references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
