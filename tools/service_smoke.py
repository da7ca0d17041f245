"""CI smoke: concurrent HTTP sessions against a live server == CLI baseline.

Expects a ``repro serve`` process already listening (its port read from
``--port-file``, as written by ``serve --port 0 --port-file ...``).  Loads
the bundled Abt-Buy mini corpus, replays it through N concurrent sessions
over HTTP — each from its own thread, so requests genuinely interleave —
and asserts every served result is **bit-identical** to the CLI baseline:
:func:`repro.streaming.session.resolve_stream` (the exact code path behind
``repro resolve-stream``) on the same records, batches and config.

Also asserts the ``/metrics`` scrape works when the server was started
with ``--metrics`` (the workflow validates the exported ``.prom`` file
separately)::

    PYTHONPATH=src python -m repro.cli serve --port 0 --port-file service.port --metrics &
    PYTHONPATH=src python tools/service_smoke.py --port-file service.port
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional

from repro.core.config import WorkflowConfig
from repro.etl.registry import load_corpus
from repro.service.client import ServiceClient
from repro.service.sessions import encode_result
from repro.streaming.persistence import encode_record
from repro.streaming.session import resolve_stream


def _wait_for_port(port_file: Path, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while not port_file.exists():
        if time.monotonic() > deadline:
            raise SystemExit(f"server never wrote {port_file}")
        time.sleep(0.05)
    return int(port_file.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", type=str, required=True,
                        help="file the server writes its bound port to")
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--corpus", type=str, default="abt-buy",
                        help="registered corpus name (bundled mini corpus)")
    parser.add_argument("--sessions", type=int, default=2,
                        help="concurrent sessions to drive")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--threshold", type=float, default=0.35)
    parser.add_argument("--startup-timeout", type=float, default=60.0)
    args = parser.parse_args(argv)

    port = _wait_for_port(Path(args.port_file), args.startup_timeout)
    client = ServiceClient(args.host, port)

    dataset = load_corpus(args.corpus)
    records = list(dataset.store)
    truth = [list(pair) for pair in dataset.ground_truth]
    config = WorkflowConfig(
        likelihood_threshold=args.threshold,
        vote_mode="per-pair",  # what the service enforces per session
        aggregation="majority",
    )
    # The CLI baseline: the resolve_stream code path behind
    # `repro resolve-stream`, identical records / batches / config.
    expected = encode_result(
        resolve_stream(dataset, config=config, batch_size=args.batch_size)
    )

    def drive(index: int) -> dict:
        session_id = f"smoke-{index}"
        client.create_session(
            session_id,
            config={
                "likelihood_threshold": args.threshold,
                "aggregation": "majority",
            },
            truth=truth,
            cross_sources=dataset.cross_sources,
        )
        for offset in range(0, len(records), args.batch_size):
            client.append(
                session_id,
                [
                    encode_record(record)
                    for record in records[offset : offset + args.batch_size]
                ],
            )
        # An append answers with its delta; the resolution is GET result.
        served = client.result(session_id)
        client.close(session_id)
        return served

    with ThreadPoolExecutor(max_workers=args.sessions) as pool:
        futures = [pool.submit(drive, index) for index in range(args.sessions)]
        outcomes = [future.result(timeout=300) for future in futures]

    failures = 0
    for index, served in enumerate(outcomes):
        if served != expected:
            print(f"MISMATCH: session smoke-{index} differs from the CLI "
                  f"baseline", file=sys.stderr)
            failures += 1
    scrape = client.metrics_text()
    for needed in ("service_requests_total", "service_request_seconds"):
        if needed not in scrape:
            print(f"MISSING: /metrics scrape lacks {needed}", file=sys.stderr)
            failures += 1
    if failures:
        return 1
    print(
        f"service smoke OK: {args.sessions} concurrent sessions x "
        f"{len(records)} records bit-identical to the CLI baseline "
        f"({len(expected['matches'])} matches); /metrics scrape valid"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
