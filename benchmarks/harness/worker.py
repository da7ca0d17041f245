"""One workload in its own process, driven over a pipe by :mod:`run`.

A worker owns one workload for a whole run, so ``peak_rss_mb`` and
``setup_s`` are the workload's own.  It blocks on stdin when it is not its
turn.  Protocol: one JSON object per line on stdout, one command word per
line on stdin.

========  =====================================================================
command   answer
========  =====================================================================
(start)   ``{"event": "ready"}`` once set-up and the warm-up checks passed
``pass``  ``{"event": "pass", ..}`` one timed pass (``gc.collect()`` first)
``trace`` ``{"event": "trace", ..}`` one pass under the probes + per-layer metrics
``finish``  ``{"event": "done", "peak_rss_mb": ..}``, then the process exits
========  =====================================================================

An exception becomes ``{"event": "error", ..}`` and exit status 1.  SIGTERM,
Ctrl-C and a closed stdin (the coordinator died) all unwind through
``teardown``, so no server process or session directory is left behind.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, List, Tuple

#: Loop iterations of the reference kernel: about 40 ms on this host at its
#: fastest, 50-80 ms in its slow epochs.
KERNEL_ITERATIONS = 1_000_000


def reference_kernel_ms(iterations: int = KERNEL_ITERATIONS) -> float:
    """Time a fixed integer loop: no allocation, no imports, nothing from ``src/``.

    A diagnostic of the host only (``harness.ref_ms_*``).  No metric is
    ever rescaled by it.
    """
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return 1000.0 * (time.perf_counter() - started)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _bracketed(run_pass: Callable[[], object]) -> Tuple[object, List[float]]:
    """One pass with the reference kernel timed before and after it."""
    before = reference_kernel_ms()
    gc.collect()
    result = run_pass()
    return result, [before, reference_kernel_ms()]


def _trace(workload, trace_out) -> dict:
    """One pass under the probes: the pass record plus the per-layer metrics."""
    from probes import Tracer, layer_metrics, unattributed_ratio

    extra = {}
    if hasattr(workload, "memory_reference"):
        # stream-durable: the identical schedule in memory, at full size —
        # the durability price and the cross-backend digest check.
        extra["memory"], _ = _bracketed(workload.memory_reference)
    tracer = Tracer()
    (record, summary), ref_ms = _bracketed(lambda: workload.traced_pass(tracer))
    if trace_out:
        tracer.dump(trace_out)
        server_spans = getattr(workload, "server_trace_out", None)
        if server_spans is not None:
            with open(trace_out, "a", encoding="utf-8") as combined:
                combined.write(server_spans.read_text(encoding="utf-8"))
    record.update(
        event="trace", ref_ms=ref_ms, attempted=workload.attempted, failed=workload.failed,
        layers=layer_metrics(summary, record),
        unattributed=unattributed_ratio(summary), **extra,
    )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    # The default SIGTERM action would skip ``finally`` and orphan the server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        import workloads  # the program is imported here, inside the timed set-up

        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        workload.setup()
        _emit({"event": "ready"})
        for line in sys.stdin:
            command = line.strip()
            if command == "pass":
                record, ref_ms = _bracketed(workload.run_pass)
                record.update(event="pass", ref_ms=ref_ms, attempted=workload.attempted,
                              failed=workload.failed)
                _emit(record)
            elif command == "trace":
                _emit(_trace(workload, args.trace_out))
            elif command == "finish":
                break
            else:
                raise ValueError(f"unknown command {command!r}")
        _emit({"event": "done", "peak_rss_mb": workload.peak_rss_mb(),
               "attempted": workload.attempted, "failed": workload.failed,
               "retries_429": getattr(workload, "retries_429", 0)})
        return 0
    except Exception as error:  # process boundary: report it, exit non-zero
        _emit({"event": "error", "error": f"{type(error).__name__}: {error}",
               "traceback": traceback.format_exc(),
               "attempted": getattr(workload, "attempted", 0),
               "failed": getattr(workload, "failed", 0)})
        return 1
    finally:
        # A second signal must not cut the teardown short and orphan the server.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
