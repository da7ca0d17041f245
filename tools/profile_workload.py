"""cProfile one pass of a benchmark-harness workload.

Sets up one workload exactly as the harness worker does (``setup()``,
which includes the warm-up slice and its equivalence checks), runs one warm
pass at full size, then one pass under cProfile, and prints the wall time of
each of the three (set-up is not profiled, so its time is the only sign of a
set-up cost) and the cumulative and the self-time tables.  The workload
classes are imported from ``benchmarks/harness/workloads.py``, not copied,
so what is profiled is what ``BENCHMARK.json`` measures::

    python3 tools/profile_workload.py batch-paper --seed 7 --top 30
    python3 tools/profile_workload.py stream-mem --smoke
    python3 tools/profile_workload.py serve-http --seed 7

cProfile charges every Python call but not the work inside native code, so
it inflates Python-heavy layers relative to numpy/scipy ones: use the
tables to find candidates, then price a change with the harness itself
(``benchmarks/harness/run.py``, profiling off).

``serve-http`` runs its server in another process and its clients on
threads, neither of which cProfile follows, so for that workload no server is
started: what is profiled is the served engine on the service's own event
schedule — the workload's sessions (``ServeHttp._session_inputs``: 50-record
appends, retractions, updates) replayed in this process through the
``StreamingResolver`` replay the harness checks the server against
(``ServeHttp._standalone``).  HTTP, the shard queue and the encodings on the
wire are not in it; the traced harness run prices those.  Do not read
``stream-mem`` as a stand-in: its 250-record batches give the engine
different work per event (5.2 LPs a packing against the service's 2.8, and
first-fit-decreasing certifies 8 of its 40 packings against 145 of 161).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# The harness modules import each other by bare name.
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks" / "harness")]


def serve_http_replay(workloads, workload):
    """One pass = every session of ``serve-http`` replayed in this process."""
    inputs = [workload._session_inputs(workload.sizes, index)
              for index in range(workloads.SERVE_SESSIONS)]

    def run_pass():
        began = time.perf_counter()
        finals = [workload._standalone(entry) for entry in inputs]
        return {
            "wall_s": time.perf_counter() - began,
            "hits": sum(final["hit_count"] for final in finals),
            "f1": workloads.pooled_f1([
                (f"s{index}", final["matches"], entry["ground_truth"])
                for index, (final, entry) in enumerate(zip(finals, inputs))
            ]),
        }

    return run_pass


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    parser.add_argument("--smoke", action="store_true",
                        help="the 500-record slice instead of the full size")
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="profile-workload-"))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    try:
        began = time.perf_counter()
        if args.workload == "serve-http":
            run_pass = serve_http_replay(workloads, workload)
        else:
            workload.setup()
            run_pass = workload.run_pass
        setup_s = time.perf_counter() - began
        warm = run_pass()
        gc.collect()
        profile = cProfile.Profile()
        record = profile.runcall(run_pass)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} smoke={args.smoke}: "
          f"set-up {setup_s:.3f} s, warm pass {warm['wall_s']:.3f} s, profiled pass {record['wall_s']:.3f} s, "
          f"hits={record['hits']} f1={record['f1']:.6f}")
    stats = pstats.Stats(profile)
    for order in ("cumulative", "tottime"):
        print(f"\n== top {args.top} by {order} ==")
        stats.sort_stats(order).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
