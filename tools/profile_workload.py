"""cProfile one pass of a benchmark-harness workload.

Sets up one workload exactly as the harness worker does (``setup()``,
which includes the warm-up slice and its equivalence checks), runs one warm
pass at full size, then one pass under cProfile, and prints the cumulative
and the self-time tables.  The workload classes are imported from
``benchmarks/harness/workloads.py``, not copied, so what is profiled is what
``BENCHMARK.json`` measures::

    python3 tools/profile_workload.py batch-paper --seed 7 --top 30
    python3 tools/profile_workload.py stream-mem --smoke

cProfile charges every Python call but not the work inside native code, so
it inflates Python-heavy layers relative to numpy/scipy ones: use the
tables to find candidates, then price a change with the harness itself
(``benchmarks/harness/run.py``, profiling off).  ``serve-http`` runs its
server in another process and its clients on threads, neither of which
cProfile follows: profile ``stream-mem`` for the engine under the service.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# The harness modules import each other by bare name and the server process
# of ``serve-http`` needs ``repro`` importable, exactly as under ``run.py``.
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks" / "harness")]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(REPO_ROOT / "src")]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)


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
        workload.setup()
        warm = workload.run_pass()
        gc.collect()
        profile = cProfile.Profile()
        record = profile.runcall(workload.run_pass)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} smoke={args.smoke}: "
          f"warm pass {warm['wall_s']:.3f} s, profiled pass {record['wall_s']:.3f} s, "
          f"hits={record['hits']} f1={record['f1']:.6f}")
    stats = pstats.Stats(profile)
    for order in ("cumulative", "tottime"):
        print(f"\n== top {args.top} by {order} ==")
        stats.sort_stats(order).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
