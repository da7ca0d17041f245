"""Cross-dataset regression matrix sweep with tolerance-checked baselines.

Runs the 9 dataset × execution mode cells (see
:mod:`repro.evaluation.matrix`) on the bundled mini corpora and compares
every cell against the committed ``BENCH_matrix.json``.  A cell outside its
tolerance fails the run with a per-cell diff message naming the metric, the
observed and baseline values and the tolerance — so a quality regression
points at the exact dataset/mode combination that moved.

Standalone script (not a pytest-benchmark module) so CI can gate on it::

    PYTHONPATH=src python benchmarks/bench_matrix.py             # all 9 cells
    PYTHONPATH=src python benchmarks/bench_matrix.py --refresh   # rewrite baseline

``--refresh`` rewrites the committed baseline from the current run — the
deliberate act required after a change that legitimately moves cell
metrics (new dataset, retuned threshold, crowd-model change).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.evaluation import matrix as mx
from repro.evaluation.reporting import format_table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", nargs="+", default=None,
                        choices=mx.matrix_datasets(),
                        help="restrict to these datasets")
    parser.add_argument("--modes", nargs="+", default=None,
                        choices=mx.MATRIX_MODES,
                        help="restrict to these execution modes")
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite the committed baseline from this run "
                             "instead of comparing against it")
    parser.add_argument("--baseline", type=str, default=None,
                        help=f"baseline file (default: {mx.baseline_path()})")
    parser.add_argument("--json", type=str, default=None,
                        help="also write the measured rows to this JSON file")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    rows = mx.run_matrix(datasets=args.datasets, modes=args.modes)
    elapsed = time.perf_counter() - started

    display = [
        {key: value for key, value in row.items() if not key.startswith("_")}
        for row in rows
    ]
    print(format_table(
        display,
        columns=["dataset", "mode", "candidates", "hits",
                 "matches", "precision", "recall", "f1"],
        title=f"Cross-dataset regression matrix — {len(rows)} cells "
              f"in {elapsed:.1f}s",
    ))

    # Streaming modes must reproduce the batch match set whenever both ran.
    failures = 0
    by_cell = {(r["dataset"], r["mode"]): r for r in rows}
    for (dataset, mode), row in by_cell.items():
        batch = by_cell.get((dataset, "batch"))
        if mode == "batch" or batch is None:
            continue
        if row["_matches"] != batch["_matches"]:
            print(f"MISMATCH: {dataset}|{mode} match set differs from batch",
                  file=sys.stderr)
            failures += 1

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"benchmark": "matrix", "rows": display}, handle, indent=2)
        print(f"wrote {args.json}")

    baseline_file = args.baseline or mx.baseline_path()
    if args.refresh:
        document = mx.baseline_document(rows)
        with open(baseline_file, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline refreshed: {baseline_file} ({len(document['cells'])} cells)")
        return 1 if failures else 0

    try:
        baseline = mx.load_baseline(baseline_file)
    except FileNotFoundError:
        print(f"error: no baseline at {baseline_file}; run with --refresh first",
              file=sys.stderr)
        return 2
    violations = mx.compare_rows(rows, baseline)
    for violation in violations:
        print(f"REGRESSION: {violation}", file=sys.stderr)
    failures += len(violations)
    if failures:
        return 1
    print(f"all {len(rows)} cells within tolerance of {baseline_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
