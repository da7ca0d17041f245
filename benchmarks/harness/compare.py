"""Compare two benchmark results (or two sets of them), like seed with like seed.

::

    python3 benchmarks/harness/compare.py A.json B.json
    python3 benchmarks/harness/compare.py A1.json A2.json A3.json --against B1.json B2.json B3.json

The files are what ``run.py --json`` writes.  ``A`` is the baseline (the
parent commit, or the first set of runs of the same code), ``B`` the
candidate; both sides run the same seeds.  With several files per side the
medians are compared.  One row per workload × end-to-end metric: both values,
how much worse ``B`` is as a share of ``A`` (negative = better), the bound
(``BOUNDS`` below) and a verdict:

``ok``          ``B`` is not worse than ``A`` by more than the bound;
``regressed``   it is;
``unresolved``  the runs inside one side spread wider than the bound, so the
                comparison cannot tell — unless every ``B`` run reads better
                than every ``A`` run, which is ``ok`` whatever the spread.

The spread of a side is (Q3 − Q1) ÷ median of its runs once it has four or
more (the rule a benchmark is accepted by, applied to ten runs), and
(max − min) ÷ median for two or three.

``hits`` and ``f1`` are functions of the seed alone, so they are compared
seed by seed: on every seed both sides ran, ``B`` may not be worse than ``A``
at all (``f1`` to 1e-12).  Sides that share no seed have only their medians
to compare, under the same bound of 0.

Exit status: 0 all ``ok``, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from stats import median, quartile_spread, range_ratio

REPO_ROOT = Path(__file__).resolve().parents[2]

#: How much worse ``B`` may be before it is a regression, with the same seeds
#: on both sides.  ``BENCHMARK.json`` has to declare wider bounds for all but
#: ``setup_s``: a benchmark is accepted on the quartile spread of ten runs
#: with ten *different* seeds, which includes the spread of the inputs
#: themselves (``hits``, ``f1``, the seed-dependent ``peak_rss_mb`` of
#: ``batch-paper``) and must leave room for this host's slow hours.
BOUNDS = {"setup_s": 0.25, "wall_s": 0.10, "peak_rss_mb": 0.05, "hits": 0.0, "f1": 0.0}
#: Metrics a seed determines: compared per seed.
EXACT = ("hits", "f1")


def load_values(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per file; "seed" is listed like a metric."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        for workload, entry in report["workloads"].items():
            metrics = values.setdefault(workload, {})
            metrics.setdefault("seed", []).append(report["seed"])
            for metric, measured in entry["metrics"].items():
                metrics.setdefault(metric, []).append(measured["value"])
    return values


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def spread(runs: Sequence[float]) -> float:
    return quartile_spread(runs) if len(runs) >= 4 else range_ratio(runs)


def worst_per_seed(a: Dict[str, List[float]], b: Dict[str, List[float]], name: str,
                   better: str) -> Optional[float]:
    """Largest worsening of ``name`` over the seeds both sides ran; None without one."""
    worse = [worsening(a_value, b_value, better)
             for a_seed, a_value in zip(a["seed"], a[name])
             for b_seed, b_value in zip(b["seed"], b[name]) if a_seed == b_seed]
    return max(worse) + 0.0 if worse else None     # + 0.0: never print -0.00%


def verdict(a_runs: Sequence[float], b_runs: Sequence[float], better: str,
            bound: float) -> str:
    worse = worsening(median(a_runs), median(b_runs), better)
    if better == "lower":
        b_always_better = max(b_runs) < min(a_runs)
    else:
        b_always_better = min(b_runs) > max(a_runs)
    if b_always_better:
        return "ok"
    if max(spread(a_runs), spread(b_runs)) > bound:
        return "unresolved"
    # A bound of b on a value near 1e0 must not fail on the last float bit.
    return "regressed" if worse > bound + 1e-12 else "ok"


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> List[dict]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declaration = json.load(handle)
    a_values, b_values = load_values(a_paths), load_values(b_paths)
    rows = []
    for workload in sorted(set(a_values) & set(b_values)):
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            if name not in a_values[workload] or name not in b_values[workload]:
                continue
            a_runs, b_runs = a_values[workload][name], b_values[workload][name]
            bound = BOUNDS[name]
            row = {
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": median(a_runs), "b": median(b_runs),
                "spread_a": spread(a_runs), "spread_b": spread(b_runs),
                "worse_by": worsening(median(a_runs), median(b_runs), metric["better"]),
                "bound": bound,
                "verdict": verdict(a_runs, b_runs, metric["better"], bound),
            }
            per_seed = (worst_per_seed(a_values[workload], b_values[workload], name,
                                       metric["better"]) if name in EXACT else None)
            if per_seed is not None:
                row.update(worse_by=per_seed,
                           verdict="regressed" if per_seed > 1e-12 else "ok")
            rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", help="A.json B.json, or the A set")
    parser.add_argument("--against", nargs="+", default=None, help="the B set")
    args = parser.parse_args(argv)
    if args.against is None:
        if len(args.files) != 2:
            parser.error("give exactly two files, or a set and --against another set")
        a_paths, b_paths = args.files[:1], args.files[1:]
    else:
        a_paths, b_paths = args.files, args.against

    rows = compare(a_paths, b_paths)
    if not rows:
        print("error: the two sides share no workload and end-to-end metric", file=sys.stderr)
        return 1
    print(f"{'workload':<16}{'metric':<13}{'A':>14}{'B':>14}{'spread A':>10}{'spread B':>10}"
          f"{'worse by':>10}{'bound':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<16}{row['metric']:<13}{row['a']:>14.6f}{row['b']:>14.6f}"
              f"{row['spread_a'] * 100:>9.2f}%{row['spread_b'] * 100:>9.2f}%"
              f"{row['worse_by'] * 100:>9.2f}%{row['bound'] * 100:>7.1f}%  {row['verdict']}")
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
