"""Cross-dataset regression matrix: dataset × execution mode.

One cell = resolve one dataset in one execution mode (batch workflow,
streaming replay, or streaming on the SQLite store) and measure quality and
cost: candidate pairs, HITs issued, matches, precision/recall/F1.  Every
path in the stack is deterministic (per-pair votes, seeded crowd), so each
cell has a committed baseline in ``BENCH_matrix.json`` and regressions are
caught as tolerance violations with a per-cell diff — not as a vague
"quality got worse somewhere".

``tests/test_matrix.py`` runs every cell against the bundled mini corpora
on every push; ``benchmarks/bench_matrix.py`` is the same sweep as a script
(and refreshes the baseline with ``--refresh``).
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import WorkflowConfig
from repro.core.workflow import HybridWorkflow
from repro.datasets.base import Dataset
from repro.datasets.restaurant import RestaurantGenerator
from repro.etl.registry import corpus_spec, load_corpus
from repro.evaluation.metrics import f1_score, precision_recall
from repro.streaming.session import resolve_stream

#: Execution modes of the matrix.  ``batch`` runs the one-shot
#: :class:`~repro.core.workflow.HybridWorkflow`; ``stream`` replays the
#: dataset through the incremental resolver in arrival batches; and
#: ``stream-sqlite`` does the same on a durable session (its SQLite store).
#: All three must produce the identical match set.
MATRIX_MODES = ("batch", "stream", "stream-sqlite")

#: Arrival batch size for the streaming modes — small enough to exercise
#: many incremental updates on the ~500-record matrix datasets.
_STREAM_BATCH_SIZE = 64

#: Crowd seed shared by every cell (the crowd simulation is seeded, so one
#: seed keeps cells comparable across modes).
_SEED = 7

#: Committed per-cell baseline, at the repository root next to the other
#: ``BENCH_*.json`` files.
BASELINE_FILENAME = "BENCH_matrix.json"

#: Default tolerance per metric.  Rates compare absolutely; counts
#: relatively.  Every cell is deterministic, so the committed baselines
#: reproduce exactly on the machine that wrote them — the tolerances only
#: absorb cross-platform drift (hash ordering feeding tie-breaks).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "precision": 0.02,   # absolute
    "recall": 0.02,      # absolute
    "f1": 0.02,          # absolute
    "candidates": 0.02,  # relative
    "hits": 0.05,        # relative
    "matches": 0.05,     # relative
}

#: Metrics compared as absolute differences; the rest compare relatively.
_ABSOLUTE_METRICS = ("precision", "recall", "f1")


def matrix_datasets() -> Tuple[str, ...]:
    """Names of the datasets the matrix sweeps."""
    return ("abt-buy", "amazon-google", "restaurant-mini")


def load_matrix_dataset(name: str) -> Tuple[Dataset, WorkflowConfig]:
    """Load one matrix dataset plus the cell-independent workflow config.

    ETL corpora load their bundled mini variant and take the likelihood
    threshold and similarity attributes from their registered spec;
    ``restaurant-mini`` is a seeded 200-record slice of the synthetic
    Restaurant generator at the paper's 0.35 threshold — in the matrix so
    a clean single-source dataset crosses every mode too.
    """
    if name == "restaurant-mini":
        dataset = RestaurantGenerator(record_count=200, duplicate_pairs=25, seed=_SEED).generate()
        threshold, attributes = 0.35, None
    else:
        dataset = load_corpus(name)
        spec = corpus_spec(name)
        threshold = spec.default_threshold
        attributes = spec.default_attributes
    config = WorkflowConfig(
        likelihood_threshold=threshold,
        similarity_attributes=attributes,
        vote_mode="per-pair",
        aggregation="majority",
        seed=_SEED,
    )
    return dataset, config


def cell_key(dataset: str, mode: str) -> str:
    """Stable key of one cell: ``"dataset|mode"``."""
    return f"{dataset}|{mode}"


def iter_cells(
    datasets: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
) -> Iterator[Tuple[str, str]]:
    """Yield the selected ``(dataset, mode)`` cells."""
    for dataset in datasets or matrix_datasets():
        for mode in modes or MATRIX_MODES:
            yield dataset, mode


def run_cell(dataset_name: str, mode: str) -> Dict[str, object]:
    """Resolve one cell and return its measured row.

    A ``stream-sqlite`` cell keeps its SQLite store in a throwaway
    temporary directory.
    """
    dataset, config = load_matrix_dataset(dataset_name)
    if mode == "stream":
        result = resolve_stream(dataset, config=config, batch_size=_STREAM_BATCH_SIZE)
    elif mode == "stream-sqlite":
        with tempfile.TemporaryDirectory(prefix="repro-matrix-") as tmp:
            config = dataclasses.replace(
                config, checkpoint_dir=str(Path(tmp) / f"{dataset.name}-matrix")
            )
            result = resolve_stream(dataset, config=config, batch_size=_STREAM_BATCH_SIZE)
    elif mode == "batch":
        result = HybridWorkflow(config).resolve(dataset)
    else:
        raise ValueError(f"unknown matrix mode {mode!r}; choose from {MATRIX_MODES}")
    precision, recall = precision_recall(result.matches, dataset.ground_truth)
    return {
        "dataset": dataset_name,
        "mode": mode,
        "candidates": result.candidate_count,
        "hits": result.hit_count,
        "matches": len(result.matches),
        "precision": round(precision, 6),
        "recall": round(recall, 6),
        "f1": round(f1_score(result.matches, dataset.ground_truth), 6),
        # Streaming-vs-batch equality is asserted on the actual pair sets,
        # not just their counts; kept out of the JSON baseline.
        "_matches": frozenset(result.matches),
    }


def run_matrix(
    datasets: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Run every selected cell and return the measured rows."""
    return [run_cell(dataset, mode) for dataset, mode in iter_cells(datasets, modes)]


def baseline_path() -> Path:
    """Location of the committed baseline (repository root)."""
    return Path(__file__).resolve().parents[3] / BASELINE_FILENAME


def load_baseline(path: Optional[Path] = None) -> Dict[str, object]:
    """Load the committed baseline document (``{"tolerances", "cells"}``)."""
    with open(path or baseline_path(), "r", encoding="utf-8") as handle:
        return json.load(handle)


def baseline_document(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Build a baseline document from measured rows (for ``--refresh``)."""
    cells = {}
    for row in rows:
        key = cell_key(str(row["dataset"]), str(row["mode"]))
        cells[key] = {
            metric: row[metric]
            for metric in ("candidates", "hits", "matches", "precision", "recall", "f1")
        }
    return {
        "benchmark": "matrix",
        "stream_batch_size": _STREAM_BATCH_SIZE,
        "seed": _SEED,
        "tolerances": dict(DEFAULT_TOLERANCES),
        "cells": cells,
    }


def compare_cell(
    row: Dict[str, object],
    baseline: Dict[str, object],
) -> List[str]:
    """Compare one measured row against the baseline document.

    Returns one human-readable violation message per metric outside its
    tolerance (empty list = the cell is within tolerance).  A cell missing
    from the baseline is itself a violation: new cells must be baselined
    deliberately, not silently skipped.
    """
    key = cell_key(str(row["dataset"]), str(row["mode"]))
    cells = baseline.get("cells", {})
    if key not in cells:
        return [f"{key}: no committed baseline (run bench_matrix.py --refresh)"]
    tolerances = {**DEFAULT_TOLERANCES, **baseline.get("tolerances", {})}
    expected = cells[key]
    violations = []
    for metric, tolerance in tolerances.items():
        if metric not in expected:
            continue
        observed_value = float(row[metric])  # type: ignore[arg-type]
        expected_value = float(expected[metric])
        if metric in _ABSOLUTE_METRICS:
            delta = abs(observed_value - expected_value)
            within = delta <= tolerance
            detail = f"|Δ|={delta:.4f} > ±{tolerance}"
        else:
            scale = max(abs(expected_value), 1.0)
            delta = abs(observed_value - expected_value) / scale
            within = delta <= tolerance
            detail = f"relΔ={delta:.4f} > ±{tolerance:.0%}"
        if not within:
            violations.append(
                f"{key}: {metric} {observed_value:g} vs baseline "
                f"{expected_value:g} ({detail})"
            )
    return violations


def compare_rows(
    rows: Sequence[Dict[str, object]],
    baseline: Dict[str, object],
) -> List[str]:
    """Compare many rows; returns the concatenated per-cell violations."""
    violations: List[str] = []
    for row in rows:
        violations.extend(compare_cell(row, baseline))
    return violations
