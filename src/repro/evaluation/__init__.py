"""Evaluation utilities: precision/recall metrics, PR curves and reports.

Section 7.3 evaluates every technique as a ranked list of pairs (most
likely matches first) and plots precision-recall curves obtained by cutting
the list at every prefix length; these helpers implement that protocol plus
the threshold/recall table of Section 7.1 (Table 2).
"""

from repro.evaluation.metrics import (
    precision_recall,
    f1_score,
    precision_recall_curve,
    average_precision,
)
from repro.evaluation.threshold_table import threshold_table, ThresholdRow
from repro.evaluation.reporting import format_table

__all__ = [
    "precision_recall",
    "f1_score",
    "precision_recall_curve",
    "average_precision",
    "threshold_table",
    "ThresholdRow",
    "format_table",
]
