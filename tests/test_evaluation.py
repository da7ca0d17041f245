"""Tests for evaluation metrics, the threshold table and report formatting."""

import pytest

from repro.evaluation.metrics import (
    average_precision,
    f1_score,
    precision_recall,
    precision_recall_curve,
)
from repro.evaluation.reporting import format_table
from repro.evaluation.threshold_table import threshold_table


class TestPrecisionRecall:
    def test_basic_counts(self):
        predicted = [("a", "b"), ("c", "d"), ("e", "f")]
        truth = [("a", "b"), ("x", "y")]
        precision, recall = precision_recall(predicted, truth)
        assert precision == pytest.approx(1 / 3)
        assert recall == pytest.approx(1 / 2)

    def test_canonicalisation(self):
        precision, recall = precision_recall([("b", "a")], [("a", "b")])
        assert precision == 1.0 and recall == 1.0

    def test_empty_conventions(self):
        assert precision_recall([], [("a", "b")]) == (1.0, 0.0)
        assert precision_recall([("a", "b")], []) == (0.0, 1.0)

    def test_f1(self):
        assert f1_score([("a", "b")], [("a", "b")]) == 1.0
        assert f1_score([("a", "b")], [("c", "d")]) == 0.0


class TestCurves:
    def test_perfect_ranking_curve(self):
        truth = [("a", "b"), ("c", "d")]
        ranked = [("a", "b"), ("c", "d"), ("e", "f")]
        curve = precision_recall_curve(ranked, truth)
        assert curve[0] == (0.5, 1.0)
        assert curve[1] == (1.0, 1.0)
        assert curve[-1][1] < 1.0

    def test_average_precision_perfect_vs_poor(self):
        truth = [("a", "b"), ("c", "d")]
        good = [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]
        poor = [("e", "f"), ("g", "h"), ("a", "b"), ("c", "d")]
        assert average_precision(good, truth) > average_precision(poor, truth)
        assert average_precision(good, truth) == 1.0

    def test_average_precision_no_truth(self):
        assert average_precision([("a", "b")], []) == 0.0

    def test_one_point_per_rank_ending_at_the_full_list(self):
        truth = [(f"a{i}", f"b{i}") for i in range(50)]
        ranked = truth + [("x", "y")]
        curve = precision_recall_curve(ranked, truth)
        assert len(curve) == len(ranked)
        assert curve[-1] == (1.0, 50 / 51)


class TestThresholdTable:
    def test_rows_are_monotone(self, small_restaurant):
        rows = threshold_table(small_restaurant, thresholds=(0.5, 0.3, 0.1))
        pair_counts = [row.total_pairs for row in rows]
        recalls = [row.recall for row in rows]
        assert pair_counts == sorted(pair_counts)  # smaller threshold -> more pairs
        assert recalls == sorted(recalls)

    def test_zero_threshold_row_is_full_candidate_space(self, small_restaurant):
        rows = threshold_table(small_restaurant, thresholds=(0.3, 0.0))
        zero_row = rows[-1]
        assert zero_row.threshold == 0.0
        assert zero_row.total_pairs == small_restaurant.total_pair_count()
        assert zero_row.recall == 1.0

    def test_matching_pairs_never_exceed_total(self, small_product):
        for row in threshold_table(small_product, thresholds=(0.4, 0.2)):
            assert row.matching_pairs <= row.total_pairs
            assert 0.0 <= row.recall <= 1.0

    def test_row_as_dict(self, small_restaurant):
        row = threshold_table(small_restaurant, thresholds=(0.4,))[0]
        payload = row.as_dict()
        assert set(payload) == {"threshold", "total_pairs", "matching_pairs", "recall"}


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        rows = [{"name": "two-tiered", "hits": 3, "ratio": 0.51234}]
        text = format_table(rows, ["name", "hits", "ratio"], title="demo")
        assert "demo" in text
        assert "two-tiered" in text
        assert "0.512" in text

    def test_format_table_missing_column(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert "a" in text and "b" in text
