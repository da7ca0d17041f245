"""Tests for the bottom-tier packing solvers."""

import json
from pathlib import Path

import pytest

from repro.hit import packing
from repro.hit.packing import (
    PackingSolution,
    branch_and_bound_packing,
    column_generation_packing,
    first_fit_decreasing,
    pack_components,
    size_lower_bound,
)

SOLVERS = [first_fit_decreasing, branch_and_bound_packing, column_generation_packing]


class TestLowerBound:
    def test_size_lower_bound(self):
        assert size_lower_bound([4, 4, 2, 2], 4) == 3
        assert size_lower_bound([], 4) == 0
        assert size_lower_bound([1, 1, 1], 10) == 1


class TestSolversSharedBehaviour:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_feasible_on_paper_example(self, solver):
        """Sizes {4, 4, 2, 2} with capacity 4 pack into exactly 3 HITs."""
        solution = solver([4, 4, 2, 2], 4)
        assert solution.is_feasible()
        assert solution.bin_count == 3

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_feasible_on_mixed_sizes(self, solver):
        sizes = [2, 3, 5, 4, 2, 2, 3, 6, 1, 1, 7, 2]
        solution = solver(sizes, 8)
        assert solution.is_feasible()
        assert solution.bin_count >= size_lower_bound(sizes, 8)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_single_item(self, solver):
        solution = solver([3], 5)
        assert solution.bin_count == 1
        assert solution.is_feasible()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_empty_input(self, solver):
        solution = solver([], 5)
        assert solution.bin_count == 0
        assert solution.is_feasible()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_item_too_large_rejected(self, solver):
        with pytest.raises(ValueError):
            solver([6], 5)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_invalid_sizes_rejected(self, solver):
        with pytest.raises(ValueError):
            solver([0, 2], 5)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_loads_never_exceed_capacity(self, solver):
        sizes = [5, 4, 4, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1]
        solution = solver(sizes, 6)
        assert all(load <= 6 for load in solution.bin_loads())


class TestExactness:
    def test_branch_and_bound_beats_ffd_on_adversarial_instance(self):
        # FFD uses 3 bins for these sizes with capacity 10; optimal is 2... no:
        # classic instance where FFD is suboptimal: sizes 6,5,5,4 with cap 10.
        sizes = [6, 5, 5, 4]
        ffd = first_fit_decreasing(sizes, 10)
        exact = branch_and_bound_packing(sizes, 10)
        assert exact.bin_count == 2
        assert exact.bin_count <= ffd.bin_count

    def test_column_generation_matches_exact_on_cutting_stock_instance(self):
        sizes = [4] * 6 + [3] * 6 + [2] * 6
        exact = branch_and_bound_packing(sizes, 9)
        cg = column_generation_packing(sizes, 9)
        assert cg.is_feasible()
        assert cg.bin_count == exact.bin_count

    def test_exact_matches_lp_lower_bound_when_tight(self):
        sizes = [5, 5, 5, 5]
        solution = branch_and_bound_packing(sizes, 10)
        assert solution.bin_count == 2

    def test_node_budget_falls_back_to_ffd_quality(self):
        sizes = [3, 3, 3, 2, 2, 2, 2, 1]
        limited = branch_and_bound_packing(sizes, 6, max_nodes=1)
        assert limited.is_feasible()
        assert limited.bin_count <= first_fit_decreasing(sizes, 6).bin_count + 1


class TestPackFirst:
    """FFD at the ceil(total/capacity) bound is optimal: no LP is solved."""

    #: The recorded ``serve-http`` instance where FFD is one above the bound.
    FFD_ABOVE_BOUND = [2, 4, 3, 3, 3, 3, 2, 3, 2, 2, 3, 2, 2, 2, 2, 2]

    def test_bin_counts_are_the_parent_commits(self):
        """``fixtures/packing_counts.json`` was written by the column
        generation that always solved the LP: same count on every row."""
        fixture = Path(__file__).parent / "fixtures" / "packing_counts.json"
        rows = json.loads(fixture.read_text())["rows"]
        assert len(rows) >= 300
        assert {row["source"] for row in rows} == {
            "serve-http", "stream-mem", "batch-paper", "random",
        }
        for row in rows:
            solution = column_generation_packing(row["sizes"], row["capacity"])
            assert solution.is_feasible(), row
            assert solution.bin_count == row["bin_count"], row

    def test_ffd_at_the_bound_solves_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called although FFD met the bound")

        monkeypatch.setattr(packing, "linprog", no_lp)
        sizes = [4, 4, 2, 2, 3, 3, 2]
        assert first_fit_decreasing(sizes, 10).bin_count == size_lower_bound(sizes, 10) == 2
        solution = column_generation_packing(sizes, 10)
        assert solution.is_feasible()
        assert solution.bin_count == solution.lower_bound == 2
        assert solution.method == "column-generation(ffd-at-bound)"
        assert branch_and_bound_packing(sizes, 10).bin_count == 2

    def test_ffd_above_the_bound_still_goes_through_the_lp(self, monkeypatch):
        sizes = self.FFD_ABOVE_BOUND
        assert first_fit_decreasing(sizes, 10).bin_count == 5
        assert size_lower_bound(sizes, 10) == 4
        calls = []
        solve = packing.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(packing, "linprog", counted)
        solution = column_generation_packing(sizes, 10)
        assert calls, "the LP was skipped although FFD is above the bound"
        assert all(call["method"] == "highs" and call["bounds"] == (0, None) for call in calls)
        assert solution.is_feasible()
        assert solution.bin_count == solution.lower_bound == 4
        assert solution.method == "column-generation"

    def test_ffd_is_packed_once_per_call(self, monkeypatch):
        calls = []
        pack = packing.first_fit_decreasing

        def counted(sizes, capacity):
            calls.append(list(sizes))
            return pack(sizes, capacity)

        monkeypatch.setattr(packing, "first_fit_decreasing", counted)
        column_generation_packing([4, 4, 2, 2, 3, 3, 2], 10)
        assert calls == [[4, 4, 2, 2, 3, 3, 2]]
        del calls[:]
        column_generation_packing(self.FFD_ABOVE_BOUND, 10)
        # Once for the whole instance; any later call repairs a residual.
        assert calls.count(self.FFD_ABOVE_BOUND) == 1
        assert all(len(sizes) < len(self.FFD_ABOVE_BOUND) for sizes in calls[1:])


class TestPackComponents:
    def test_groups_respect_capacity(self):
        components = [["a", "b"], ["c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
        groups = pack_components(components, cluster_size=4)
        assert len(groups) == 3
        assert all(len(group) <= 4 for group in groups)

    def test_every_component_kept_together(self):
        components = [["a", "b", "c"], ["d", "e"], ["f"]]
        groups = pack_components(components, cluster_size=6, method="ffd")
        for component in components:
            assert any(set(component) <= set(group) for group in groups)

    def test_overlapping_components_deduplicated(self):
        groups = pack_components([["a", "b"], ["b", "c"]], cluster_size=4, method="ffd")
        assert len(groups) == 1
        assert sorted(groups[0]) == ["a", "b", "c"]

    def test_oversized_component_rejected(self):
        with pytest.raises(ValueError):
            pack_components([["a", "b", "c"]], cluster_size=2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            pack_components([["a", "b"]], cluster_size=4, method="nope")


class TestPackingSolution:
    def test_is_feasible_detects_missing_items(self):
        solution = PackingSolution(bins=[[0]], capacity=4, sizes=[2, 2], method="manual")
        assert not solution.is_feasible()

    def test_is_feasible_detects_overflow(self):
        solution = PackingSolution(bins=[[0, 1]], capacity=3, sizes=[2, 2], method="manual")
        assert not solution.is_feasible()

    def test_bin_loads(self):
        solution = PackingSolution(bins=[[0, 1], [2]], capacity=4, sizes=[2, 2, 3], method="manual")
        assert solution.bin_loads() == [4, 3]
