"""Tests for the bottom-tier packing solvers."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from packing_oracle import branch_and_bound_packing

from repro.hit import packing
from repro.hit.packing import (
    PackingSolution,
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
            raise AssertionError("an LP was solved although FFD met the bound")

        monkeypatch.setattr(packing, "_basis_solve", no_lp)
        monkeypatch.setattr(packing, "linprog", no_lp)
        sizes = [4, 4, 2, 2, 3, 3, 2]
        assert first_fit_decreasing(sizes, 10).bin_count == size_lower_bound(sizes, 10) == 2
        solution = column_generation_packing(sizes, 10)
        assert solution.is_feasible()
        assert solution.bin_count == solution.lower_bound == 2
        assert solution.method == "column-generation(ffd-at-bound)"
        assert branch_and_bound_packing(sizes, 10).bin_count == 2

    def test_ffd_above_the_bound_still_goes_through_the_lp(self, monkeypatch):
        """Three master LPs, each with a unique optimum: the basis solve
        settles all three and HiGHS is never asked."""
        sizes = self.FFD_ABOVE_BOUND
        assert first_fit_decreasing(sizes, 10).bin_count == 5
        assert size_lower_bound(sizes, 10) == 4
        masters, highs = [], []
        solve = packing._basis_solve

        def counted(matrix, demand):
            masters.append(matrix.shape)
            return solve(matrix, demand)

        monkeypatch.setattr(packing, "_basis_solve", counted)
        monkeypatch.setattr(packing, "linprog", lambda *args, **kwargs: highs.append(kwargs))
        solution = column_generation_packing(sizes, 10)
        assert masters == [(3, 3), (3, 4), (3, 5)], "the LP was skipped above the bound"
        assert highs == []
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


@pytest.fixture
def highs_loaded():
    """``packing.linprog`` as after a process's first master LP: the real
    solver, whichever tests ran before (it is ``None`` until then)."""
    packing._import_highs()


def _run_fresh(script):
    """Run ``script`` in a new interpreter, where no other test's imports
    can have loaded ``scipy.optimize``, and return what it prints."""
    source = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()


class TestHighsOnDemand:
    """HiGHS (``scipy.optimize``) is imported by the first master LP of a
    process, tied or not, not by ``import repro``."""

    SESSION = """
        import sys
        import repro, repro.cli
        from repro.datasets.restaurant import RestaurantGenerator
        print("scipy.optimize" in sys.modules)
        from repro.hit import packing
        masters = []
        solve = packing._basis_solve
        packing._basis_solve = lambda *master: masters.append(1) or solve(*master)
        dataset = RestaurantGenerator(500, 62, seed=7).generate()
        resolver = repro.StreamingResolver(config=repro.WorkflowConfig(
            likelihood_threshold=0.35, cluster_size={k}, aggregation="majority",
            vote_mode="per-pair", seed=7,
        ))
        records = list(dataset.store)
        for start in range(0, len(records), {batch}):
            resolver.add_batch(records[start : start + {batch}])
        resolver.snapshot()
        print(len(masters), "scipy.optimize" in sys.modules, packing.linprog)
    """

    def test_importing_and_a_session_without_a_master_load_no_highs(self):
        """Restaurant(500, 62, seed 7) @0.35, k=10, 125-record appends packs
        every component set at the FFD bound.  Fails at the parent commit,
        whose packing module imported ``scipy.optimize`` when it loaded."""
        printed = _run_fresh(self.SESSION.format(k=10, batch=125))
        assert printed == ["False", "0", "False", "None"]

    def test_an_untied_master_loads_it(self):
        """k=5, 50-record appends: 5 master LPs, none tied, and HiGHS is
        loaded all the same, so a process's footprint does not depend on
        whether one of its masters ties."""
        printed = _run_fresh(self.SESSION.format(k=5, batch=50))
        assert printed[:3] == ["False", "5", "True"]

    def test_a_tied_master_packs_as_before(self):
        """Sizes 1, 3, 3, 3 at k=5: the second master ties and goes to
        HiGHS, which packs as it does in a process that loaded it earlier."""
        printed = _run_fresh("""
            import sys
            from repro.hit import packing
            print("scipy.optimize" in sys.modules)
            solution = packing.column_generation_packing([1, 3, 3, 3], 5)
            print("scipy.optimize" in sys.modules, packing.linprog.__module__)
            print(solution.method, solution.bin_count, solution.lower_bound,
                  repr(solution.bins).replace(" ", ""))
        """)
        in_process = column_generation_packing([1, 3, 3, 3], 5)
        assert printed == [
            "False", "True", "scipy.optimize._linprog",
            in_process.method, "3", "3", repr(in_process.bins).replace(" ", ""),
        ]


def _both_routes(sizes, capacity):
    """The packing with the basis solve, and with it declining every master
    (each then goes to HiGHS, as every master did before the basis solve)."""
    with_basis = column_generation_packing(sizes, capacity)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packing, "_basis_solve", lambda matrix, demand: None)
        with_highs = column_generation_packing(sizes, capacity)
    return with_basis, with_highs


def _same(one, other):
    return (one.bins, one.lower_bound, one.method) == (other.bins, other.lower_bound, other.method)


class TestBasisSolve:
    """A master LP whose optimum is unique has one answer, whichever solver
    finds it: the basis solve changes no bin, bound or method."""

    def test_every_recorded_instance_packs_as_through_highs(self):
        fixture = Path(__file__).parent / "fixtures" / "packing_counts.json"
        for row in json.loads(fixture.read_text())["rows"]:
            with_basis, with_highs = _both_routes(row["sizes"], row["capacity"])
            assert _same(with_basis, with_highs), row

    @given(
        st.integers(min_value=3, max_value=14).flatmap(
            lambda capacity: st.tuples(
                st.lists(st.integers(min_value=1, max_value=capacity), max_size=40),
                st.just(capacity),
            )
        )
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_instances_pack_as_through_highs(self, instance):
        sizes, capacity = instance
        with_basis, with_highs = _both_routes(sizes, capacity)
        assert _same(with_basis, with_highs)

    def test_the_diagonal_start_is_kept_when_it_is_the_unique_optimum(self):
        x, duals, objective = packing._basis_solve(np.array([[2.0, 0.0], [0.0, 3.0]]),
                                                   np.array([3.0, 6.0]))
        assert x.tolist() == [1.5, 2.0]
        assert duals.tolist() == pytest.approx([0.5, 1 / 3])
        assert objective == 3.5

    def test_a_tied_master_is_declined(self):
        """min x1 + x2 + x3  s.t.  2 x1 + x3 >= 2,  2 x2 + x3 >= 2: the
        diagonal basis (1, 1, 0) and (0, 0, 2) both cost 2, so the third
        column's reduced cost is 0 and the optimum is not unique."""
        matrix = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        assert packing._basis_solve(matrix, np.array([2.0, 2.0])) is None

    @pytest.mark.usefixtures("highs_loaded")
    def test_a_tied_master_reaches_linprog(self, monkeypatch):
        """Sizes 1, 3, 3, 3 at capacity 5: the first master (the diagonal
        patterns) has a unique optimum; pricing adds the pattern {3, 1, 1},
        after which covering the three 3s by {3} or by {3, 1, 1} ties at 3,
        and that master goes to HiGHS."""
        sizes = [1, 3, 3, 3]
        assert first_fit_decreasing(sizes, 5).bin_count == 3 > size_lower_bound(sizes, 5) == 2
        calls = []
        solve = packing.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs["A_ub"].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(packing, "linprog", counted)
        with_basis, with_highs = _both_routes(sizes, 5)
        # The tied second master; then both masters of the HiGHS-only run.
        assert calls == [(2, 3), (2, 2), (2, 3)]
        assert _same(with_basis, with_highs)
        assert with_basis.bin_count == with_basis.lower_bound == 3


class TestPackComponents:
    def test_groups_respect_capacity(self):
        components = [["a", "b"], ["c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
        groups = pack_components(components, cluster_size=4)
        assert len(groups) == 3
        assert all(len(group) <= 4 for group in groups)

    def test_every_component_kept_together(self):
        components = [["a", "b", "c"], ["d", "e"], ["f"]]
        groups = pack_components(components, cluster_size=6)
        for component in components:
            assert any(set(component) <= set(group) for group in groups)

    def test_overlapping_components_deduplicated(self):
        groups = pack_components([["a", "b"], ["b", "c"]], cluster_size=4)
        assert len(groups) == 1
        assert sorted(groups[0]) == ["a", "b", "c"]

    def test_oversized_component_rejected(self):
        with pytest.raises(ValueError):
            pack_components([["a", "b", "c"]], cluster_size=2)


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
