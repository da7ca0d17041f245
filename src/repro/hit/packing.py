"""Bottom tier of the two-tiered approach: SCC packing (Section 5.3).

Packing small connected components into the minimum number of cluster-based
HITs of capacity ``k`` is a one-dimensional cutting-stock / bin-packing
problem.  The paper formulates it as an integer linear program over feasible
*patterns* ``p = [a_1, ..., a_k]`` (``a_j`` = number of packed components of
size ``j``) and solves it with column generation and branch-and-bound.

:func:`pack_components` packs with :func:`column_generation_packing`, the
paper's cutting-stock approach: LP relaxation solved by column generation
(restricted master LP + dynamic-programming knapsack pricing), then an
integer solution obtained by rounding down and repairing the residual
demand with :func:`first_fit_decreasing`, the classic FFD heuristic (at
most ``11/9 OPT + 1`` bins).  The test suite checks both against an exact
branch-and-bound oracle.

The order inside :func:`column_generation_packing` is bound → FFD → LP: no
packing uses fewer than ``ceil(sum(sizes) / capacity)`` bins, so an FFD
packing with exactly that many is optimal and is returned without solving
anything; the LP runs only for the instances where FFD is above the bound,
which is the only place it can lower the number of HITs.

Each master LP is solved first by :func:`_basis_solve`, a small dense primal
simplex started from the Gilmore–Gomory diagonal basis, and handed to
scipy's ``linprog`` (HiGHS) only when that solve does not prove its optimum
unique.  An optimal basis whose basic values and non-basic reduced costs are
all strictly positive is primal and dual non-degenerate, so the optimal
``x`` and duals are unique and every correct solver returns them: which
route solved a master cannot change a packing.

``scipy.optimize`` is imported by the first master LP of a process, tied
or not, not when this module loads: a process that packs no component
set above the FFD bound (start-up, ``--help``, small sessions) never pays
its ~0.4 s import or its ~26 MB, and every process that does column
generation pays both once, whether or not one of its masters ties, so its
footprint does not hinge on LP degeneracy.  Until then the module's
``linprog`` is ``None``.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

#: ``scipy.optimize.linprog``, imported by :func:`_import_highs`.
linprog = None


def _import_highs() -> None:
    """Bind :data:`linprog` to ``scipy.optimize.linprog`` unless it is bound."""
    global linprog
    if linprog is None:
        from scipy.optimize import linprog


@dataclass
class PackingSolution:
    """Result of packing items (component sizes) into bins (HITs).

    Attributes
    ----------
    bins:
        Each bin is a list of item indices (into the original item list).
    capacity:
        The bin capacity (cluster-size threshold ``k``).
    sizes:
        The item sizes, in the original order.
    method:
        Name of the solver that produced the solution.
    lower_bound:
        A proven lower bound on the optimal number of bins (when available).
    """

    bins: List[List[int]]
    capacity: int
    sizes: List[int]
    method: str
    lower_bound: Optional[int] = None

    @property
    def bin_count(self) -> int:
        """Number of bins used."""
        return len(self.bins)

    def is_feasible(self) -> bool:
        """Every item packed exactly once and no bin exceeds the capacity."""
        packed = [index for bin_items in self.bins for index in bin_items]
        if sorted(packed) != list(range(len(self.sizes))):
            return False
        return all(
            sum(self.sizes[index] for index in bin_items) <= self.capacity
            for bin_items in self.bins
        )

    def bin_loads(self) -> List[int]:
        """Total size packed into each bin."""
        return [sum(self.sizes[index] for index in bin_items) for bin_items in self.bins]


def size_lower_bound(sizes: Sequence[int], capacity: int) -> int:
    """The trivial L1 lower bound: ceil(total size / capacity)."""
    if not sizes:
        return 0
    return math.ceil(sum(sizes) / capacity)


def _validate(sizes: Sequence[int], capacity: int) -> None:
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    for size in sizes:
        if size < 1:
            raise ValueError(f"item sizes must be positive, got {size}")
        if size > capacity:
            raise ValueError(f"item of size {size} cannot fit into capacity {capacity}")


# --------------------------------------------------------------------- FFD
def first_fit_decreasing(sizes: Sequence[int], capacity: int) -> PackingSolution:
    """First-fit-decreasing heuristic bin packing.

    The first-fit rule ("lowest-indexed open bin with room") is implemented
    with a capacity-indexed structure instead of a linear scan over all open
    bins: ``residual_bins[r]`` is a min-heap of the indices of bins with
    exactly ``r`` free units.  Placing an item of size ``s`` peeks the
    ``capacity - s + 1`` feasible residual classes and takes the smallest
    bin index among their heads — O(capacity + log bins) per item instead
    of O(bins), while producing the *same* bins as the scan by construction
    (each bin lives in exactly one residual class, and the minimum index
    over the feasible classes is exactly the first fit).
    """
    _validate(sizes, capacity)
    order = sorted(range(len(sizes)), key=lambda index: (-sizes[index], index))
    bins: List[List[int]] = []
    residual_bins: List[List[int]] = [[] for _ in range(capacity + 1)]
    for index in order:
        size = sizes[index]
        best_residual = -1
        best_bin = -1
        for residual in range(size, capacity + 1):
            heap = residual_bins[residual]
            if heap and (best_bin < 0 or heap[0] < best_bin):
                best_bin = heap[0]
                best_residual = residual
        if best_bin < 0:
            residual = capacity - size
            heapq.heappush(residual_bins[residual], len(bins))
            bins.append([index])
            continue
        heapq.heappop(residual_bins[best_residual])
        heapq.heappush(residual_bins[best_residual - size], best_bin)
        bins[best_bin].append(index)
    return PackingSolution(
        bins=bins,
        capacity=capacity,
        sizes=list(sizes),
        method="ffd",
        lower_bound=size_lower_bound(sizes, capacity),
    )


# ------------------------------------------------------- column generation
def _knapsack_pricing(duals: Dict[int, float], capacity: int) -> Tuple[List[int], float]:
    """Solve the pricing knapsack: max dual value of a feasible pattern.

    Returns the pattern as a list ``a_1..a_capacity`` (count per item size)
    and its total dual value.  Dynamic program over the capacity with
    unbounded item counts, O(capacity * #sizes).
    """
    best_value = [0.0] * (capacity + 1)
    best_choice: List[Optional[int]] = [None] * (capacity + 1)
    for load in range(1, capacity + 1):
        best_value[load] = best_value[load - 1]
        best_choice[load] = None
        for size, dual in duals.items():
            if size <= load and best_value[load - size] + dual > best_value[load] + 1e-12:
                best_value[load] = best_value[load - size] + dual
                best_choice[load] = size
    pattern = [0] * capacity
    load = capacity
    while load > 0:
        choice = best_choice[load]
        if choice is None:
            load -= 1
            continue
        pattern[choice - 1] += 1
        load -= choice
    return pattern, best_value[capacity]


#: The margin a basis solve's optimum must clear to be kept: every basic
#: value and every non-basic reduced cost (surplus columns included) above
#: it.  It is also the entering and pivot threshold of the simplex.
_UNIQUE_MARGIN = 1e-9

#: Pivots after which a basis solve gives up (Bland's rule cannot cycle, so
#: this only bounds floating-point trouble); its master goes to HiGHS.
_MAX_PIVOTS = 100

#: One master LP's optimum: pattern usage ``x``, the covering rows' dual
#: values and the objective ``sum(x)``.
MasterSolution = Tuple[np.ndarray, np.ndarray, float]


def _basis_solve(matrix: np.ndarray, demand: np.ndarray) -> Optional[MasterSolution]:
    """Solve ``min sum(x)  s.t.  matrix @ x >= demand, x >= 0`` by a dense
    primal simplex, or return ``None`` when its optimum is not unique.

    ``matrix`` has one row per distinct size and one column per pattern, its
    first ``rows`` columns the diagonal Gilmore–Gomory patterns: that basis
    is the start, feasible with ``x = demand / diagonal``.  A surplus column
    ``-e_i`` (cost 0) per row completes the standard form.  Pivots follow
    Bland's rule (lowest-index entering column with a negative reduced cost,
    lowest-index leaving variable among the ratio-test ties), each basis
    solved afresh with ``np.linalg.solve``.
    """
    rows, patterns = matrix.shape
    columns = np.hstack([matrix, -np.eye(rows)])
    cost = np.concatenate([np.ones(patterns), np.zeros(rows)])
    basis = list(range(rows))
    for _ in range(_MAX_PIVOTS):
        square = columns[:, basis]
        values = np.linalg.solve(square, demand)
        duals = np.linalg.solve(square.T, cost[basis])
        reduced = cost - duals @ columns
        reduced[basis] = np.inf
        entering = np.flatnonzero(reduced < -_UNIQUE_MARGIN)
        if not len(entering):
            break
        direction = np.linalg.solve(square, columns[:, entering[0]])
        rising = direction > _UNIQUE_MARGIN
        if not rising.any():  # pragma: no cover - sum(x) >= 0 is bounded
            return None
        ratios = np.where(rising, values / np.where(rising, direction, 1.0), np.inf)
        ties = np.flatnonzero(ratios <= ratios.min() + _UNIQUE_MARGIN)
        leaving = min(ties, key=lambda row: basis[row])
        basis[leaving] = int(entering[0])
    else:
        return None
    if values.min() <= _UNIQUE_MARGIN or reduced.min() <= _UNIQUE_MARGIN:
        return None
    x = np.zeros(patterns)
    for row, column in enumerate(basis):
        if column < patterns:
            x[column] = values[row]
    return x, duals, float(x.sum())


def _highs_solve(matrix: np.ndarray, demand: np.ndarray) -> Optional[MasterSolution]:
    """The same master LP through ``scipy.optimize.linprog(method="highs")``;
    ``None`` if HiGHS reports no optimum."""
    # One (0, None) pair bounds every variable (a list of n pairs is the same
    # model, validated pair by pair in Python).
    result = linprog(
        c=np.ones(matrix.shape[1]),
        A_ub=-matrix,
        b_ub=-demand,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:  # pragma: no cover - defensive
        return None
    # linprog's inequality marginals are <= 0 for A_ub x <= b_ub; the dual
    # value of the covering constraint is their negation.
    return result.x, -result.ineqlin.marginals, float(result.fun)


def _count_packing(outcome: str, lp_solves: Counter) -> None:
    if obs.enabled():
        obs.inc("hit_packings_total", outcome=outcome,
                help="Column-generation packings by how their HIT count was settled.")
        for solver, count in sorted(lp_solves.items()):
            obs.inc("hit_packing_lp_solves_total", count, solver=solver,
                    help="Restricted master LPs solved by column-generation packing, "
                         "by solver (basis or highs).")


def column_generation_packing(sizes: Sequence[int], capacity: int) -> PackingSolution:
    """Cutting-stock packing via column generation (the paper's formulation).

    The restricted master problem minimises the number of used patterns
    subject to covering the demand ``c_j`` (number of components of size
    ``j``); new patterns are priced in with a knapsack dynamic program until
    no pattern has negative reduced cost.  The fractional optimum is turned
    into an integer packing by rounding down the pattern usage and repairing
    the residual demand with FFD.  The returned ``lower_bound`` is the
    ceiling of the LP optimum, a valid lower bound on the optimal number of
    HITs.  Pricing stops after 200 rounds even if a column would still pay.

    FFD is packed first.  When it uses exactly :func:`size_lower_bound` bins
    the count is optimal by that bound — no pattern set can cover the total
    size with fewer bins of this capacity — so neither the LP, the pricing
    nor the rounding could change the number of HITs, and FFD's packing is
    returned as ``method="column-generation(ffd-at-bound)"``.  Otherwise
    column generation runs and the same FFD packing is what its rounded
    result is checked against.

    Each master LP goes to :func:`_basis_solve` first and to HiGHS only when
    that declines.  It keeps an optimum only when every basic value and every
    non-basic reduced cost clears ``_UNIQUE_MARGIN``, which makes the optimal
    ``x`` and duals unique, so both routes give the same pricing, rounding
    and bins.
    """
    ffd = first_fit_decreasing(sizes, capacity)
    if ffd.bin_count == size_lower_bound(sizes, capacity):
        ffd.method = "column-generation(ffd-at-bound)"
        _count_packing("ffd-at-bound", Counter())
        return ffd

    _import_highs()
    demand = Counter(sizes)
    distinct_sizes = sorted(demand)

    # Initial patterns: one pattern per size, filled with as many copies of
    # that size as fit (the classic Gilmore-Gomory start).
    patterns: List[List[int]] = []
    for size in distinct_sizes:
        pattern = [0] * capacity
        pattern[size - 1] = capacity // size
        patterns.append(pattern)

    lp_objective = float("inf")
    solution_x: Optional[np.ndarray] = None
    size_columns = [size - 1 for size in distinct_sizes]
    demand_vector = np.array([demand[size] for size in distinct_sizes], dtype=float)
    lp_solves: Counter = Counter()
    for _ in range(200):
        # Restricted master LP: min sum x_i  s.t.  sum a_ij x_i >= c_j, x >= 0.
        # One row per distinct size, one column per pattern.
        constraint_matrix = np.array(patterns, dtype=float)[:, size_columns].T
        solved = _basis_solve(constraint_matrix, demand_vector)
        solver = "basis"
        if solved is None:
            solved = _highs_solve(constraint_matrix, demand_vector)
            solver = "highs"
        lp_solves[solver] += 1
        if solved is None:  # pragma: no cover - defensive
            _count_packing("ffd-fallback", lp_solves)
            return ffd
        solution_x, duals_vector, lp_objective = solved
        duals = {
            size: max(0.0, float(duals_vector[row]))
            for row, size in enumerate(distinct_sizes)
        }
        pattern, value = _knapsack_pricing(duals, capacity)
        # Reduced cost of the new pattern = 1 - value; stop when >= 0.
        if value <= 1.0 + 1e-9:
            break
        if pattern in patterns:
            break
        patterns.append(pattern)

    lp_lower_bound = int(math.ceil(lp_objective - 1e-9)) if math.isfinite(lp_objective) else None

    # Integer solution: round the LP usage down, then repair with FFD.
    residual = Counter(demand)
    chosen_patterns: List[List[int]] = []
    if solution_x is not None:
        for pattern, usage in zip(patterns, solution_x):
            count = int(math.floor(usage + 1e-9))
            for _ in range(count):
                # Only apply the pattern while it still covers real demand.
                if not any(
                    pattern[size - 1] > 0 and residual[size] > 0 for size in distinct_sizes
                ):
                    break
                chosen_patterns.append(pattern)
                for size in distinct_sizes:
                    take = min(pattern[size - 1], residual[size])
                    residual[size] -= take

    # Assign concrete item indices to the chosen patterns.
    items_by_size: Dict[int, List[int]] = {}
    for index, size in enumerate(sizes):
        items_by_size.setdefault(size, []).append(index)
    bins: List[List[int]] = []
    for pattern in chosen_patterns:
        bin_items: List[int] = []
        for size in distinct_sizes:
            for _ in range(pattern[size - 1]):
                if items_by_size.get(size):
                    bin_items.append(items_by_size[size].pop())
        if bin_items:
            bins.append(bin_items)

    leftovers = [index for remaining in items_by_size.values() for index in remaining]
    if leftovers:
        leftover_sizes = [sizes[index] for index in leftovers]
        repaired = first_fit_decreasing(leftover_sizes, capacity)
        for bin_items in repaired.bins:
            bins.append([leftovers[position] for position in bin_items])

    solution = PackingSolution(
        bins=bins,
        capacity=capacity,
        sizes=list(sizes),
        method="column-generation",
        lower_bound=(
            lp_lower_bound if lp_lower_bound is not None else size_lower_bound(sizes, capacity)
        ),
    )
    # The rounding repair can only over-use bins, never under-cover items;
    # fall back to plain FFD in the (never observed) case it is worse.
    if not solution.is_feasible() or solution.bin_count > ffd.bin_count:
        if solution.lower_bound is not None:
            ffd.lower_bound = solution.lower_bound
        ffd.method = "column-generation(ffd-fallback)"
        _count_packing("ffd-fallback", lp_solves)
        return ffd
    _count_packing("column-generation", lp_solves)
    return solution


def pack_components(
    components: Sequence[Sequence[str]], cluster_size: int
) -> List[List[str]]:
    """Pack small connected components into cluster-based HIT record groups.

    Components of exactly ``cluster_size`` records become their own HIT;
    smaller components are packed together by
    :func:`column_generation_packing`.  When two packed components share a
    record (possible because LCC partitioning may duplicate cut vertices),
    the union is used, which can only shrink the HIT.
    """
    sizes = [len(component) for component in components]
    for size in sizes:
        if size > cluster_size:
            raise ValueError(
                f"component of size {size} exceeds the cluster-size threshold {cluster_size}"
            )
    solution = column_generation_packing(sizes, cluster_size)
    hit_groups: List[List[str]] = []
    for bin_items in solution.bins:
        group: List[str] = []
        seen = set()
        for item_index in bin_items:
            for record_id in components[item_index]:
                if record_id not in seen:
                    seen.add(record_id)
                    group.append(record_id)
        if group:
            hit_groups.append(group)
    return hit_groups
