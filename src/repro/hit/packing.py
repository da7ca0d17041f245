"""Bottom tier of the two-tiered approach: SCC packing (Section 5.3).

Packing small connected components into the minimum number of cluster-based
HITs of capacity ``k`` is a one-dimensional cutting-stock / bin-packing
problem.  The paper formulates it as an integer linear program over feasible
*patterns* ``p = [a_1, ..., a_k]`` (``a_j`` = number of packed components of
size ``j``) and solves it with column generation and branch-and-bound.

Three solvers are provided and cross-validated in the test suite:

* :func:`first_fit_decreasing` — the classic FFD heuristic (fast, at most
  ``11/9 OPT + 1`` bins).
* :func:`branch_and_bound_packing` — exact bin packing by depth-first search
  with lower-bound pruning (falls back to FFD when the node budget is hit).
* :func:`column_generation_packing` — the paper's cutting-stock approach:
  LP relaxation solved by column generation (scipy ``linprog`` restricted
  master + dynamic-programming knapsack pricing), then an integer solution
  obtained by rounding down and repairing the residual demand with FFD.

The order inside :func:`column_generation_packing` is bound → FFD → LP: no
packing uses fewer than ``ceil(sum(sizes) / capacity)`` bins, so an FFD
packing with exactly that many is optimal and is returned without solving
anything; the LP runs only for the instances where FFD is above the bound,
which is the only place it can lower the number of HITs.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

try:  # scipy is a hard dependency of the package, but keep the import local.
    from scipy.optimize import linprog
except ImportError:  # pragma: no cover - exercised only in broken environments
    linprog = None


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


# ---------------------------------------------------------- branch & bound
def branch_and_bound_packing(
    sizes: Sequence[int],
    capacity: int,
    max_nodes: int = 200_000,
) -> PackingSolution:
    """Exact bin packing by depth-first branch-and-bound.

    Items are placed in decreasing size order; at each step the current item
    is tried in every open bin with room (skipping bins with identical
    residual capacity) and in one new bin.  The search prunes on the L1
    lower bound of the unplaced items.  If the node budget ``max_nodes`` is
    exhausted the best solution found so far (at worst the FFD solution) is
    returned, so the function always terminates quickly.
    """
    _validate(sizes, capacity)
    if not sizes:
        return PackingSolution([], capacity, [], method="branch-and-bound", lower_bound=0)

    order = sorted(range(len(sizes)), key=lambda index: (-sizes[index], index))
    ordered_sizes = [sizes[index] for index in order]
    ffd = first_fit_decreasing(sizes, capacity)
    best_bins: List[List[int]] = [list(bin_items) for bin_items in ffd.bins]
    best_count = ffd.bin_count
    lower_bound = size_lower_bound(sizes, capacity)
    nodes_visited = 0

    current_bins: List[List[int]] = []
    current_loads: List[int] = []

    def remaining_lower_bound(position: int) -> int:
        remaining = sum(ordered_sizes[position:])
        free = sum(capacity - load for load in current_loads)
        extra = max(0, remaining - free)
        return len(current_bins) + math.ceil(extra / capacity) if extra > 0 else len(current_bins)

    def search(position: int) -> None:
        nonlocal best_bins, best_count, nodes_visited
        if best_count == lower_bound:
            return
        nodes_visited += 1
        if nodes_visited > max_nodes:
            return
        if position == len(ordered_sizes):
            if len(current_bins) < best_count:
                best_count = len(current_bins)
                best_bins = [list(bin_items) for bin_items in current_bins]
            return
        if remaining_lower_bound(position) >= best_count:
            return
        item_index = order[position]
        size = ordered_sizes[position]
        tried_residuals = set()
        for bin_index in range(len(current_bins)):
            residual = capacity - current_loads[bin_index]
            if size <= residual and residual not in tried_residuals:
                tried_residuals.add(residual)
                current_bins[bin_index].append(item_index)
                current_loads[bin_index] += size
                search(position + 1)
                current_loads[bin_index] -= size
                current_bins[bin_index].pop()
        if len(current_bins) + 1 < best_count:
            current_bins.append([item_index])
            current_loads.append(size)
            search(position + 1)
            current_bins.pop()
            current_loads.pop()

    search(0)
    return PackingSolution(
        bins=best_bins,
        capacity=capacity,
        sizes=list(sizes),
        method="branch-and-bound",
        lower_bound=lower_bound,
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


def _count_packing(outcome: str, lp_solves: int) -> None:
    if obs.enabled():
        obs.inc("hit_packings_total", outcome=outcome,
                help="Column-generation packings by how their HIT count was settled.")
        obs.inc("hit_packing_lp_solves_total", lp_solves,
                help="Restricted master LPs solved by column-generation packing.")


def column_generation_packing(
    sizes: Sequence[int],
    capacity: int,
    max_iterations: int = 200,
) -> PackingSolution:
    """Cutting-stock packing via column generation (the paper's formulation).

    The restricted master problem minimises the number of used patterns
    subject to covering the demand ``c_j`` (number of components of size
    ``j``); new patterns are priced in with a knapsack dynamic program until
    no pattern has negative reduced cost.  The fractional optimum is turned
    into an integer packing by rounding down the pattern usage and repairing
    the residual demand with FFD.  The returned ``lower_bound`` is the
    ceiling of the LP optimum, a valid lower bound on the optimal number of
    HITs.

    FFD is packed first.  When it uses exactly :func:`size_lower_bound` bins
    the count is optimal by that bound — no pattern set can cover the total
    size with fewer bins of this capacity — so neither the LP, the pricing
    nor the rounding could change the number of HITs, and FFD's packing is
    returned as ``method="column-generation(ffd-at-bound)"``.  Otherwise
    column generation runs and the same FFD packing is what its rounded
    result is checked against.
    """
    ffd = first_fit_decreasing(sizes, capacity)
    if ffd.bin_count == size_lower_bound(sizes, capacity):
        ffd.method = "column-generation(ffd-at-bound)"
        _count_packing("ffd-at-bound", 0)
        return ffd
    if linprog is None:  # pragma: no cover
        return ffd

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
    negated_demand = -np.array([demand[size] for size in distinct_sizes], dtype=float)
    lp_solves = 0
    for _ in range(max_iterations):
        # Restricted master LP: min sum x_i  s.t.  sum a_ij x_i >= c_j, x >= 0.
        # One row per distinct size, one column per pattern; one (0, None)
        # pair bounds every variable (a list of n pairs is the same model,
        # validated pair by pair in Python).
        constraint_matrix = np.array(patterns, dtype=float)[:, size_columns].T
        result = linprog(
            c=np.ones(len(patterns)),
            A_ub=-constraint_matrix,
            b_ub=negated_demand,
            bounds=(0, None),
            method="highs",
        )
        lp_solves += 1
        if not result.success:  # pragma: no cover - defensive
            _count_packing("ffd-fallback", lp_solves)
            return ffd
        lp_objective = float(result.fun)
        solution_x = result.x
        duals_array = result.ineqlin.marginals if hasattr(result, "ineqlin") else None
        if duals_array is None:  # pragma: no cover - older scipy
            break
        # linprog's inequality marginals are <= 0 for A_ub x <= b_ub; the dual
        # value of the covering constraint is their negation.
        duals = {
            size: max(0.0, -float(duals_array[row]))
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


_PACKING_METHODS = {
    "ffd": first_fit_decreasing,
    "branch-and-bound": branch_and_bound_packing,
    "column-generation": column_generation_packing,
}


def pack_components(
    components: Sequence[Sequence[str]],
    cluster_size: int,
    method: str = "column-generation",
) -> List[List[str]]:
    """Pack small connected components into cluster-based HIT record groups.

    Components of exactly ``cluster_size`` records become their own HIT;
    smaller components are packed together using the chosen solver.  When
    two packed components share a record (possible because LCC partitioning
    may duplicate cut vertices), the union is used, which can only shrink
    the HIT.
    """
    if method not in _PACKING_METHODS:
        raise ValueError(f"unknown packing method {method!r}; known: {sorted(_PACKING_METHODS)}")
    sizes = [len(component) for component in components]
    for size in sizes:
        if size > cluster_size:
            raise ValueError(
                f"component of size {size} exceeds the cluster-size threshold {cluster_size}"
            )
    solver = _PACKING_METHODS[method]
    solution = solver(sizes, cluster_size)
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
