"""The exact bin-packing oracle the packing tests compare against.

Packing HITs runs :func:`repro.hit.packing.column_generation_packing`;
these tests check it, and the first-fit-decreasing packing it starts
from, against :func:`branch_and_bound_packing`, an exhaustive search.

Not a test module (no ``test_`` prefix): the test files import it as
they import ``strategies``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.hit.packing import (
    PackingSolution,
    _validate,
    first_fit_decreasing,
    size_lower_bound,
)


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
