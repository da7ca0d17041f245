"""Crowdsourcing cost model.

The paper pays workers $0.02 per completed HIT plus a $0.005 platform fee
for publishing each HIT, and replicates every HIT into three assignments, so
e.g. the Restaurant experiment costs 112 * 3 * $0.025 = $8.40 and the
Product experiment 508 * 3 * $0.025 = $38.10 (Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass


#: Dollars paid to the worker of one completed assignment.
REWARD_PER_ASSIGNMENT = 0.02
#: Dollars the platform charges per assignment.
PLATFORM_FEE_PER_ASSIGNMENT = 0.005


@dataclass(frozen=True)
class PricingModel:
    """Per-assignment pricing: worker reward plus platform fee."""

    @property
    def cost_per_assignment(self) -> float:
        """Total cost of one assignment (reward + fee)."""
        return REWARD_PER_ASSIGNMENT + PLATFORM_FEE_PER_ASSIGNMENT

    def assignment_count(self, hit_count: int, assignments_per_hit: int) -> int:
        """Total number of assignments for a batch."""
        if hit_count < 0 or assignments_per_hit < 1:
            raise ValueError("hit_count must be >= 0 and assignments_per_hit >= 1")
        return hit_count * assignments_per_hit

    def total_cost(self, hit_count: int, assignments_per_hit: int = 3) -> float:
        """Total dollar cost of publishing and paying for a batch."""
        return self.assignment_count(hit_count, assignments_per_hit) * self.cost_per_assignment
