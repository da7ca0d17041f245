"""Dataset container shared by all generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.records.pairs import canonical_pair
from repro.records.record import RecordStore


@dataclass
class Dataset:
    """A record store plus its ground-truth matching pairs.

    Attributes
    ----------
    name:
        Dataset name used in reports (``"restaurant"``, ``"product"``, ...).
    store:
        The records to resolve.
    ground_truth:
        Canonical keys of all truly matching pairs.
    cross_sources:
        For record-linkage datasets, the two source tags whose cross product
        forms the candidate space (``None`` for deduplication datasets).
    metadata:
        Free-form generation metadata (entity counts, seeds, ...).
    """

    name: str
    store: RecordStore
    ground_truth: FrozenSet[Tuple[str, str]]
    cross_sources: Optional[Tuple[str, str]] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ground_truth = frozenset(canonical_pair(a, b) for a, b in self.ground_truth)
        for id_a, id_b in self.ground_truth:
            if id_a not in self.store or id_b not in self.store:
                raise ValueError(f"ground-truth pair ({id_a}, {id_b}) references unknown records")

    @property
    def record_count(self) -> int:
        """Number of records in the dataset."""
        return len(self.store)

    @property
    def match_count(self) -> int:
        """Number of ground-truth matching pairs."""
        return len(self.ground_truth)

    def total_pair_count(self) -> int:
        """Size of the candidate space the naive approach would verify."""
        if self.cross_sources is not None:
            left = len(self.store.records_from_source(self.cross_sources[0]))
            right = len(self.store.records_from_source(self.cross_sources[1]))
            return left * right
        return self.store.total_pair_count()

    def is_match(self, id_a: str, id_b: str) -> bool:
        """True if the two records are a ground-truth match."""
        return canonical_pair(id_a, id_b) in self.ground_truth
