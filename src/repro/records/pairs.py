"""Record pairs and sets of candidate pairs.

A :class:`RecordPair` is an unordered pair of record ids together with an
optional machine-computed likelihood (the output of the simjoin pass).  A
:class:`PairSet` is the set of candidate pairs the hybrid workflow sends to
HIT generation after likelihood-threshold pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np


def canonical_pair(id_a: str, id_b: str) -> Tuple[str, str]:
    """Return the canonical (sorted) ordering of two record ids.

    Pairs are unordered: ``(r1, r2)`` and ``(r2, r1)`` denote the same
    candidate.  All containers in this package store the sorted form.
    """
    if id_a == id_b:
        raise ValueError(f"a pair must contain two distinct records, got {id_a!r} twice")
    return (id_a, id_b) if id_a < id_b else (id_b, id_a)


class CanonicalPairs(set):
    """A set of pair keys that are already in :func:`canonical_pair` form.

    What takes an iterable of pairs canonicalises it through
    :func:`canonical_pairs`, which passes one of these through as is — so a
    caller that keeps its pairs canonical (a streaming session's truth)
    pays nothing per pair for it.
    """


def canonical_pairs(pairs: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """``pairs`` as a set of canonical keys (a :class:`CanonicalPairs` as is)."""
    if isinstance(pairs, CanonicalPairs):
        return pairs
    return {canonical_pair(a, b) for a, b in pairs}


@dataclass(frozen=True)
class RecordPair:
    """An unordered candidate pair with an optional likelihood score."""

    id_a: str
    id_b: str
    likelihood: Optional[float] = None

    def __post_init__(self) -> None:
        a, b = canonical_pair(self.id_a, self.id_b)
        object.__setattr__(self, "id_a", a)
        object.__setattr__(self, "id_b", b)
        if self.likelihood is not None and not (0.0 <= self.likelihood <= 1.0):
            raise ValueError(f"likelihood must be in [0, 1], got {self.likelihood}")

    @classmethod
    def canonical(cls, key: Tuple[str, str], likelihood: Optional[float]) -> "RecordPair":
        """The pair of a key already in :func:`canonical_pair` form, with a
        likelihood in [0, 1] or ``None``: a pair that was checked once
        (a ledger entry) is rebuilt without checking it again."""
        pair = object.__new__(cls)
        pair.__dict__.update(id_a=key[0], id_b=key[1], likelihood=likelihood)
        return pair

    @property
    def key(self) -> Tuple[str, str]:
        """The canonical (sorted) id tuple identifying this pair."""
        return (self.id_a, self.id_b)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordPair):
            return NotImplemented
        return self.key == other.key

    def other(self, record_id: str) -> str:
        """Given one record id of the pair, return the other one."""
        if record_id == self.id_a:
            return self.id_b
        if record_id == self.id_b:
            return self.id_a
        raise KeyError(f"{record_id!r} is not part of pair {self.key}")


class PairSet:
    """A set of candidate :class:`RecordPair` objects.

    The set keeps insertion order (for deterministic HIT generation) and
    supports likelihood-threshold filtering, which is the machine-pruning
    step of the hybrid workflow.
    """

    def __init__(self, pairs: Iterable[RecordPair] = ()) -> None:
        self._pairs: Dict[Tuple[str, str], RecordPair] = {}
        for pair in pairs:
            self.add(pair)

    def add(self, pair: RecordPair) -> None:
        """Add a pair; re-adding an existing key keeps the higher likelihood."""
        existing = self._pairs.get(pair.key)
        if existing is None:
            self._pairs[pair.key] = pair
            return
        if (pair.likelihood or 0.0) > (existing.likelihood or 0.0):
            self._pairs[pair.key] = pair

    def discard(self, id_a: str, id_b: str) -> bool:
        """Remove the pair with the given ids if present.

        Returns True when a pair was removed.  Insertion order of the
        remaining pairs is unchanged, so downstream HIT generation stays
        deterministic after a retraction.
        """
        return self._pairs.pop(canonical_pair(id_a, id_b), None) is not None

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[RecordPair]:
        return iter(self._pairs.values())

    def __contains__(self, item: object) -> bool:
        if isinstance(item, RecordPair):
            return item.key in self._pairs
        if isinstance(item, tuple) and len(item) == 2:
            return canonical_pair(str(item[0]), str(item[1])) in self._pairs
        return False

    def get(self, id_a: str, id_b: str) -> Optional[RecordPair]:
        """Return the stored pair for the given ids, or ``None``."""
        return self._pairs.get(canonical_pair(id_a, id_b))

    def keys(self) -> List[Tuple[str, str]]:
        """Canonical id tuples of all pairs, in insertion order."""
        return list(self._pairs.keys())

    def filter_by_likelihood(self, threshold: float) -> "PairSet":
        """Return the subset of pairs with likelihood >= threshold.

        Pairs without a likelihood are dropped, mirroring the workflow in
        which only machine-scored pairs can pass the pruning step.
        """
        return PairSet(
            pair
            for pair in self._pairs.values()
            if pair.likelihood is not None and pair.likelihood >= threshold
        )

    def to_arrays(self) -> Tuple[List[Tuple[str, str]], np.ndarray]:
        """Columnar view: pair keys plus a dense float64 likelihood array.

        Keys come back in insertion order; a pair without a likelihood
        contributes ``-1.0``, so a stable descending argsort over the array
        ranks scored pairs first and unscored pairs last — exactly the
        ordering contract of :meth:`sorted_by_likelihood`.
        """
        keys = list(self._pairs.keys())
        values = np.fromiter(
            (
                pair.likelihood if pair.likelihood is not None else -1.0
                for pair in self._pairs.values()
            ),
            dtype=np.float64,
            count=len(self._pairs),
        )
        return keys, values

    def sorted_by_likelihood(self) -> List[RecordPair]:
        """Pairs sorted by likelihood, most likely first (missing likelihood
        sorts last)."""
        return sorted(
            self._pairs.values(),
            key=lambda pair: (pair.likelihood if pair.likelihood is not None else -1.0),
            reverse=True,
        )

    def intersection_keys(self, other: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
        """Return the pair keys present both here and in ``other``."""
        other_keys = {canonical_pair(a, b) for a, b in other}
        return set(self._pairs.keys()) & other_keys

    def to_key_set(self) -> FrozenSet[Tuple[str, str]]:
        """Frozen set of canonical keys (useful as ground truth)."""
        return frozenset(self._pairs.keys())
