"""HIT data structures shared by all generators.

Two HIT types mirror the two AMT interfaces of the paper (Figures 3 and 4):

* :class:`PairBasedHIT` — a list of record pairs, each verified separately.
* :class:`ClusterBasedHIT` — a set of records; workers find all duplicates.

:class:`HITBatch` is the output of a generator: an ordered collection of
HITs plus bookkeeping (which pairs each HIT can check) used by validation,
pricing and the crowd simulator.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.records.pairs import PairSet, canonical_pair


@dataclass(frozen=True)
class PairBasedHIT:
    """A pair-based HIT: a batch of record pairs verified one by one."""

    hit_id: str
    pairs: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a pair-based HIT must contain at least one pair")
        canonical = tuple(canonical_pair(a, b) for a, b in self.pairs)
        object.__setattr__(self, "pairs", canonical)

    @property
    def size(self) -> int:
        """Number of pairs in the HIT."""
        return len(self.pairs)

    @property
    def record_ids(self) -> Set[str]:
        """All records mentioned by the HIT."""
        ids: Set[str] = set()
        for id_a, id_b in self.pairs:
            ids.add(id_a)
            ids.add(id_b)
        return ids

    def checkable_pairs(self) -> Set[Tuple[str, str]]:
        """The pairs a worker can decide in this HIT (exactly its pair list)."""
        return set(self.pairs)


@dataclass(frozen=True)
class ClusterBasedHIT:
    """A cluster-based HIT: a group of records labelled for duplicates.

    A cluster-based HIT can check a pair if and only if both records of the
    pair are in the HIT (Definition 1, requirement 2).
    """

    hit_id: str
    records: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.records) < 1:
            raise ValueError("a cluster-based HIT must contain at least one record")
        if len(set(self.records)) != len(self.records):
            raise ValueError("a cluster-based HIT cannot contain duplicate record ids")
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def size(self) -> int:
        """Number of records in the HIT."""
        return len(self.records)

    @property
    def record_ids(self) -> Set[str]:
        """The records of the HIT as a set."""
        return set(self.records)

    def contains_pair(self, id_a: str, id_b: str) -> bool:
        """True if both records are in the HIT (so the pair can be checked)."""
        members = self.record_ids
        return id_a in members and id_b in members

    def checkable_pairs(self, candidate_pairs: Optional[Iterable[Tuple[str, str]]] = None) -> Set[Tuple[str, str]]:
        """Pairs this HIT can check.

        With ``candidate_pairs`` given, only candidate pairs fully contained
        in the HIT are returned; otherwise all ``size*(size-1)/2`` internal
        pairs are returned.  A set (or dict-keys view) of candidates is
        probed with the HIT's own pairs and never walked, so the cost is
        bounded by the HIT, not by the candidate set; callers holding
        canonical keys write ``hit.checkable_pairs() & candidates``.
        """
        # Sorted distinct ids, so every combination is already canonical.
        internal = set(combinations(sorted(self.records), 2))
        if candidate_pairs is None:
            return internal
        if not isinstance(candidate_pairs, AbstractSet):
            candidate_pairs = set(candidate_pairs)
        # Candidates may arrive in either orientation; the result is canonical.
        return {
            key for key in internal
            if key in candidate_pairs or key[::-1] in candidate_pairs
        }


@dataclass
class HITBatch:
    """The output of a HIT generator.

    Attributes
    ----------
    hit_type:
        ``"pair"`` or ``"cluster"``.
    hits:
        The generated HITs, in generation order.
    candidate_pairs:
        The pair keys the batch was generated for (used for cover checks).
    generator_name:
        Name of the algorithm that produced the batch.
    cluster_size:
        The cluster-size threshold ``k`` (pair HITs record the max pairs per
        HIT here instead).
    """

    hit_type: str
    hits: List[object] = field(default_factory=list)
    candidate_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    generator_name: str = ""
    cluster_size: int = 0

    def __post_init__(self) -> None:
        if self.hit_type not in ("pair", "cluster"):
            raise ValueError("hit_type must be 'pair' or 'cluster'")
        self.candidate_pairs = {canonical_pair(a, b) for a, b in self.candidate_pairs}

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[object]:
        return iter(self.hits)

    @property
    def hit_count(self) -> int:
        """Number of HITs in the batch (what the paper's Figures 10-11 plot)."""
        return len(self.hits)

    def carried_pairs(
        self, candidates: Optional[Set[Tuple[str, str]]] = None
    ) -> List[Set[Tuple[str, str]]]:
        """Per HIT, in batch order: the candidate pairs that HIT can check.

        ``candidates`` (canonical keys; default: the batch's own) is probed
        with each HIT's own pairs (at most k*(k-1)/2) and never walked, so
        the cost follows the HITs, not the candidate set.  The one place
        that answers "which HIT carries which pair" — for cover checks, the
        crowd platforms and the streaming session's coverage ledger.
        """
        if candidates is None:
            candidates = self.candidate_pairs
        return [hit.checkable_pairs() & candidates for hit in self.hits]  # type: ignore[attr-defined]

    def covered_pairs(self) -> Set[Tuple[str, str]]:
        """Union of candidate pairs checkable by at least one HIT."""
        return set().union(*self.carried_pairs())

    def uncovered_pairs(self) -> Set[Tuple[str, str]]:
        """Candidate pairs no HIT can check (must be empty for a valid batch)."""
        return self.candidate_pairs - self.covered_pairs()

    def is_valid_cover(self) -> bool:
        """True if every candidate pair is checkable by at least one HIT."""
        return not self.uncovered_pairs()

    def max_hit_size(self) -> int:
        """The largest HIT size in the batch."""
        sizes = [hit.size for hit in self.hits]  # type: ignore[attr-defined]
        return max(sizes) if sizes else 0

    def pair_to_hits(self) -> Dict[Tuple[str, str], List[str]]:
        """Map every candidate pair to the ids of the HITs that can check it."""
        mapping: Dict[Tuple[str, str], List[str]] = {key: [] for key in self.candidate_pairs}
        for hit, carried in zip(self.hits, self.carried_pairs()):
            for key in carried:
                mapping[key].append(hit.hit_id)  # type: ignore[attr-defined]
        return mapping


def validate_cluster_cover(
    hits: Sequence[ClusterBasedHIT],
    pairs: PairSet,
    cluster_size: int,
) -> None:
    """Raise ``ValueError`` unless the HITs are a valid cover (Definition 1).

    Requirement 1: every HIT has at most ``cluster_size`` records.
    Requirement 2: every candidate pair is contained in at least one HIT.
    """
    for hit in hits:
        if hit.size > cluster_size:
            raise ValueError(
                f"HIT {hit.hit_id} has {hit.size} records, exceeding the "
                f"cluster-size threshold {cluster_size}"
            )
    hits_of_record: Dict[str, Set[int]] = {}
    for index, hit in enumerate(hits):
        for record_id in hit.records:
            hits_of_record.setdefault(record_id, set()).add(index)
    uncovered = []
    for pair in pairs:
        shared = hits_of_record.get(pair.id_a, set()) & hits_of_record.get(pair.id_b, set())
        if not shared:
            uncovered.append(pair.key)
    if uncovered:
        raise ValueError(f"{len(uncovered)} candidate pairs are not covered, e.g. {uncovered[:5]}")
