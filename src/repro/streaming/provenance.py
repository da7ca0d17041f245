"""Per-pair provenance for the streaming resolver.

Every candidate pair a streaming session discovers is backed by exactly two
records, was first seen in one arrival batch, and accumulates crowd history
(which HITs covered it, which vote rounds were folded into the ledger).
:class:`ProvenanceLedger` records all of that, and — crucially — maintains
the inverted ``record id -> pair keys`` index that makes **retraction**
precise: when a record is retracted, the provenance-reachable state is
exactly the pairs in :meth:`ProvenanceLedger.pairs_of` and the components
those pairs connect, so :meth:`repro.streaming.StreamingResolver.retract`
can invalidate that region and nothing else (the data-skipping idea: use
provenance to bound how far an update propagates, instead of re-resolving
the world).

The ledger is part of a session's materialised state — the store's
provenance table, written per mutation by a *persistent* storage backend
and in bulk (:meth:`ProvenanceLedger.write_to`) by a snapshot — so a
restored session can keep retracting correctly: the provenance rows double
as the **skip index** a page-in restore reads back
(:meth:`ProvenanceLedger.from_store`) instead of replaying history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.records.pairs import canonical_pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.base import Store

PairKey = Tuple[str, str]


@dataclass
class PairProvenance:
    """The recorded history of one candidate pair.

    Attributes
    ----------
    key:
        Canonical pair key; the two source record ids *are* the key — pair
        provenance at the record level is structural.
    discovered_batch:
        1-based index of the arrival batch whose join delta produced the
        pair.
    hit_ids:
        Ids of the HITs that covered the pair, prefixed with the batch that
        published them (``"b3:h0"``), in publish order.
    vote_events:
        ``(batch_index, round_index, vote_count)`` per vote round folded
        into the ledger, in order.
    """

    key: PairKey
    discovered_batch: int
    hit_ids: List[str] = field(default_factory=list)
    vote_events: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def vote_count(self) -> int:
        """Total votes ever folded in for this pair (all rounds)."""
        return sum(count for _, _, count in self.vote_events)


@dataclass
class RetractionImpact:
    """What retracting one record invalidates.

    Attributes
    ----------
    record_id:
        The retracted record.
    dropped_pairs:
        Every candidate pair the record was part of — all of it becomes
        invalid (votes, posterior, coverage) because one of its two source
        records no longer exists.
    neighbor_ids:
        The *other* endpoint of each dropped pair: the records whose
        component membership must be recomputed from the surviving edges.
    """

    record_id: str
    dropped_pairs: List[PairKey] = field(default_factory=list)
    neighbor_ids: List[str] = field(default_factory=list)


class ProvenanceLedger:
    """Pair-level provenance plus the record → pairs inverted index.

    The streaming resolver calls :meth:`record_pair` when the incremental
    join discovers a pair, :meth:`record_coverage` when a published HIT
    covers it and :meth:`record_votes` when a vote round is folded into the
    ledger.  :meth:`retract_record` removes a record and returns the
    invalidated region as a :class:`RetractionImpact`.

    ``backing`` is an optional :class:`repro.storage.base.Store`; when it
    is persistent, each mutated pair's full row is mirrored into the
    store's provenance table (post-state writes, like the pair ledger), so
    the table always equals the dicts at event boundaries.
    """

    def __init__(self, backing: Optional["Store"] = None) -> None:
        self._pairs: Dict[PairKey, PairProvenance] = {}
        self._pairs_of_record: Dict[str, Set[PairKey]] = {}
        self._backing = (
            backing if backing is not None and backing.persistent else None
        )

    def _mirror(self, key: PairKey) -> None:
        if self._backing is not None:
            self._write_row(self._backing, key)

    def _write_row(self, store: "Store", key: PairKey) -> None:
        provenance = self._pairs[key]
        store.prov_write(
            key,
            provenance.discovered_batch,
            provenance.hit_ids,
            provenance.vote_events,
        )

    def write_to(self, store: "Store") -> None:
        """Write every pair's row into an (emptied) store's provenance table."""
        for key in self._pairs:
            self._write_row(store, key)

    # ------------------------------------------------------------ recording
    def add_record(self, record_id: str) -> None:
        """Register a record (so ``pairs_of`` works before any pair does)."""
        self._pairs_of_record.setdefault(record_id, set())

    def record_pair(self, id_a: str, id_b: str, batch_index: int) -> None:
        """Register a newly discovered candidate pair."""
        key = canonical_pair(id_a, id_b)
        if key not in self._pairs:
            self._pairs[key] = PairProvenance(key=key, discovered_batch=batch_index)
            self._mirror(key)
        self._pairs_of_record.setdefault(id_a, set()).add(key)
        self._pairs_of_record.setdefault(id_b, set()).add(key)

    def record_coverage(self, key: PairKey, hit_id: str) -> None:
        """Note that a published HIT covered the pair."""
        provenance = self._pairs.get(key)
        if provenance is not None and hit_id not in provenance.hit_ids:
            provenance.hit_ids.append(hit_id)
            self._mirror(key)

    def record_votes(
        self, key: PairKey, batch_index: int, round_index: int, vote_count: int
    ) -> None:
        """Note a vote round folded into the session's ledger for the pair."""
        provenance = self._pairs.get(key)
        if provenance is not None:
            provenance.vote_events.append((batch_index, round_index, vote_count))
            self._mirror(key)

    # -------------------------------------------------------------- queries
    def __contains__(self, key: object) -> bool:
        return key in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def get(self, id_a: str, id_b: str) -> Optional[PairProvenance]:
        """Provenance of one pair, or ``None`` if the pair is unknown."""
        return self._pairs.get(canonical_pair(id_a, id_b))

    def pairs_of(self, record_id: str) -> Set[PairKey]:
        """All candidate pairs the record participates in (copy)."""
        return set(self._pairs_of_record.get(record_id, ()))

    def known_records(self) -> Set[str]:
        """All record ids the ledger has seen (copy)."""
        return set(self._pairs_of_record)

    # ----------------------------------------------------------- retraction
    def retract_record(self, record_id: str) -> RetractionImpact:
        """Drop a record and every pair it participates in.

        Returns the invalidated region.  The neighbors' own pair sets are
        updated (the dropped pairs disappear from their indexes too), and
        the record itself is forgotten entirely.
        """
        dropped = sorted(self._pairs_of_record.pop(record_id, set()))
        impact = RetractionImpact(record_id=record_id, dropped_pairs=dropped)
        for key in dropped:
            self._pairs.pop(key, None)
            other = key[1] if key[0] == record_id else key[0]
            impact.neighbor_ids.append(other)
            neighbor_pairs = self._pairs_of_record.get(other)
            if neighbor_pairs is not None:
                neighbor_pairs.discard(key)
        if self._backing is not None and dropped:
            self._backing.prov_delete(dropped)
        return impact

    # -------------------------------------------------------------- page-in
    @classmethod
    def from_store(
        cls, source: "Store", backing: Optional["Store"] = None
    ) -> "ProvenanceLedger":
        """Page the ledger back in from a persistent store.

        Resident records seed the inverted index (so ``pairs_of`` works
        for pair-less records, exactly as after live ``add_record`` calls),
        then the stored provenance rows are loaded verbatim — without
        re-mirroring what was just read.  ``backing`` is the store the
        ledger mirrors into from then on.
        """
        ledger = cls(backing=backing)
        for record_id in source.record_ids():
            ledger.add_record(record_id)
        for key, discovered, hit_ids, vote_events in source.load_provenance():
            ledger._pairs[key] = PairProvenance(
                key=key,
                discovered_batch=discovered,
                hit_ids=list(hit_ids),
                vote_events=[tuple(event) for event in vote_events],
            )
            ledger._pairs_of_record.setdefault(key[0], set()).add(key)
            ledger._pairs_of_record.setdefault(key[1], set()).add(key)
        return ledger
