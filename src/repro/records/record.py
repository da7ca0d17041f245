"""Record and RecordStore: the basic data model of the reproduction.

A :class:`Record` is an immutable mapping from attribute names to string
values plus a unique identifier and an optional source tag (used by
two-source datasets such as the Product dataset, which integrates records
from an "abt"-like and a "buy"-like website).

A :class:`RecordStore` is an ordered collection of records with id-based
lookup.  It corresponds to the single relational table the CrowdER paper
de-duplicates (e.g. Table 1 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class RecordError(ValueError):
    """Raised for malformed records or invalid store operations."""


@dataclass(frozen=True)
class Record:
    """A single record (row) of the table being resolved.

    Parameters
    ----------
    record_id:
        Unique identifier of the record within its :class:`RecordStore`
        (e.g. ``"r1"``).
    attributes:
        Mapping from attribute name to attribute value.  Values are stored
        as strings; numeric attributes (e.g. price) should be formatted by
        the caller.
    source:
        Optional provenance tag.  Two-source datasets set this to the name
        of the originating website so that cross-source matching can be
        restricted or analysed.
    """

    record_id: str
    attributes: Mapping[str, str]
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.record_id:
            raise RecordError("record_id must be a non-empty string")
        if not isinstance(self.attributes, Mapping):
            raise RecordError("attributes must be a mapping")
        # Freeze the attribute mapping so the record is hashable and safe to
        # share between data structures.
        object.__setattr__(self, "attributes", dict(self.attributes))

    def __hash__(self) -> int:
        return hash(self.record_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.record_id == other.record_id

    def get(self, attribute: str, default: str = "") -> str:
        """Return the value of ``attribute``, or ``default`` if absent."""
        return self.attributes.get(attribute, default)

    def text(self, attributes: Optional[Sequence[str]] = None) -> str:
        """Concatenate attribute values into a single text blob.

        The CrowdER "simjoin" likelihood tokenises the concatenation of all
        attribute values of a record; this helper produces that blob.

        Parameters
        ----------
        attributes:
            Attributes to include, in order.  ``None`` means all attributes
            in insertion order.
        """
        if attributes is None:
            values = list(self.attributes.values())
        else:
            values = [self.attributes.get(name, "") for name in attributes]
        return " ".join(value for value in values if value)

    def with_attributes(self, **updates: str) -> "Record":
        """Return a copy of this record with some attribute values replaced."""
        merged = dict(self.attributes)
        merged.update(updates)
        return Record(record_id=self.record_id, attributes=merged, source=self.source)

    def as_dict(self) -> Dict[str, str]:
        """Return a plain-dict view including the id and source."""
        payload = {"record_id": self.record_id}
        payload.update(self.attributes)
        if self.source is not None:
            payload["source"] = self.source
        return payload


class _InMemoryRecordTable:
    """The default record table: an ordered list plus an id index.

    This is the storage every unbacked :class:`RecordStore` uses — the
    exact structures the store always kept, now behind the same small
    table interface a :class:`repro.storage.base.Store` implements, so
    record reads and writes take one code path whether the records live
    in process memory or in a SQLite file.
    """

    def __init__(self) -> None:
        self._records: List[Record] = []
        self._by_id: Dict[str, Record] = {}

    def add_record(self, record: Record) -> None:
        self._records.append(record)
        self._by_id[record.record_id] = record

    def remove_record(self, record_id: str) -> Optional[Record]:
        record = self._by_id.pop(record_id, None)
        if record is not None:
            self._records.remove(record)
        return record

    def get_record(self, record_id: str) -> Optional[Record]:
        return self._by_id.get(record_id)

    def has_record(self, record_id: object) -> bool:
        return record_id in self._by_id

    def record_count(self) -> int:
        return len(self._records)

    def iter_records(self) -> Iterator[Record]:
        return iter(self._records)

    def record_ids(self) -> List[str]:
        return [record.record_id for record in self._records]

    def record_at(self, index: int) -> Record:
        return self._records[index]


class RecordStore:
    """An ordered, id-indexed collection of :class:`Record` objects.

    The store enforces id uniqueness and preserves insertion order, which
    makes dataset generation deterministic and keeps pair enumeration
    stable across runs.

    Parameters
    ----------
    name:
        Human-readable table name.
    backing:
        Optional storage backend implementing the record-table interface
        (see :class:`repro.storage.base.Store`).  ``None`` (default) keeps
        records in process memory; a persistent backing makes every read
        and write go through its table instead, which is how a
        SQLite-backed streaming session keeps records out of RAM.
    """

    def __init__(self, name: str = "records", backing=None) -> None:
        self.name = name
        self._table = backing if backing is not None else _InMemoryRecordTable()

    @classmethod
    def from_records(cls, records: Iterable[Record], name: str = "records") -> "RecordStore":
        """Build a store from an iterable of records."""
        store = cls(name=name)
        for record in records:
            store.add(record)
        return store

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, str]],
        id_attribute: str = "record_id",
        name: str = "records",
        source: Optional[str] = None,
    ) -> "RecordStore":
        """Build a store from plain dict rows.

        The ``id_attribute`` column is used as the record id and removed
        from the attribute mapping.
        """
        store = cls(name=name)
        for index, row in enumerate(rows):
            row = dict(row)
            record_id = str(row.pop(id_attribute, f"r{index + 1}"))
            store.add(Record(record_id=record_id, attributes=row, source=source))
        return store

    def add(self, record: Record) -> None:
        """Add a record; raises :class:`RecordError` on duplicate ids."""
        if self._table.has_record(record.record_id):
            raise RecordError(f"duplicate record id: {record.record_id!r}")
        self._table.add_record(record)

    def remove(self, record_id: str) -> Record:
        """Remove and return the record with the given id.

        Raises :class:`RecordError` if the id is unknown.  O(n) in the store
        size (the insertion-order list is rebuilt without the record); used
        by streaming retraction, where removals are rare relative to scans.
        """
        record = self._table.remove_record(record_id)
        if record is None:
            raise RecordError(f"unknown record id: {record_id!r}")
        return record

    def get(self, record_id: str) -> Record:
        """Return the record with the given id, raising ``KeyError`` if absent."""
        record = self._table.get_record(record_id)
        if record is None:
            raise KeyError(record_id)
        return record

    def __contains__(self, record_id: object) -> bool:
        return self._table.has_record(record_id)

    def __len__(self) -> int:
        return self._table.record_count()

    def __iter__(self) -> Iterator[Record]:
        return self._table.iter_records()

    def __getitem__(self, index: int) -> Record:
        return self._table.record_at(index)

    @property
    def record_ids(self) -> List[str]:
        """Record ids in insertion order."""
        return self._table.record_ids()

    def records_from_source(self, source: str) -> List[Record]:
        """Return all records tagged with the given source."""
        return [record for record in self if record.source == source]

    def sources(self) -> List[str]:
        """Return distinct source tags in first-seen order."""
        seen: List[str] = []
        for record in self:
            if record.source is not None and record.source not in seen:
                seen.append(record.source)
        return seen

    def attribute_names(self) -> List[str]:
        """Union of attribute names across all records, in first-seen order."""
        names: List[str] = []
        for record in self:
            for name in record.attributes:
                if name not in names:
                    names.append(name)
        return names

    def all_pairs(self) -> Iterator[Tuple[Record, Record]]:
        """Yield every unordered pair of distinct records.

        This is the O(n^2) enumeration the paper's "naive" crowdsourcing
        approach would have to verify; the hybrid workflow exists precisely
        to avoid sending all of these to the crowd.
        """
        return self._record_pairs(None)

    def cross_source_pairs(self, source_a: str, source_b: str) -> Iterator[Tuple[Record, Record]]:
        """Yield pairs with one record from each of the two given sources.

        With ``source_a == source_b`` that is every unordered pair of
        distinct records of that source, each once.
        """
        return self._record_pairs((source_a, source_b))

    def _record_pairs(
        self, cross_sources: Optional[Tuple[str, str]]
    ) -> Iterator[Tuple[Record, Record]]:
        records = list(self)
        for i, j in pair_indices(records, cross_sources):
            yield records[i], records[j]

    def total_pair_count(self) -> int:
        """Number of unordered pairs n*(n-1)/2."""
        n = len(self)
        return n * (n - 1) // 2


def pair_indices(
    records: Sequence[Record], cross_sources: Optional[Tuple[str, str]] = None
) -> Iterator[Tuple[int, int]]:
    """Yield the candidate pairs of ``records`` as positions ``(i, j)``.

    ``None`` gives every unordered pair of distinct records, ``i < j``.
    ``(source_a, source_b)`` gives one record from each source, ``source_a``
    first; when the two sources are the same that is the self-join over the
    source, so each unordered pair of its distinct records comes once.
    """
    if cross_sources is None:
        left = right = range(len(records))
    else:
        source_a, source_b = cross_sources
        left = [i for i, record in enumerate(records) if record.source == source_a]
        right = (
            left if source_b == source_a
            else [i for i, record in enumerate(records) if record.source == source_b]
        )
    for k, i in enumerate(left):
        for j in (right[k + 1:] if right is left else right):
            yield i, j
