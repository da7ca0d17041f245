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
        as strings (``None`` for no value); numeric attributes (e.g. price)
        should be formatted by the caller.  A session refuses a record
        holding anything else (:func:`check_attribute_values`), but a
        record is built from whatever a store holds.
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


def check_attribute_values(record: Record) -> None:
    """Refuse ``record`` unless each attribute value is a string or ``None``.

    Raises :class:`RecordError` naming the first attribute that is not.
    A session's ``add_batch`` and ``update`` call this before the event
    is logged: a value :meth:`Record.text` cannot join would otherwise
    fail inside the event, after an update had already retracted the old
    version.  The constructor does not, so a store an earlier release
    wrote with such a value still restores.
    """
    for name, value in record.attributes.items():
        if value is not None and not isinstance(value, str):
            raise RecordError(
                f"attribute {name!r} of record {record.record_id!r} must be "
                f"a string, not {type(value).__name__}"
            )


class RecordStore:
    """An ordered, id-indexed collection of :class:`Record` objects.

    The store enforces id uniqueness and preserves insertion order, which
    makes dataset generation deterministic and keeps pair enumeration
    stable across runs.

    Parameters
    ----------
    name:
        Human-readable table name.
    """

    def __init__(self, name: str = "records") -> None:
        self.name = name
        # Insertion-ordered: the one container, so removal is O(1).
        self._by_id: Dict[str, Record] = {}

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "RecordStore":
        """Build a store from an iterable of records."""
        store = cls()
        for record in records:
            store.add(record)
        return store

    def add(self, record: Record) -> None:
        """Add a record; raises :class:`RecordError` on duplicate ids."""
        if record.record_id in self._by_id:
            raise RecordError(f"duplicate record id: {record.record_id!r}")
        self._by_id[record.record_id] = record

    def remove(self, record_id: str) -> Record:
        """Remove and return the record with the given id (O(1); the others
        keep their order).  Raises :class:`RecordError` if the id is unknown.
        """
        record = self._by_id.pop(record_id, None)
        if record is None:
            raise RecordError(f"unknown record id: {record_id!r}")
        return record

    def get(self, record_id: str) -> Record:
        """Return the record with the given id, raising ``KeyError`` if absent."""
        return self._by_id[record_id]

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._by_id.values())

    @property
    def record_ids(self) -> List[str]:
        """Record ids in insertion order."""
        return list(self._by_id)

    def records_from_source(self, source: str) -> List[Record]:
        """Return all records tagged with the given source."""
        return [record for record in self if record.source == source]

    def attribute_names(self) -> List[str]:
        """Union of attribute names across all records, in first-seen order."""
        names: List[str] = []
        for record in self:
            for name in record.attributes:
                if name not in names:
                    names.append(name)
        return names

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
