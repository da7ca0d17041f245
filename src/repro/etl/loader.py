"""Two-source CSV corpus loader: raw benchmark files → Dataset + lineage.

The standard record-linkage corpora (Abt-Buy, Amazon-GoogleProducts,
DBLP-ACM, ...) all share one shape: two CSV files of records, one CSV of
gold matching id pairs.  :func:`load_corpus_from_dir` turns that shape into
a :class:`repro.datasets.base.Dataset` ready for the hybrid workflow:

1. verify the directory's checksum manifest (:mod:`repro.etl.manifest`),
   which must list every file the corpus reads;
2. read each source CSV through its :class:`SourceSpec` column map;
3. normalise text attributes (:func:`repro.etl.parsing.etl_normalize`) and
   parse price fields into canonical decimal + currency attributes;
4. derive stable record ids with :func:`repro.etl.parsing.md5_id`;
5. ingest the gold mapping into the dataset's ``ground_truth``, dropping
   (and counting) rows that reference records absent from this corpus
   slice;
6. record per-step lineage in ``Dataset.metadata["lineage"]`` so every
   downstream regression is attributable to the exact corpus bytes.

Malformed *values* (unparseable prices, records whose text normalises to
nothing) are tolerated and counted; malformed *structure* (duplicate source
ids, missing columns) raises :class:`EtlError`, and a missing or unlisted
file :class:`~repro.etl.manifest.ManifestError` — a corpus that is
structurally broken should never silently produce a dataset.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.datasets.base import Dataset
from repro.etl.manifest import MANIFEST_FILENAME, ManifestError, verify_manifest
from repro.etl.parsing import etl_normalize, md5_id, parse_price_currency
from repro.records.pairs import canonical_pair
from repro.records.record import Record, RecordStore


class EtlError(ValueError):
    """Raised for structurally broken corpus files (not for messy values)."""


@dataclass(frozen=True)
class SourceSpec:
    """Schema mapping for one source CSV of a two-source corpus.

    Attributes
    ----------
    name:
        Source tag stamped on every record (``"abt"``, ``"amazon"``, ...).
    filename:
        CSV file name inside the corpus directory.
    id_column:
        Column holding the source-local record id.
    column_map:
        ``csv column → canonical attribute`` for the text attributes that
        feed similarity (values are normalised).
    price_column:
        Optional column parsed into canonical ``price`` (decimal string)
        and ``currency`` attributes instead of being normalised as text.
    """

    name: str
    filename: str
    id_column: str = "id"
    column_map: Mapping[str, str] = field(default_factory=dict)
    price_column: Optional[str] = None


@dataclass(frozen=True)
class CorpusSpec:
    """A registered two-source benchmark corpus.

    ``mapping_columns`` names the gold CSV's two id columns in the same
    order as ``sources``.  ``default_threshold`` is the likelihood
    threshold the paper (and the regression matrix) uses for this corpus;
    ``default_attributes`` restricts the similarity attribute pool
    (``None`` = all text attributes).
    """

    name: str
    sources: Tuple[SourceSpec, SourceSpec]
    mapping_filename: str
    mapping_columns: Tuple[str, str]
    default_threshold: float = 0.2
    default_attributes: Optional[Tuple[str, ...]] = None


def _read_csv_rows(path: Path) -> List[Dict[str, str]]:
    """Read a CSV into dict rows with lower-cased, stripped headers."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EtlError(f"corpus file {path} has no header row")
        rows = []
        for row in reader:
            rows.append({
                (key or "").strip().lower(): (value or "")
                for key, value in row.items()
                if key is not None
            })
    return rows


def _load_source(
    spec: CorpusSpec,
    source: SourceSpec,
    directory: Path,
    store: RecordStore,
    lineage_counts: Dict[str, int],
) -> Dict[str, str]:
    """Load one source CSV into the store; returns source id → record id."""
    rows = _read_csv_rows(directory / source.filename)
    id_column = source.id_column.lower()
    id_map: Dict[str, str] = {}
    for line_number, row in enumerate(rows, start=2):
        source_id = row.get(id_column, "").strip()
        if not source_id:
            raise EtlError(
                f"{source.filename} line {line_number}: empty or missing "
                f"{source.id_column!r} value"
            )
        if source_id in id_map:
            raise EtlError(
                f"{source.filename} line {line_number}: duplicate source id "
                f"{source_id!r} (ids must be unique within a source)"
            )
        attributes: Dict[str, str] = {}
        for column, attribute in source.column_map.items():
            attributes[attribute] = etl_normalize(row.get(column.lower(), ""))
        if source.price_column is not None:
            amount, currency = parse_price_currency(row.get(source.price_column.lower()))
            if amount is None:
                if row.get(source.price_column.lower(), "").strip():
                    lineage_counts["malformed_prices"] += 1
                else:
                    lineage_counts["missing_prices"] += 1
            else:
                attributes["price"] = f"{amount:.2f}"
                if currency is not None:
                    attributes["currency"] = currency
        if not any(attributes.get(attr) for attr in _text_attributes(source)):
            lineage_counts["empty_token_records"] += 1
        record_id = md5_id(spec.name, source.name, source_id)
        store.add(
            Record(record_id=record_id, attributes=attributes, source=source.name)
        )
        id_map[source_id] = record_id
    lineage_counts[f"{source.name}_records"] = len(id_map)
    return id_map


def _text_attributes(source: SourceSpec) -> Tuple[str, ...]:
    return tuple(source.column_map.values())


def _load_gold_pairs(
    spec: CorpusSpec,
    directory: Path,
    id_maps: Tuple[Dict[str, str], Dict[str, str]],
    lineage_counts: Dict[str, int],
) -> frozenset:
    """Ingest the perfect-mapping CSV into canonical gold pair keys."""
    rows = _read_csv_rows(directory / spec.mapping_filename)
    left_column, right_column = (column.lower() for column in spec.mapping_columns)
    left_map, right_map = id_maps
    pairs = set()
    skipped = 0
    for line_number, row in enumerate(rows, start=2):
        if left_column not in row or right_column not in row:
            raise EtlError(
                f"{spec.mapping_filename} line {line_number}: expected columns "
                f"{spec.mapping_columns} (got {sorted(row)})"
            )
        left_id = left_map.get(row[left_column].strip())
        right_id = right_map.get(row[right_column].strip())
        if left_id is None or right_id is None:
            # Mini-corpus slices do not contain every record the full
            # mapping references; drop (and count) rather than fail.
            skipped += 1
            continue
        pairs.add(canonical_pair(left_id, right_id))
    lineage_counts["gold_pairs"] = len(pairs)
    lineage_counts["gold_pairs_skipped"] = skipped
    return frozenset(pairs)


def load_corpus_from_dir(spec: CorpusSpec, directory: Path) -> Dataset:
    """Load a two-source corpus directory into a :class:`Dataset`.

    The directory's ``manifest.json`` digests are verified first, and the
    manifest's source URL / normalization steps are carried into the
    lineage.  A manifest that does not list every source file and the
    mapping file is refused: a file it leaves out would load unchecked.
    """
    directory = Path(directory)
    manifest = verify_manifest(directory)
    read = [source.filename for source in spec.sources] + [spec.mapping_filename]
    unlisted = [name for name in read if name not in manifest.files]
    if unlisted:
        raise ManifestError(
            f"{directory / MANIFEST_FILENAME} does not list {', '.join(unlisted)}: "
            "every file a corpus reads must be verified"
        )
    store = RecordStore(name=spec.name)
    lineage_counts: Dict[str, int] = {
        "malformed_prices": 0,
        "missing_prices": 0,
        "empty_token_records": 0,
    }
    id_maps = tuple(
        _load_source(spec, source, directory, store, lineage_counts)
        for source in spec.sources
    )
    ground_truth = _load_gold_pairs(spec, directory, id_maps, lineage_counts)
    lineage: Dict[str, object] = {
        "corpus": spec.name,
        "directory": str(directory),
        "loader": "repro.etl.loader.load_corpus_from_dir",
        "sources": {
            source.name: source.filename for source in spec.sources
        },
        "normalization": (
            list(manifest.normalization)
            or ["strip_accents", "normalize_text", "parse_price_currency"]
        ),
        "counts": dict(lineage_counts),
        "source_url": manifest.source_url,
        "variant": manifest.variant,
        "files": {name: stamp.sha256 for name, stamp in manifest.files.items()},
    }
    return Dataset(
        name=spec.name,
        store=store,
        ground_truth=ground_truth,
        cross_sources=(spec.sources[0].name, spec.sources[1].name),
        metadata={
            "lineage": lineage,
            "default_threshold": spec.default_threshold,
            "similarity_attributes": (
                list(spec.default_attributes) if spec.default_attributes else None
            ),
        },
    )
