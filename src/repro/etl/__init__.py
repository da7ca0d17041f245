"""ETL layer for the standard entity-resolution benchmark corpora.

The synthetic generators in :mod:`repro.datasets` calibrate *shapes* (record
counts, likelihood profiles) but every optimization since PR 1 has been
validated against those single synthetic scenarios.  This package loads
**real-style benchmark corpora** in the Abt-Buy / Amazon-Google format —
two source CSVs plus a gold-pair mapping CSV — through a pipeline that does
the unglamorous work real data needs:

* **schema mapping** — per-source column maps onto a canonical attribute
  set (:class:`~repro.etl.loader.SourceSpec`);
* **normalization** — unicode NFKD folding, accent stripping, punctuation
  and whitespace collapse (:func:`~repro.etl.parsing.etl_normalize`);
* **price/currency parsing** — ``"$1,299.00"``, ``"GBP 279"``, ``"12,50 €"``
  all become a canonical decimal plus an ISO currency code
  (:func:`~repro.etl.parsing.parse_price_currency`); malformed values are
  dropped and counted, never crash the load;
* **stable ids** — record ids are md5-derived from ``corpus|source|id``
  (:func:`~repro.etl.parsing.md5_id`), so they are identical across loads,
  row orders and machines;
* **gold-pair ingestion** — the perfect-mapping CSV becomes the dataset's
  ``ground_truth``, with rows referencing absent records dropped and
  counted (mini-corpus subsets of the full data need this);
* **lineage** — every loaded :class:`~repro.datasets.base.Dataset` carries
  ``metadata["lineage"]``: source URL, file checksums, the normalization
  steps applied, and per-step counts, so a regression in any downstream
  metric is attributable to the exact corpus bytes that produced it;
* **checksum manifests** — each corpus directory ships a ``manifest.json``
  whose per-file SHA-256 digests are verified on load
  (:mod:`repro.etl.manifest`).

Bundled, offline-friendly mini-corpora (~500 records each, committed under
``repro/etl/data/``) back the default registry entries, so
``load_corpus("abt-buy")`` works with no network; the full corpora load
through ``data_dir`` once their files are in the repository.
"""

from repro.etl.loader import CorpusSpec, EtlError, SourceSpec, load_corpus_from_dir
from repro.etl.manifest import (
    Manifest,
    ManifestError,
    load_manifest,
    sha256_file,
    verify_manifest,
)
from repro.etl.parsing import etl_normalize, md5_id, parse_price_currency, strip_accents
from repro.etl.registry import (
    available_corpora,
    bundled_corpus_dir,
    corpus_spec,
    load_corpus,
    register_corpus,
)

__all__ = [
    "CorpusSpec",
    "SourceSpec",
    "EtlError",
    "load_corpus_from_dir",
    "Manifest",
    "ManifestError",
    "load_manifest",
    "sha256_file",
    "verify_manifest",
    "etl_normalize",
    "md5_id",
    "parse_price_currency",
    "strip_accents",
    "available_corpora",
    "bundled_corpus_dir",
    "corpus_spec",
    "load_corpus",
    "register_corpus",
]
