"""Corpus registry: name → loader, resolved by the CLI and the matrix.

``load_corpus("abt-buy")`` loads the bundled offline mini corpus;
``load_corpus("abt-buy", data_dir=...)`` loads the full corpus once its
files and ``manifest.json`` are in that directory (same schema, same
manifest verification).  New corpora in the
two-CSVs-plus-gold-mapping shape register with
:func:`register_corpus` — see ``docs/datasets.md`` for a walkthrough.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.datasets.base import Dataset
from repro.etl.loader import CorpusSpec, EtlError, SourceSpec, load_corpus_from_dir

#: Bundled mini-corpus data directories, committed with the package.
_DATA_ROOT = Path(__file__).resolve().parent / "data"

_REGISTRY: Dict[str, Tuple[CorpusSpec, Optional[Path]]] = {}


def register_corpus(spec: CorpusSpec, bundled_dir: Optional[Path] = None) -> None:
    """Register a corpus spec, optionally with a bundled data directory."""
    _REGISTRY[spec.name] = (spec, Path(bundled_dir) if bundled_dir else None)


def available_corpora() -> Tuple[str, ...]:
    """Registered corpus names, in registration order."""
    return tuple(_REGISTRY)


def corpus_spec(name: str) -> CorpusSpec:
    """Return the spec registered under ``name``."""
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise EtlError(
            f"unknown corpus {name!r}; registered: {', '.join(_REGISTRY) or '(none)'}"
        ) from None


def bundled_corpus_dir(name: str) -> Path:
    """Directory of the bundled mini corpus for ``name``."""
    spec = corpus_spec(name)
    directory = _REGISTRY[spec.name][1]
    if directory is None:
        raise EtlError(f"corpus {name!r} has no bundled data; pass data_dir=")
    return directory


def load_corpus(name: str, data_dir: Optional[str] = None) -> Dataset:
    """Load a registered corpus as a :class:`~repro.datasets.base.Dataset`.

    Parameters
    ----------
    name:
        Registered corpus name (see :func:`available_corpora`).
    data_dir:
        Directory holding the corpus CSVs + ``manifest.json``; ``None``
        uses the bundled offline mini corpus.  The manifest digests are
        verified before anything is read.
    """
    spec = corpus_spec(name)
    directory = Path(data_dir) if data_dir is not None else bundled_corpus_dir(name)
    return load_corpus_from_dir(spec, directory)


# --------------------------------------------------------------- built-ins
#: The Abt-Buy product-linkage corpus (Köpcke/Thor/Rahm benchmark shape):
#: verbose abt.com titles vs terse buy.com titles, price fields with
#: currency symbols.  The bundled mini variant is ~500 records.
ABT_BUY = CorpusSpec(
    name="abt-buy",
    sources=(
        SourceSpec(
            name="abt",
            filename="Abt.csv",
            id_column="id",
            column_map={"name": "name", "description": "description"},
            price_column="price",
        ),
        SourceSpec(
            name="buy",
            filename="Buy.csv",
            id_column="id",
            column_map={
                "name": "name",
                "description": "description",
                "manufacturer": "manufacturer",
            },
            price_column="price",
        ),
    ),
    mapping_filename="abt_buy_perfectMapping.csv",
    mapping_columns=("idAbt", "idBuy"),
    default_threshold=0.2,
    default_attributes=("name", "description"),
)

#: The Amazon-GoogleProducts corpus: retailer titles + manufacturer vs
#: aggregator titles, EU-style price strings on the Google side.
AMAZON_GOOGLE = CorpusSpec(
    name="amazon-google",
    sources=(
        SourceSpec(
            name="amazon",
            filename="Amazon.csv",
            id_column="id",
            column_map={
                "title": "name",
                "description": "description",
                "manufacturer": "manufacturer",
            },
            price_column="price",
        ),
        SourceSpec(
            name="google",
            filename="GoogleProducts.csv",
            id_column="id",
            column_map={
                "name": "name",
                "description": "description",
                "manufacturer": "manufacturer",
            },
            price_column="price",
        ),
    ),
    mapping_filename="Amzon_GoogleProducts_perfectMapping.csv",
    mapping_columns=("idAmazon", "idGoogleBase"),
    default_threshold=0.2,
    default_attributes=("name", "description", "manufacturer"),
)

register_corpus(ABT_BUY, _DATA_ROOT / "abt_buy")
register_corpus(AMAZON_GOOGLE, _DATA_ROOT / "amazon_google")
