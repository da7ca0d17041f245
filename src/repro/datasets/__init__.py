"""Datasets: seeded synthetic stand-ins for the paper's evaluation data.

The paper evaluates on two real datasets that are not redistributable
offline, so this package generates synthetic equivalents calibrated to have
the same structure and a similar likelihood/recall profile
(``docs/datasets.md`` lists them beside the bundled real-style corpora):

* :func:`load_restaurant` — 858 restaurant records with 4 attributes and
  106 duplicate pairs (the Fodors/Zagat "Restaurant" dataset).
* :func:`load_product` — a two-source product catalogue (~1081 "abt"-style
  and ~1092 "buy"-style records) with ~1090 cross-source matching pairs
  (the Abt-Buy "Product" dataset).
* :func:`load_product_dup` — the "Product+Dup" dataset of Section 7.4,
  constructed exactly as in the paper: 100 base product records plus
  U[0, 9] duplicates each, generated by swapping two random tokens.

All generators accept a ``seed`` and are fully deterministic for a given
seed.

Real-style benchmark corpora (Abt-Buy / Amazon-Google shape) load through
the ETL layer (:mod:`repro.etl`), re-exported here as :func:`load_corpus` /
:func:`available_corpora`.
"""

from repro.datasets.base import Dataset
from repro.datasets.restaurant import RestaurantGenerator, load_restaurant
from repro.datasets.product import ProductGenerator, load_product
from repro.datasets.product_dup import ProductDupGenerator, load_product_dup
from repro.datasets.corruption import (
    swap_random_tokens,
    drop_random_token,
    introduce_typo,
    abbreviate_tokens,
)
from repro.datasets.paper_example import paper_example_store, paper_example_matches


def load_corpus(name, **kwargs):
    """Load a registered ETL corpus (see :func:`repro.etl.registry.load_corpus`).

    Imported lazily: :mod:`repro.etl` builds on :class:`Dataset`, so a
    top-level import here would be circular.
    """
    from repro.etl.registry import load_corpus as _load_corpus

    return _load_corpus(name, **kwargs)


def available_corpora():
    """Registered ETL corpus names (see :func:`repro.etl.registry.available_corpora`)."""
    from repro.etl.registry import available_corpora as _available_corpora

    return _available_corpora()

__all__ = [
    "Dataset",
    "RestaurantGenerator",
    "load_restaurant",
    "ProductGenerator",
    "load_product",
    "ProductDupGenerator",
    "load_product_dup",
    "swap_random_tokens",
    "drop_random_token",
    "introduce_typo",
    "abbreviate_tokens",
    "paper_example_store",
    "paper_example_matches",
    "available_corpora",
    "load_corpus",
]
