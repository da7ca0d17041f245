"""Shared fixtures and helpers for the figure scripts.

Every ``bench_fig*.py`` / ``bench_table2_*.py`` module regenerates one table
or figure of the paper, and ``bench_ablation_aggregation.py`` one ablation;
each prints the corresponding rows/series (bypassing pytest's output capture
so the report is visible in a plain ``pytest benchmarks/ --benchmark-only``
run).  The end-to-end harness under ``benchmarks/harness/`` does not use
these fixtures.

The Product-derived workloads are scaled down by default so the whole set
finishes in a few minutes on a laptop; set ``REPRO_BENCH_SCALE=1.0`` to run
them at the paper's full size.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets.product import load_product
from repro.datasets.product_dup import ProductDupGenerator
from repro.datasets.restaurant import load_restaurant


def bench_scale() -> float:
    """Scale factor for the Product-derived datasets (1.0 = paper size)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))


@pytest.fixture(scope="session")
def restaurant_dataset():
    """The Restaurant dataset at full paper size (858 records, 106 duplicates)."""
    return load_restaurant()


@pytest.fixture(scope="session")
def product_dataset():
    """The two-source Product dataset (scaled by REPRO_BENCH_SCALE)."""
    return load_product(scale=bench_scale())


@pytest.fixture(scope="session")
def product_dataset_full():
    """The Product dataset at full paper size (used by the Table-2 benchmark)."""
    return load_product(scale=1.0)


@pytest.fixture(scope="session")
def product_dup_dataset():
    """The Product+Dup dataset of Section 7.4 (built on the scaled Product data)."""
    return ProductDupGenerator(
        base_records=100, max_duplicates=9, seed=11, product_scale=bench_scale()
    ).generate()


@pytest.fixture()
def report(capsys):
    """Print a benchmark report even when pytest captures output."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _report
