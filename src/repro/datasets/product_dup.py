"""The Product+Dup dataset (Section 7.4).

Construction, exactly as described in the paper: randomly select 100 records
from the Product dataset; for each base record add ``x`` matching records,
where ``x`` is an integer uniformly distributed on [0, 9]; each match is
generated by randomly swapping two tokens of the base record.  The resulting
dataset has many more matching pairs than Product, which is the regime where
cluster-based HITs need far fewer comparisons than pair-based HITs.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import List, Tuple

from repro.datasets.base import Dataset
from repro.datasets.corruption import swap_random_tokens
from repro.datasets.product import load_product
from repro.records.pairs import canonical_pair
from repro.records.record import Record, RecordStore


class ProductDupGenerator:
    """Generate Product+Dup from a Product dataset."""

    def __init__(
        self,
        base_records: int = 100,
        max_duplicates: int = 9,
        seed: int = 11,
        product_scale: float = 1.0,
    ) -> None:
        if base_records < 1:
            raise ValueError("base_records must be positive")
        if max_duplicates < 0:
            raise ValueError("max_duplicates must be non-negative")
        self.base_records = base_records
        self.max_duplicates = max_duplicates
        self.seed = seed
        self.product_scale = product_scale

    def generate(self) -> Dataset:
        """Generate the dataset."""
        product = load_product(seed=7, scale=self.product_scale)
        rng = random.Random(self.seed)
        base_pool = list(product.store)
        if self.base_records > len(base_pool):
            raise ValueError("base_records exceeds the size of the Product dataset")
        selected = rng.sample(base_pool, self.base_records)

        store = RecordStore(name="product+dup")
        matches: List[Tuple[str, str]] = []
        counter = 0

        for base in selected:
            counter += 1
            base_id = f"d{counter}"
            store.add(Record(record_id=base_id, attributes=dict(base.attributes)))
            duplicate_count = rng.randint(0, self.max_duplicates)
            group_ids = [base_id]
            for _ in range(duplicate_count):
                counter += 1
                duplicate_id = f"d{counter}"
                duplicated_name = swap_random_tokens(base.get("name"), rng)
                attributes = dict(base.attributes)
                attributes["name"] = duplicated_name
                store.add(Record(record_id=duplicate_id, attributes=attributes))
                group_ids.append(duplicate_id)
            for id_a, id_b in combinations(group_ids, 2):
                matches.append(canonical_pair(id_a, id_b))

        return Dataset(
            name="product+dup",
            store=store,
            ground_truth=frozenset(matches),
            metadata={
                "seed": self.seed,
                "base_records": self.base_records,
                "max_duplicates": self.max_duplicates,
                "record_count": len(store),
            },
        )


def load_product_dup(seed: int = 11, product_scale: float = 1.0) -> Dataset:
    """Generate Product+Dup with the paper's default construction."""
    return ProductDupGenerator(seed=seed, product_scale=product_scale).generate()
