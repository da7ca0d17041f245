"""Synthetic Restaurant dataset (the Fodors/Zagat stand-in).

The real dataset has 858 non-identical restaurant records with attributes
[name, address, city, type] and 106 duplicate pairs.  The generator below
produces a dataset with exactly that shape: ``record_count`` records of
which ``duplicate_pairs`` base records receive one perturbed duplicate.

The perturbations are calibrated so that the Jaccard-likelihood profile of
the duplicates resembles Table 2(a) of the paper: most duplicate pairs keep
a similarity above 0.4-0.5 (light perturbations such as street
abbreviations or a dropped token), a minority fall into the 0.3-0.4 band
(heavier rewording), and a handful fall below 0.3 (dirty duplicates).
Non-duplicate records frequently share city and cuisine tokens, producing
the large low-similarity candidate tail the paper's Table 2(a) shows for
small thresholds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.datasets.base import Dataset
from repro.datasets.corruption import abbreviate_tokens, drop_random_token, introduce_typo
from repro.records.pairs import canonical_pair
from repro.records.record import Record, RecordStore

_NAME_FIRST = [
    "golden", "blue", "royal", "little", "grand", "old", "new", "silver", "red",
    "green", "happy", "lucky", "sunny", "ocean", "garden", "village", "corner",
    "uptown", "downtown", "harbor", "lake", "river", "mountain", "palm", "cedar",
]
_NAME_SECOND = [
    "dragon", "lotus", "olive", "pepper", "basil", "truffle", "anchor", "lantern",
    "rose", "maple", "willow", "orchid", "tavern", "table", "spoon", "fork",
    "kettle", "stove", "hearth", "grove", "terrace", "panda", "tiger", "falcon",
]
_NAME_SUFFIX = [
    "cafe", "grill", "bistro", "kitchen", "diner", "house", "restaurant", "bar",
    "eatery", "brasserie", "cantina", "trattoria", "steakhouse", "noodle bar",
]
_STREET_NAMES = [
    "main", "oak", "pine", "maple", "market", "broadway", "sunset", "hill",
    "park", "lake", "mission", "valencia", "union", "spring", "canal", "grand",
    "madison", "lexington", "melrose", "ventura", "wilshire", "columbus",
]
_STREET_TYPES = ["street", "avenue", "boulevard", "road", "drive", "place"]
_CITIES = [
    "new york", "los angeles", "san francisco", "chicago", "atlanta",
    "boston", "seattle", "houston", "miami", "denver",
]
_CUISINES = [
    "american", "american new", "italian", "french", "chinese", "japanese",
    "mexican", "thai", "indian", "seafood", "steakhouse", "mediterranean",
    "bbq", "pizza", "vegetarian",
]
_ABBREVIATIONS = {
    "street": "st", "avenue": "ave", "boulevard": "blvd", "road": "rd",
    "drive": "dr", "place": "pl", "east": "e", "west": "w", "north": "n",
    "south": "s", "restaurant": "rest",
}


class RestaurantGenerator:
    """Generate the synthetic Restaurant dataset.

    Parameters
    ----------
    record_count:
        Total number of records to produce (858 in the paper).
    duplicate_pairs:
        Number of duplicate pairs (106 in the paper); each duplicate pair is
        a base record plus one perturbed copy, so the number of distinct
        entities is ``record_count - duplicate_pairs``.
    seed:
        RNG seed; the same seed always yields the same dataset.
    """

    def __init__(self, record_count: int = 858, duplicate_pairs: int = 106, seed: int = 42) -> None:
        if duplicate_pairs < 0 or record_count < 2 * duplicate_pairs:
            raise ValueError("record_count must be at least twice duplicate_pairs")
        self.record_count = record_count
        self.duplicate_pairs = duplicate_pairs
        self.seed = seed

    # ---------------------------------------------------------------- base
    def _base_entity(self, rng: random.Random, used_names: set) -> Dict[str, str]:
        for _ in range(100):
            name = " ".join(
                [rng.choice(_NAME_FIRST), rng.choice(_NAME_SECOND), rng.choice(_NAME_SUFFIX)]
            )
            if name not in used_names:
                used_names.add(name)
                break
        direction = rng.choice(["", "east ", "west ", "north ", "south "])
        address = (
            f"{rng.randint(1, 9999)} {direction}{rng.choice(_STREET_NAMES)} "
            f"{rng.choice(_STREET_TYPES)}"
        )
        return {
            "name": name,
            "address": address,
            "city": rng.choice(_CITIES),
            "type": rng.choice(_CUISINES),
        }

    # ----------------------------------------------------------- duplicates
    def _perturb(self, base: Dict[str, str], rng: random.Random) -> Dict[str, str]:
        """Create a duplicate of a base entity with a calibrated perturbation level."""
        duplicate = dict(base)
        level = rng.random()
        # Always vary the address formatting a little.
        duplicate["address"] = abbreviate_tokens(duplicate["address"], _ABBREVIATIONS, rng, probability=0.8)
        if level < 0.72:
            # Light perturbation: abbreviation plus maybe a typo -> high Jaccard.
            if rng.random() < 0.5:
                duplicate["name"] = introduce_typo(duplicate["name"], rng)
        elif level < 0.87:
            # Medium: drop a name token and reword the cuisine; the pair
            # typically lands in the 0.4-0.5 likelihood band.
            duplicate["name"] = drop_random_token(duplicate["name"], rng)
            duplicate["type"] = rng.choice(_CUISINES)
        elif level < 0.96:
            # Heavy: shortened name, different cuisine wording and a typo in
            # the address (0.3-0.4 band).
            duplicate["name"] = drop_random_token(introduce_typo(duplicate["name"], rng), rng)
            duplicate["type"] = rng.choice(_CUISINES)
            duplicate["address"] = introduce_typo(duplicate["address"], rng)
        else:
            # Very dirty duplicate: only fragments of the name survive and the
            # street part of the address is rewritten (likelihood around 0.2-0.3).
            duplicate["name"] = drop_random_token(drop_random_token(duplicate["name"], rng), rng)
            duplicate["type"] = rng.choice(_CUISINES)
            address_tokens = duplicate["address"].split()
            duplicate["address"] = f"{address_tokens[0]} {rng.choice(_STREET_NAMES)} st"
        return duplicate

    # ------------------------------------------------------------- generate
    def generate(self) -> Dataset:
        """Generate the dataset."""
        rng = random.Random(self.seed)
        entity_count = self.record_count - self.duplicate_pairs
        used_names: set = set()
        entities = [self._base_entity(rng, used_names) for _ in range(entity_count)]

        duplicated_indices = rng.sample(range(entity_count), self.duplicate_pairs)
        rows: List[Tuple[Dict[str, str], int]] = [
            (attributes, index) for index, attributes in enumerate(entities)
        ]
        for index in duplicated_indices:
            rows.append((self._perturb(entities[index], rng), index))
        rng.shuffle(rows)

        store = RecordStore(name="restaurant")
        first_record_of_entity: Dict[int, str] = {}
        matches: List[Tuple[str, str]] = []
        for position, (attributes, entity_index) in enumerate(rows):
            record_id = f"r{position + 1}"
            store.add(Record(record_id=record_id, attributes=attributes))
            if entity_index in first_record_of_entity:
                matches.append(canonical_pair(first_record_of_entity[entity_index], record_id))
            else:
                first_record_of_entity[entity_index] = record_id

        return Dataset(
            name="restaurant",
            store=store,
            ground_truth=frozenset(matches),
            metadata={
                "seed": self.seed,
                "entities": entity_count,
                "duplicate_pairs": self.duplicate_pairs,
            },
        )


def load_restaurant(seed: int = 42) -> Dataset:
    """Generate the Restaurant dataset with the paper's default sizes."""
    return RestaurantGenerator(seed=seed).generate()
