"""Feature-vector extraction for the learning-based ER baseline.

Section 2.1.2 of the paper describes learning-based ER: each record pair is
represented as a feature vector in which every dimension is the value of
some similarity function on some attribute.  The paper's SVM uses edit
distance and cosine similarity on the four Restaurant attributes (an
8-dimensional vector) and on the Product name attribute (2-dimensional).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.records.record import Record, RecordStore
from repro.similarity.record_similarity import AttributeSimilarity


@dataclass(frozen=True)
class FeatureSpec:
    """One feature dimension: a similarity function applied to an attribute."""

    attribute: str
    function: str

    @property
    def name(self) -> str:
        """Human-readable feature name, e.g. ``edit(name)``."""
        return f"{self.function}({self.attribute})"


class FeatureExtractor:
    """Turns record pairs into numpy feature vectors.

    Parameters
    ----------
    specs:
        The feature dimensions.  The default constructor helpers
        :meth:`for_attributes` builds the cross product of attributes and
        similarity functions, matching the construction in the paper.
    """

    def __init__(self, specs: Sequence[FeatureSpec]) -> None:
        if not specs:
            raise ValueError("at least one feature specification is required")
        self.specs = list(specs)
        self._similarities = [
            AttributeSimilarity(spec.attribute, spec.function) for spec in self.specs
        ]

    @classmethod
    def for_attributes(cls, attributes: Sequence[str]) -> "FeatureExtractor":
        """Build the |attributes| x {edit, cosine} feature space of the paper."""
        specs = [
            FeatureSpec(attribute=attribute, function=function)
            for attribute in attributes
            for function in ("edit", "cosine")
        ]
        return cls(specs)

    @property
    def dimension(self) -> int:
        """Number of feature dimensions."""
        return len(self.specs)

    def extract(self, record_a: Record, record_b: Record) -> np.ndarray:
        """Return the feature vector of one record pair."""
        return np.array(
            [similarity.similarity(record_a, record_b) for similarity in self._similarities],
            dtype=float,
        )

    def extract_pairs(
        self,
        store: RecordStore,
        pair_keys: Sequence[Tuple[str, str]],
    ) -> np.ndarray:
        """Return the feature matrix (len(pairs) x dimension) for pair keys."""
        if not pair_keys:
            return np.zeros((0, self.dimension), dtype=float)
        rows = [
            self.extract(store.get(id_a), store.get(id_b)) for id_a, id_b in pair_keys
        ]
        return np.vstack(rows)
