"""Record-level similarity functions.

A :class:`RecordSimilarity` maps a pair of :class:`~repro.records.Record`
objects to a value in [0, 1].  The paper's machine pass ("simjoin") is the
Jaccard similarity over the pooled token sets of the two records, which is
implemented by :class:`JaccardRecordSimilarity`.  :class:`AttributeSimilarity`
applies a string similarity to a single attribute, which is how the SVM
feature vectors are built.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Sequence

from repro.records.record import Record
from repro.records.tokenize import WhitespaceTokenizer, record_token_set
from repro.similarity.edit_distance import levenshtein_similarity
from repro.similarity.set_similarity import (
    cosine_token_similarity,
    dice_similarity,
    jaccard_similarity,
    overlap_coefficient,
)


class RecordSimilarity:
    """Base class: a callable similarity between two records."""

    name = "record_similarity"

    def similarity(self, record_a: Record, record_b: Record) -> float:
        """Return the similarity of the two records in [0, 1]."""
        raise NotImplementedError

    def prepare(self, record: Record) -> Any:
        """Return the per-record part of the similarity, computed once.

        An all-pairs scan prepares each record once and then calls
        :meth:`compare` on the prepared values of every pair, so work that
        depends on one record only (tokenising it, say) is paid per record
        rather than per pair.  The default prepares nothing: it returns the
        record itself.
        """
        return record

    def compare(self, prepared_a: Any, prepared_b: Any) -> float:
        """Return the similarity in [0, 1] of two :meth:`prepare` results.

        ``compare(prepare(a), prepare(b))`` equals ``similarity(a, b)``.
        The default is :meth:`similarity`, which matches the default
        :meth:`prepare`; override the two together.
        """
        return self.similarity(prepared_a, prepared_b)

    def __call__(self, record_a: Record, record_b: Record) -> float:
        return self.similarity(record_a, record_b)


class JaccardRecordSimilarity(RecordSimilarity):
    """Jaccard similarity over pooled record token sets (the paper's simjoin).

    Parameters
    ----------
    attributes:
        Attributes whose values are tokenised and pooled.  ``None`` pools all
        attributes, which is what Section 7.1 describes ("a token set for
        each record, which consisted of the tokens from all attribute
        values").
    """

    name = "jaccard"

    def __init__(self, attributes: Optional[Sequence[str]] = None) -> None:
        self.attributes = list(attributes) if attributes is not None else None
        self._tokenizer = WhitespaceTokenizer()

    def prepare(self, record: Record) -> FrozenSet[str]:
        """The record's token set over the chosen attributes."""
        return record_token_set(record, self.attributes, self._tokenizer)

    def compare(self, tokens_a: FrozenSet[str], tokens_b: FrozenSet[str]) -> float:
        """Jaccard similarity of two token sets."""
        return jaccard_similarity(tokens_a, tokens_b)

    def similarity(self, record_a: Record, record_b: Record) -> float:
        return self.compare(self.prepare(record_a), self.prepare(record_b))


_SET_FUNCTIONS = {
    "jaccard": jaccard_similarity,
    "overlap": overlap_coefficient,
    "dice": dice_similarity,
    "cosine": cosine_token_similarity,
}


class AttributeSimilarity(RecordSimilarity):
    """A string similarity applied to one attribute of both records.

    Supported functions:

    * ``"edit"`` — normalised Levenshtein similarity on the raw values,
    * ``"cosine"`` — token-frequency cosine on whitespace tokens,
    * ``"jaccard"``, ``"overlap"``, ``"dice"`` — set similarities on tokens.
    """

    def __init__(self, attribute: str, function: str = "jaccard") -> None:
        if function != "edit" and function not in _SET_FUNCTIONS:
            raise ValueError(
                f"unknown similarity function {function!r}; "
                f"expected 'edit' or one of {sorted(_SET_FUNCTIONS)}"
            )
        self.attribute = attribute
        self.function = function
        self.name = f"{function}({attribute})"
        self._tokenizer = WhitespaceTokenizer()

    def similarity(self, record_a: Record, record_b: Record) -> float:
        value_a = record_a.get(self.attribute, "")
        value_b = record_b.get(self.attribute, "")
        if self.function == "edit":
            return levenshtein_similarity(value_a.lower(), value_b.lower())
        if self.function == "cosine":
            return cosine_token_similarity(
                self._tokenizer.tokenize(value_a), self._tokenizer.tokenize(value_b)
            )
        set_function = _SET_FUNCTIONS[self.function]
        return set_function(
            self._tokenizer.token_set(value_a), self._tokenizer.token_set(value_b)
        )
