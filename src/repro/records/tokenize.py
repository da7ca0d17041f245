"""Tokenisers producing the token sets used by similarity functions.

The paper's "simjoin" likelihood is the Jaccard similarity between the token
sets of two records, where a record's token set contains the (whitespace)
tokens of all its attribute values after normalisation.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from repro.records.preprocessing import normalize_text
from repro.records.record import Record


class WhitespaceTokenizer:
    """Split normalised text on whitespace into a list of tokens."""

    def tokenize(self, text: str) -> List[str]:
        """Return the token list of ``text`` (normalised first)."""
        normalized = normalize_text(text)
        if not normalized:
            return []
        return normalized.split(" ")

    def token_set(self, text: str) -> FrozenSet[str]:
        """Return the distinct tokens of ``text`` as a frozen set."""
        return frozenset(self.tokenize(text))


def record_token_set(
    record: Record,
    attributes: Optional[Sequence[str]] = None,
    tokenizer: Optional[WhitespaceTokenizer] = None,
) -> FrozenSet[str]:
    """Return the token set of a record over the chosen attributes.

    This is the exact token-set construction the paper uses for the simjoin
    likelihood: the tokens of all attribute values are pooled into one set.
    """
    tokenizer = tokenizer or WhitespaceTokenizer()
    return tokenizer.token_set(record.text(attributes))
