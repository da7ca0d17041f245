"""Record model, preprocessing and tokenization substrate.

This package provides the lowest layer of the CrowdER reproduction: the
representation of individual records, tables of records, candidate record
pairs and the text normalisation / tokenisation utilities the similarity
layer builds on.
"""

from repro.records.record import Record, RecordStore
from repro.records.pairs import RecordPair, PairSet
from repro.records.preprocessing import normalize_text, normalize_record
from repro.records.tokenize import (
    WhitespaceTokenizer,
    record_token_set,
)

__all__ = [
    "Record",
    "RecordStore",
    "RecordPair",
    "PairSet",
    "normalize_text",
    "normalize_record",
    "WhitespaceTokenizer",
    "record_token_set",
]
