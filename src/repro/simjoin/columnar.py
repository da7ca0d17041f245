"""Columnar CSR index construction from flat token arrays.

The join (:class:`repro.streaming.incremental_join.IncrementalSimJoin`)
keeps a binary records-x-vocabulary CSR matrix and appends each batch's
rows to it.  A per-record build — a dict ``setdefault`` and a list
``append`` per token *occurrence*, then converting the whole accumulated
index list back to numpy — would dominate small-batch streaming appends,
where the matmul itself is tiny and the reconversion cost grows with the
resident store.

The builder here is *columnar* instead: all token occurrences are
flattened into one array, the vocabulary is discovered in a single pass
over the batch's **distinct** tokens (a C-level set difference), and the
CSR ``indices`` array is filled by ``np.fromiter`` over a C-level
``map(vocab.__getitem__, ...)`` — no per-occurrence Python bytecode, and
the output is a flat ``int64`` array that downstream code appends
chunk-wise (``np.concatenate``) instead of re-converting a Python list of
the entire history on every batch.

The vocabulary is assigned in sorted order per batch; column order cannot
change any intersection count, so similarity values do not depend on it
(``tests/test_parallel_join.py`` checks the counts against ``len(a & b)``
on the token sets themselves).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def extend_vocabulary_csr_arrays(
    token_sets: Sequence[Iterable[str]],
    vocabulary: Dict[str, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar CSR build against a growing vocabulary dict.

    Unknown tokens are appended to ``vocabulary`` (mutated in place) in
    sorted order of the batch's novel tokens.  Only one dict insertion per
    *distinct* novel batch token is paid — the per-occurrence work is a
    C-level set difference plus a ``map`` with a bound method drained by
    ``np.fromiter``, both loops in C.  Returns ``(indices, indptr)`` for
    the batch rows.
    """
    indptr = np.zeros(len(token_sets) + 1, dtype=np.int64)
    flat: List[str] = []
    for row, tokens in enumerate(token_sets):
        flat.extend(tokens)
        indptr[row + 1] = len(flat)
    for token in sorted(set(flat).difference(vocabulary)):
        vocabulary[token] = len(vocabulary)
    indices = np.fromiter(
        map(vocabulary.__getitem__, flat), dtype=np.int64, count=len(flat)
    )
    return indices, indptr


def compact_csr_arrays(
    indices: np.ndarray, indptr: Sequence[int], alive: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Physically drop the rows ``alive`` marks ``False`` from flat CSR arrays.

    Returns new ``(indices, indptr)`` containing only the surviving rows, in
    their original order.  One vectorized boolean-mask pass over the
    occurrence array — no per-row Python loop.
    """
    lengths = np.diff(np.asarray(indptr, dtype=np.int64))
    keep_occurrences = np.repeat(alive, lengths)
    new_indptr = np.zeros(int(alive.sum()) + 1, dtype=np.int64)
    np.cumsum(lengths[alive], out=new_indptr[1:])
    return np.asarray(indices)[keep_occurrences], new_indptr


def argsort_descending(values: Sequence[float]) -> np.ndarray:
    """Stable descending argsort — the array twin of the pair-ranking sort.

    ``np.argsort`` of the *negated* values with a stable kind gives exactly
    the order of Python's ``sorted(..., key=lambda v: -v)`` (equal values
    keep their original relative order), which is the rule every HIT
    generator ranks candidate pairs by.  Works on any float sequence; the
    caller encodes missing likelihoods as a sentinel below the valid range.
    """
    return np.argsort(-np.asarray(values, dtype=np.float64), kind="stable")
