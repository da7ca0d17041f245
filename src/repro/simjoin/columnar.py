"""Columnar CSR index construction from flat token arrays.

The vectorized and incremental joins both need a binary records-x-vocabulary
CSR matrix.  A per-record build — a dict ``setdefault`` and a list
``append`` per token *occurrence*, then converting the whole accumulated
index list back to numpy — is fine for a one-shot batch join, but it
dominates small-batch streaming appends, where the matmul itself is tiny
and the reconversion cost grows with the resident store.

The builders here are *columnar* instead: all token occurrences are
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

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (CSR indices, CSR indptr, vocabulary size) of a token-incidence matrix.
CsrArrays = Tuple[np.ndarray, np.ndarray, int]


def _flatten(token_sets: Sequence[Iterable[str]]) -> Tuple[List[str], np.ndarray]:
    """Flatten per-record token sets into one list plus the CSR indptr."""
    indptr = np.zeros(len(token_sets) + 1, dtype=np.int64)
    flat: List[str] = []
    for row, tokens in enumerate(token_sets):
        flat.extend(tokens)
        indptr[row + 1] = len(flat)
    return flat, indptr


def _fill_indices(flat: List[str], vocabulary: Dict[str, int]) -> np.ndarray:
    """Map every token occurrence to its column id without Python bytecode.

    ``map`` with a bound method and ``np.fromiter`` both run their loops in
    C; only the vocabulary *misses* (handled by the callers, one per
    distinct new token) pay interpreter cost.
    """
    return np.fromiter(
        map(vocabulary.__getitem__, flat), dtype=np.int64, count=len(flat)
    )


def columnar_csr_arrays(token_sets: Sequence[Iterable[str]]) -> CsrArrays:
    """Build CSR ``(indices, indptr, width)`` in one columnar pass.

    The vocabulary is implicit: column ``j`` is the ``j``-th distinct token
    in sorted order.  Rows are the given token sets, in order.
    """
    flat, indptr = _flatten(token_sets)
    if not flat:
        return np.empty(0, dtype=np.int64), indptr, 0
    vocabulary = {token: index for index, token in enumerate(sorted(set(flat)))}
    return _fill_indices(flat, vocabulary), indptr, len(vocabulary)


def extend_vocabulary_csr_arrays(
    token_sets: Sequence[Iterable[str]],
    vocabulary: Dict[str, int],
    novel_out: Optional[List[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar CSR build against a *persistent* vocabulary dict.

    Unknown tokens are appended to ``vocabulary`` (mutated in place) in
    sorted order of the batch's novel tokens.  Only one dict insertion per
    *distinct* novel batch token is paid — the per-occurrence work is a
    C-level set difference plus the ``map``/``fromiter`` fill.
    Returns ``(indices, indptr)`` for the batch rows.  When ``novel_out``
    is given, the batch's novel tokens are appended to it in column order,
    so a persistent store can mirror exactly the new vocabulary entries
    without rescanning the whole dict.
    """
    flat, indptr = _flatten(token_sets)
    if not flat:
        return np.empty(0, dtype=np.int64), indptr
    for token in sorted(set(flat).difference(vocabulary)):
        vocabulary[token] = len(vocabulary)
        if novel_out is not None:
            novel_out.append(token)
    return _fill_indices(flat, vocabulary), indptr


def compact_csr_arrays(
    indices: np.ndarray, indptr: Sequence[int], dead_rows: Iterable[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Physically drop tombstoned rows from flat CSR arrays.

    Returns new ``(indices, indptr)`` containing only the surviving rows, in
    their original order.  One vectorized boolean-mask pass over the
    occurrence array — no per-row Python loop.
    """
    indptr_array = np.asarray(indptr, dtype=np.int64)
    row_count = len(indptr_array) - 1
    alive = np.ones(row_count, dtype=bool)
    for row in dead_rows:
        alive[row] = False
    lengths = np.diff(indptr_array)
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
