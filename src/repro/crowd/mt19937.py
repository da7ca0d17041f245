"""The first outputs of many string-seeded ``random.Random`` generators at once.

The per-pair vote oracle seeds one ``random.Random(s)`` per question and
reads a handful of 32-bit words from it.  Seeding is the whole cost: each
seed runs MT19937's ``init_by_array`` over a 624-word state.  This module
runs those seedings side by side in numpy, one vector step per seeding
step, and returns exactly the words CPython would.

The seeding contract it reproduces is CPython's ``random_seed`` for a
``str``: ``b = s.encode()``, ``n = int.from_bytes(b + sha512(b).digest(),
"big")``, and the key is ``n``'s little-endian 32-bit words — as many as
``n.bit_length()`` needs (at least one).  A generator's first output is
produced by twisting its whole state; output ``kk < 227`` reads only the
untwisted words ``mt[kk]``, ``mt[kk + 1]`` and ``mt[kk + 397]``, so at most
:data:`MAX_COUNT` words are derived here and nothing else of the state is
kept.
"""

from __future__ import annotations

import random
from hashlib import sha512
from typing import Dict, Iterable, List, Tuple

import numpy as np

N, M = 624, 397
#: The most words :func:`first_words` derives per seed: the outputs whose
#: twist reads no already-twisted word.
MAX_COUNT = N - M

#: Seeds of one key length below which a vector pass loses to CPython, and
#: the publish size (in pairs) at which the platform starts using it.  A
#: pass costs ≈6 ms fixed plus ≈2.5 µs a seed; ``random.Random`` costs
#: ≈7.5 µs a seed, so the two meet near 1,100 seeds (2 vCPUs, numpy 2.4,
#: Python 3.11; see "One oracle pass per publish" in docs/benchmarks.md).
BULK_MIN_SEEDS = 1024


def _init_genrand(seed: int) -> np.ndarray:
    state = [seed]
    for index in range(1, N):
        previous = state[-1]
        state.append((1812433253 * (previous ^ (previous >> 30)) + index) & 0xFFFFFFFF)
    return np.array(state, dtype=np.uint32)


#: ``init_genrand(19650218)``: the state ``init_by_array`` starts from.
_START = _init_genrand(19650218)


def _key(seed: str) -> bytes:
    """CPython's key for a ``str`` seed, as little-endian 32-bit words."""
    data = seed.encode()
    number = int.from_bytes(data + sha512(data).digest(), "big")
    return number.to_bytes(4 * max(1, -(-number.bit_length() // 32)), "little")


def first_words(seeds: Iterable[str], count: int) -> np.ndarray:
    """``[random.Random(s).getrandbits(32) for _ in range(count)]`` per seed.

    Returns a ``(seeds, count)`` ``uint32`` array.  Seeds are grouped by
    key length; a group of at least :data:`BULK_MIN_SEEDS` seeds is seeded
    in one vector pass, a smaller one by ``random.Random`` itself (from the
    key's integer, which seeds it exactly as the string does).  Only the
    keys are kept, packed per group, so ``seeds`` may be a generator.
    """
    if not 0 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [0, {MAX_COUNT}], got {count}")
    groups: Dict[int, Tuple[List[int], bytearray]] = {}
    for row, seed in enumerate(seeds):
        key = _key(seed)
        rows, keys = groups.setdefault(len(key) // 4, ([], bytearray()))
        rows.append(row)
        keys += key
    words = np.empty((sum(len(rows) for rows, _ in groups.values()), count), dtype=np.uint32)
    for length, (rows, keys) in groups.items():
        if len(rows) < BULK_MIN_SEEDS or length >= N:
            for row, start in zip(rows, range(0, len(keys), 4 * length)):
                rng = random.Random(int.from_bytes(keys[start:start + 4 * length], "little"))
                words[row] = [rng.getrandbits(32) for _ in range(count)]
        else:
            key = np.frombuffer(keys, dtype="<u4").reshape(len(rows), length)
            words[rows] = _seeded_words(key, count)
    return words


def first_randoms(seeds: Iterable[str]) -> np.ndarray:
    """``random.Random(s).random()`` per seed, as a ``float64`` array.

    ``random()`` takes 53 bits from the first two words (CPython's
    ``genrand_res53``); every step is exact in double precision.
    """
    words = first_words(seeds, 2)
    return ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) / 9007199254740992.0


def _seeded_words(key: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` outputs of ``init_by_array(key row)``, one row per seed.

    ``init_by_array`` runs two chains over the state.  The first, ``x``,
    writes ``mt[1..623]`` and then ``mt[1]`` again; the second, ``y``,
    reads the first's word at each index it rewrites.  Rather than keep
    the first chain's 624 words per seed, the first chain runs once to
    reach its end (the second chain starts from ``mt[1]``'s final value)
    and again in lockstep with the second, which consumes each word as it
    is recomputed.  Only the words the first ``count`` outputs read are
    kept.
    """
    seeds, length = key.shape
    # Step t of the first chain adds key[t % length] + t % length.
    key_plus_j = key.T.copy()
    key_plus_j += np.arange(length, dtype=np.uint32)[:, None]
    tmp = np.empty(seeds, dtype=np.uint32)

    def first_chain_step(x: np.ndarray, t: int, base) -> None:
        np.right_shift(x, 30, out=tmp)
        np.bitwise_xor(tmp, x, out=tmp)
        np.multiply(tmp, 1664525, out=tmp)
        np.bitwise_xor(tmp, base, out=tmp)
        np.add(tmp, key_plus_j[t % length], out=x)

    # First run: x_0 .. x_{N-1}; x_t is the word written at index t + 1,
    # except x_{N-1}, which is mt[1] rewritten on top of x_0.
    x = np.full(seeds, _START[0], dtype=np.uint32)
    first_chain_step(x, 0, _START[1])
    x_first = x.copy()
    for t in range(1, N - 1):
        first_chain_step(x, t, _START[t + 1])
    first_chain_step(x, N - 1, x_first)
    x_last = x.copy()

    low = np.empty((count + 1, seeds), dtype=np.uint32)  # final mt[0..count]
    high = np.empty((count, seeds), dtype=np.uint32)  # final mt[M..M+count-1]
    low[0] = 0x80000000
    y = x_last.copy()

    def second_chain_step(base: np.ndarray, index: int) -> None:
        np.right_shift(y, 30, out=tmp)
        np.bitwise_xor(tmp, y, out=tmp)
        np.multiply(tmp, 1566083941, out=tmp)
        np.bitwise_xor(tmp, base, out=tmp)
        np.subtract(tmp, index, out=y)
        if 1 <= index <= count:
            low[index] = y
        elif M <= index < M + count:
            high[index - M] = y

    # Second run of the first chain, in lockstep with the second chain,
    # which rewrites index i = 2 .. N-1 from the first chain's word there,
    # then index 1 from x_last.
    np.copyto(x, x_first)
    for index in range(2, N):
        first_chain_step(x, index - 1, _START[index])
        second_chain_step(x, index)
    second_chain_step(x_last, 1)

    # Twist the first ``count`` words, then temper them.
    mixed = (low[:-1] & 0x80000000) | (low[1:] & 0x7FFFFFFF)
    out = high ^ (mixed >> 1) ^ ((mixed & 1) * np.uint32(0x9908B0DF))
    out ^= out >> 11
    out ^= (out << 7) & 0x9D2C5680
    out ^= (out << 15) & 0xEFC60000
    out ^= out >> 18
    return out.T
