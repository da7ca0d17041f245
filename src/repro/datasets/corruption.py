"""Record-perturbation utilities used by the synthetic dataset generators.

Duplicate records in real data differ by abbreviations, re-orderings, typos,
dropped tokens and alternative phrasings; these helpers apply such
perturbations deterministically (given a ``random.Random``) so that the
generators can control how textually different each duplicate is — which is
what shapes the Table-2 likelihood/recall profile.
"""

from __future__ import annotations

import random
from typing import Dict, List


def swap_random_tokens(text: str, rng: random.Random) -> str:
    """Swap two random tokens of the text (the Product+Dup construction).

    Texts with fewer than two tokens are returned unchanged.
    """
    tokens = text.split()
    if len(tokens) < 2:
        return text
    i, j = rng.sample(range(len(tokens)), 2)
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


def drop_random_token(text: str, rng: random.Random) -> str:
    """Remove one random token (keeps at least one token)."""
    tokens = text.split()
    if len(tokens) <= 1:
        return text
    index = rng.randrange(len(tokens))
    del tokens[index]
    return " ".join(tokens)


def introduce_typo(text: str, rng: random.Random) -> str:
    """Introduce a single-character typo into one token of the text.

    The typo either duplicates, deletes or substitutes one character of a
    token with length at least 4 (so very short tokens such as numbers stay
    recognisable).
    """
    tokens = text.split()
    eligible = [index for index, token in enumerate(tokens) if len(token) >= 4]
    if not eligible:
        return text
    index = rng.choice(eligible)
    token = tokens[index]
    position = rng.randrange(len(token))
    mode = rng.choice(["duplicate", "delete", "substitute"])
    if mode == "duplicate":
        token = token[: position + 1] + token[position] + token[position + 1 :]
    elif mode == "delete":
        token = token[:position] + token[position + 1 :]
    else:
        replacement = rng.choice("abcdefghijklmnopqrstuvwxyz")
        token = token[:position] + replacement + token[position + 1 :]
    tokens[index] = token
    return " ".join(tokens)


def abbreviate_tokens(text: str, abbreviations: Dict[str, str], rng: random.Random, probability: float = 1.0) -> str:
    """Replace tokens by their abbreviation with the given probability.

    E.g. ``{"street": "st", "avenue": "ave"}`` turns "55 east street" into
    "55 east st".
    """
    tokens = text.split()
    result: List[str] = []
    for token in tokens:
        lowered = token.lower()
        if lowered in abbreviations and rng.random() < probability:
            result.append(abbreviations[lowered])
        else:
            result.append(token)
    return " ".join(result)
