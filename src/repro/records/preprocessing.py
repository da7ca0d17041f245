"""Text normalisation used before similarity computation.

The paper pre-processes both datasets by replacing non-alphanumeric
characters with whitespace and lower-casing all letters (Section 7.1).
This module implements exactly that.
"""

from __future__ import annotations

import re

_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")
_WHITESPACE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Normalise a text value the way the paper pre-processes records.

    Non-alphanumeric characters are replaced by single spaces, letters are
    lower-cased, and surrounding whitespace is stripped.

    >>> normalize_text("Apple iPad-2, 16GB  (WiFi) White!")
    'apple ipad 2 16gb wifi white'
    """
    if not text:
        return ""
    cleaned = _NON_ALNUM.sub(" ", text)
    cleaned = _WHITESPACE.sub(" ", cleaned)
    return cleaned.strip().lower()
