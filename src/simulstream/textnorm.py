"""Word normalization, edit distance, and rule-based sentence boundaries.

These are the primitives behind relaxed word agreement: casing, punctuation
and small spelling differences between consecutive ASR hypotheses should not
stall commitment.
"""

from __future__ import annotations

import unicodedata
from typing import Sequence

_ABBREVIATIONS = frozenset(
    {"dr", "mr", "mrs", "ms", "prof", "e.g", "i.e", "etc", "vs", "fig", "eq"}
)

_TERMINALS = ".!?…"
_CLOSERS = "\"'”’»)]}"


def is_punctuation(ch: str) -> bool:
    """True for a character of a Unicode punctuation category (P*)."""
    return unicodedata.category(ch).startswith("P")


def normalize_word(word: str) -> str:
    """Lowercase and strip Unicode punctuation.

    May return "" when the word was entirely punctuation.
    """
    return "".join(ch for ch in word.lower() if not is_punctuation(ch))


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost insert/delete/substitute edit distance.

    Works on any element sequence; the library uses it on characters, for
    relaxed word matching. Segment alignment (``metrics.resegment``) runs
    its own word-level edit distance along diagonals.
    """
    n, m = len(a), len(b)
    if n > m:
        a, b = b, a
        n, m = m, n
    current = list(range(n + 1))
    for i in range(1, m + 1):
        previous, current = current, [i] + [0] * n
        for j in range(1, n + 1):
            add = previous[j] + 1
            delete = current[j - 1] + 1
            change = previous[j - 1] + (a[j - 1] != b[i - 1])
            current[j] = min(add, delete, change)
    return current[n]


def words_match(a: str, b: str, threshold: int) -> bool:
    """True when the normalized forms are at most ``threshold`` edits apart."""
    if a == b:  # equal raw words normalize equal: distance 0
        return threshold >= 0
    return levenshtein(normalize_word(a), normalize_word(b)) <= threshold


def has_terminal_mark(word: str) -> bool:
    """True when the word ends with . ! ? or an ellipsis, ignoring closers."""
    stripped = word.rstrip(_CLOSERS)
    return bool(stripped) and stripped[-1] in _TERMINALS


def is_sentence_terminal(word: str) -> bool:
    """True when the word ends a sentence.

    The word must end with a terminal mark (optionally followed by closing
    quotes/brackets) and, stripped of that punctuation, must not be a known
    abbreviation or a single letter (initials like "J.").
    """
    if not has_terminal_mark(word):
        return False
    base = word.rstrip(_CLOSERS)[:-1].lower()
    if len(base) == 1:
        return False
    return base not in _ABBREVIATIONS
