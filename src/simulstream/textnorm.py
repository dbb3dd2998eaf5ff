"""Word normalization, edit distance, and rule-based sentence boundaries.

These are the primitives behind relaxed word agreement: casing, punctuation
and small spelling differences between consecutive ASR hypotheses should not
stall commitment. The package's one edit distance lives here too: the
furthest-reaching wave pass ``_waves`` measures words on characters for
``words_match`` and, on tokens, places ``metrics.resegment``'s boundaries.
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


def levenshtein(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute edit distance of two strings."""
    return _waves(a, b, len(b) + 1)[0]


def _waves(a: Sequence[str], b: Sequence[str], row: int) -> tuple[int, list[int]]:
    """The edit distance D of ``a`` and ``b``, and the first of the
    furthest-reaching waves to reach row ``row`` on each diagonal.

    Wave e holds, for each diagonal d = j - g from -min(e, len(b)) to
    min(e, len(a)), the greatest g such that a[:g + d] and b[:g] are at
    most e edits apart. The waves stop at the first that reaches the
    corner, wave D, and a[:j] and b[:g] are at most e apart exactly when
    wave e reaches row g on diagonal j - g: so ``hits[len(b) + 1 + d]`` is
    the cost of cell (row + d, row) if at most D, and more otherwise. Each
    wave is built in place from the one before in one step per diagonal,
    and ``_run`` follows each run of equal tokens a token at a time, so a
    call takes O((|a| + |b|)(D + 1)) time at worst and holds O(|a| + |b|)
    ints.
    """
    n, t = len(a), len(b)
    # reach[t + 1 + d] is the current wave's reach on diagonal d; diagonals
    # it does not hold read -2, which no move can carry past -1.
    off = t + 1
    end = n + off  # the cap on diagonal d's rows, n - d, is end - i
    reach = [-2] * (n + t + 3)
    hits = [n + t + 1] * (n + t + 3)  # more than any edit distance
    reach[off] = _run(a, 0, b, 0)
    if reach[off] >= row:
        hits[off] = 0
    corner = off + n - t
    e = 0
    while reach[corner] < t:
        e += 1
        lo, hi = off - min(e, t), off + min(e, n)
        left = reach[lo - 1]  # the previous wave's reach on diagonal d - 1
        for i in range(lo, hi + 1):
            here = reach[i]
            g = here + 1  # substitute
            if left > g:
                g = left  # insert a[j - 1]
            if reach[i + 1] >= g:
                g = reach[i + 1] + 1  # delete b[g - 1]
            left = here
            if g > t:
                g = t
            if g > end - i:
                g = end - i
            j = g + i - off
            if j < n and g < t and a[j] == b[g]:
                g += _run(a, j, b, g)
            reach[i] = g
            if g >= row > here:
                hits[i] = e
    return e, hits


def _run(a: Sequence[str], i: int, b: Sequence[str], k: int) -> int:
    """The length of the common prefix of a[i:] and b[k:]."""
    limit = min(len(a) - i, len(b) - k)
    run = 0
    while run < limit and a[i + run] == b[k + run]:
        run += 1
    return run


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
