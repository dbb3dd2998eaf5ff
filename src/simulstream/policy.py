"""Emission policies: relaxed prefix agreement, beam voting, and wait-k.

Three gates decide when text may leave the system:

* ``agreed_prefix_len`` commits ASR words once two consecutive hypotheses
  agree on them (relaxed word equality).
* ``ralcp_emit`` commits MT tokens once enough beams vote for the same
  token at the next position.
* ``waitk_allows`` holds back all MT output at the start of each segment
  until k source words have been read, to suppress early hallucination.
"""

from __future__ import annotations

from typing import Sequence

from .core import SENTINEL, BeamSet, InvalidArgumentError
from .textnorm import _run, words_match


def agreed_prefix_len(
    prev: Sequence[str], curr: Sequence[str], committed: int, threshold: int
) -> int:
    """Length of the relaxed common prefix of two hypotheses.

    The first ``committed`` positions are already emitted and skipped.
    Returns the largest n >= committed such that every position in
    [committed, n) matches within ``threshold`` edits (``words_match``).
    """
    if committed < 0:
        raise InvalidArgumentError(f"committed must be >= 0, got {committed}")
    n = committed
    limit = min(len(prev), len(curr))
    while n < limit and words_match(prev[n], curr[n], threshold):
        n += 1
    return n


def votes_needed(agreement_ratio: float, pool: int) -> int:
    """ceil(agreement_ratio * pool), exact.

    The float product can round up (0.6 * 5 -> 3.0000000000000004), so the
    ceiling is taken in integers over the ratio's exact value p / q.
    """
    p, q = agreement_ratio.as_integer_ratio()
    return -(-p * pool // q)


def ralcp_emit(beams: BeamSet, committed: int, agreement_ratio: float, pool: int) -> list[str]:
    """Vote the next tokens out of a beam set, never retracting.

    Walks positions starting at ``committed``; at each position the
    plurality token (ties broken by the highest-scoring beam holding the
    token) is emitted iff its vote count reaches the bar. The bar is
    ceil(agreement_ratio * pool), ``pool`` being the beam count requested,
    fixed however many beams come back: the conservative guard against
    hallucination. A beam too short to hold a position casts no vote there.
    Stops at the first failing position, or right after emitting the
    sentinel, which closes the segment for this call.

    Fewer beams than the bar emit nothing. The positions all beams agree
    on are voted at once: a token sequence that sorts between the
    lexicographically least and greatest beams shares their common prefix,
    so when those two agree on the first ``committed`` tokens, each token
    of their common run from ``committed`` on holds every beam's vote.
    (Without that agreement a beam between them may differ after
    ``committed`` too.) The walk goes on past that run one position at a
    time.
    """
    if committed < 0:
        raise InvalidArgumentError(f"committed must be >= 0, got {committed}")
    needed = votes_needed(agreement_ratio, pool)
    rows = [beam.tokens for beam in beams.beams]
    if not rows or len(rows) < needed:  # no position can gather the votes
        return []

    lo, hi = min(rows), max(rows)
    shared = _run(lo, committed, hi, committed) if lo[:committed] == hi[:committed] else 0
    emitted = list(lo[committed : committed + shared])
    if SENTINEL in emitted:
        del emitted[emitted.index(SENTINEL) + 1 :]
        return emitted
    position = committed + shared
    while True:
        counts: dict[str, int] = {}
        for tokens in rows:
            if len(tokens) > position:
                token = tokens[position]
                counts[token] = counts.get(token, 0) + 1
        if not counts:
            break
        # Beams come in rank order, so tokens enter ``counts`` in the order
        # of their highest-ranked holder, and ``max`` keeps the first of a tie.
        winner = max(counts, key=counts.__getitem__)
        if counts[winner] < needed:
            break
        emitted.append(winner)
        position += 1
        if winner == SENTINEL:
            break
    return emitted


def waitk_allows(k: int, words_read: int) -> bool:
    """True once the current segment has read at least ``k`` source words."""
    if words_read < 0:
        raise InvalidArgumentError(f"words_read must be >= 0, got {words_read}")
    return words_read >= k
