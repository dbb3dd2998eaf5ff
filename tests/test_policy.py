from __future__ import annotations

import random

import pytest

from helpers import make_beam_set, oracle_ralcp, oracle_votes_needed
from simulstream.core import SENTINEL, BeamSet, InvalidArgumentError
from simulstream.mt_stream import MtStreamConfig
from simulstream.policy import agreed_prefix_len, ralcp_emit, votes_needed, waitk_allows

RELAXED = 2  # the preset's Levenshtein threshold


def test_agreed_prefix_identical_lists() -> None:
    words = ["a", "b", "c", "d", "e"]
    assert agreed_prefix_len(words, words, 0, RELAXED) == 5


def test_agreed_prefix_relaxed_and_length_limited() -> None:
    prev = ["Hello,", "world"]
    curr = ["hello", "world", "again"]
    assert agreed_prefix_len(prev, curr, 0, RELAXED) == 2


def test_agreed_prefix_disagreement_at_committed() -> None:
    # Distance between the first words exceeds the relaxed threshold.
    assert agreed_prefix_len(["alpha", "b"], ["romeo", "b"], 0, RELAXED) == 0
    assert agreed_prefix_len(["a", "b"], ["x", "b"], 0, 0) == 0
    assert agreed_prefix_len(["cat", "b"], ["cap", "b"], 0, 0) == 0


def test_agreed_prefix_skips_committed_region() -> None:
    # Disagreement inside the already-committed region is ignored.
    assert agreed_prefix_len(["x", "b", "c"], ["y", "b", "c"], 1, RELAXED) == 3
    # committed beyond both lists just comes back unchanged
    assert agreed_prefix_len(["a"], ["a"], 3, RELAXED) == 3


def test_agreed_prefix_exact_mode_matches_plain_scan() -> None:
    rng = random.Random(23)
    for _ in range(300):
        prev = [rng.choice("ab") for _ in range(rng.randint(0, 6))]
        curr = [rng.choice("ab") for _ in range(rng.randint(0, 6))]
        expected = 0
        while (
            expected < min(len(prev), len(curr)) and prev[expected] == curr[expected]
        ):
            expected += 1
        assert agreed_prefix_len(prev, curr, 0, 0) == expected


def test_votes_needed_is_exact_for_awkward_ratios() -> None:
    assert votes_needed(0.5, 10) == 5
    assert votes_needed(0.6, 5) == 3  # float product would round up to 4
    assert votes_needed(1.0, 7) == 7
    assert votes_needed(0.34, 3) == 2


def test_votes_needed_matches_the_fraction_oracle() -> None:
    rng = random.Random(53)
    ratios = [k / 100 for k in range(101)] + [rng.random() for _ in range(200)]
    ratios += [0.1 + 0.2, 1 / 3, 2 / 3, 5e-324, 1.0 - 2**-53]
    for ratio in ratios:
        for pool in range(1, 65):
            assert votes_needed(ratio, pool) == oracle_votes_needed(ratio, pool), (ratio, pool)


def test_ralcp_unanimous_beams_emit_through_sentinel() -> None:
    tokens = ("der", "hund", SENTINEL, "die")
    beams = make_beam_set([tokens] * 10)
    out = ralcp_emit(beams, 0, 0.5, 10)
    assert out == ["der", "hund", SENTINEL]


def test_ralcp_plurality_then_split() -> None:
    beams = make_beam_set(
        [("der", "x1"), ("der", "x2"), ("die", "x3"), ("das", "x4")]
    )
    out = ralcp_emit(beams, 0, 0.5, 4)
    assert out == ["der"]


def test_ralcp_preserved_vote_bar_blocks_few_survivors() -> None:
    # 6 of 10 beams are empty beyond the committed prefix; the 4 survivors
    # agree, but the bar stays at ceil(0.5 * 10) = 5, so nothing is emitted.
    full = ("tok", "next")
    empty = ()
    beams = make_beam_set([full] * 4 + [empty] * 6)
    out = ralcp_emit(beams, 0, 0.5, 10)
    assert out == []


def test_ralcp_tie_broken_by_best_scoring_holder() -> None:
    beams = make_beam_set([("a",), ("b",), ("b",), ("a",)])
    out = ralcp_emit(beams, 0, 0.25, 4)
    assert out == ["a"]  # 2-2 tie; "a" is held by the top beam


def test_ralcp_empty_beam_set_emits_nothing() -> None:
    assert ralcp_emit(BeamSet(()), 0, 0.5, 10) == []


def test_ralcp_respects_committed_offset() -> None:
    beams = make_beam_set([("a", "b", "c")] * 3)
    out = ralcp_emit(beams, 1, 1.0, 3)
    assert out == ["b", "c"]


def test_ralcp_full_agreement_equals_exact_lcp() -> None:
    rng = random.Random(31)
    for _ in range(200):
        tokens = tuple(rng.choice("xyz") for _ in range(rng.randint(0, 5)))
        beams = make_beam_set([tokens] * 5)
        expected = []
        for t in tokens:
            expected.append(t)
            if t == SENTINEL:
                break
        assert ralcp_emit(beams, 0, 1.0, 5) == expected


def test_ralcp_matches_vote_oracle_on_random_sets() -> None:
    rng = random.Random(47)
    alphabet = ["x", "y", SENTINEL]
    for _ in range(500):
        n = rng.randint(1, 4)
        token_lists = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            for _ in range(n)
        ]
        beams = make_beam_set(token_lists)
        pool = rng.randint(n, 6)
        committed = rng.randint(0, 2)
        ratio = rng.choice([0.3, 0.5, 0.7, 1.0])
        assert ralcp_emit(beams, committed, ratio, pool) == oracle_ralcp(
            beams, committed, ratio, pool
        )


def _noisy_token_lists(rng: random.Random, n: int, committed: int) -> list[tuple[str, ...]]:
    """``n`` beams as the noisy mock MT makes them, over a committed prefix
    that each beam may rewrite: beam 1's continuation, and beams 2..n with
    a truncated tail whose last token may become ``X~b``."""
    words = ["der", "hund", "lief", SENTINEL]
    shared = [rng.choice(words) for _ in range(committed + rng.randint(0, 8))]
    rewrite = rng.random() < 0.4  # beams then differ before ``committed``
    token_lists = []
    for b in range(1, n + 1):
        tokens = list(shared)
        if b > 1:
            del tokens[len(tokens) - rng.randint(0, min(3, len(tokens) - committed)) :]
            if len(tokens) > committed and rng.random() < 0.5 and tokens[-1] != SENTINEL:
                tokens[-1] = f"{tokens[-1]}~{b}"
        if rewrite and committed:
            tokens[rng.randrange(committed)] = rng.choice(["a", "b", "c"])
        token_lists.append(tuple(tokens))
    return token_lists


def test_ralcp_matches_vote_oracle_on_noisy_beam_sets() -> None:
    rng = random.Random(59)
    for _ in range(3000):
        n = rng.choice([0, 1, 2, 6, 7, 8, 9, 10])
        committed = rng.randint(0, 3)
        beams = make_beam_set(_noisy_token_lists(rng, n, committed))
        pool = rng.randint(max(n, 1), 10)
        ratio = rng.choice([0.1, 0.3, 0.5, 0.6, 1.0])
        at = committed + rng.choice([0, 0, 0, 1, 12])  # also past the prefix
        assert ralcp_emit(beams, at, ratio, pool) == oracle_ralcp(beams, at, ratio, pool)


def test_ralcp_shared_run_needs_agreement_before_committed() -> None:
    # The least and greatest beams agree from position 1 on, but the beam
    # between them does not: "x" holds two of three votes, not all three.
    beams = make_beam_set([("a", "x", SENTINEL), ("b", "y", SENTINEL), ("c", "x", SENTINEL)])
    assert ralcp_emit(beams, 1, 1.0, 3) == oracle_ralcp(beams, 1, 1.0, 3) == []
    assert ralcp_emit(beams, 1, 0.5, 3) == oracle_ralcp(beams, 1, 0.5, 3) == ["x", SENTINEL]
    assert ralcp_emit(beams, 2, 1.0, 3) == [SENTINEL]


def test_ralcp_stops_after_a_sentinel_in_the_shared_run() -> None:
    beams = make_beam_set([("a", SENTINEL, "b", "c")] * 6 + [("a", SENTINEL, "b")] * 2)
    assert ralcp_emit(beams, 0, 0.5, 10) == ["a", SENTINEL]
    assert ralcp_emit(beams, 2, 0.5, 10) == ["b", "c"]


def test_ralcp_too_few_beams_for_the_bar_emit_nothing() -> None:
    beams = make_beam_set([("a", "b")] * 4)
    assert ralcp_emit(beams, 0, 0.5, 10) == []  # 4 beams, bar 5
    assert ralcp_emit(beams, 0, 0.1, 10) == ["a", "b"]  # bar 1
    assert ralcp_emit(BeamSet(()), 0, 0.1, 10) == []


def test_waitk_gate() -> None:
    assert not waitk_allows(3, 0)
    assert not waitk_allows(3, 2)
    assert waitk_allows(3, 3)
    assert waitk_allows(3, 4)
    assert waitk_allows(1, 1)


def test_waitk_is_monotone() -> None:
    opened = False
    for read in range(12):
        now = waitk_allows(5, read)
        assert not (opened and not now)
        opened = opened or now


def test_config_validation() -> None:
    with pytest.raises(InvalidArgumentError):
        MtStreamConfig(agreement_ratio=0.0)
    with pytest.raises(InvalidArgumentError):
        MtStreamConfig(agreement_ratio=1.5)
    with pytest.raises(InvalidArgumentError):
        MtStreamConfig(wait_k=0)
    with pytest.raises(InvalidArgumentError):
        agreed_prefix_len(["a"], ["a"], -1, RELAXED)
    with pytest.raises(InvalidArgumentError, match="committed must be >= 0, got -1"):
        ralcp_emit(make_beam_set([["a"]]), -1, 0.5, 1)
    with pytest.raises(InvalidArgumentError, match="words_read must be >= 0, got -1"):
        waitk_allows(3, -1)
