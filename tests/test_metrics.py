from __future__ import annotations

import json
import math
import random
from collections import Counter
from itertools import accumulate

import pytest

from helpers import (
    oracle_bleu_tokenize,
    oracle_corpus_bleu,
    oracle_laal,
    oracle_levenshtein,
    oracle_resegment,
    oracle_resegment_cost,
    reach_passes,
)
from simulstream import core, metrics
from simulstream.core import SENTINEL, EmissionRecord, InvalidArgumentError
from simulstream.metrics import (
    ReferenceSegment,
    bleu_tokenize,
    corpus_bleu,
    evaluate,
    latency_stats,
    read_emission_log,
    read_reference_segments,
    resegment,
    stream_laal,
    strip_sentinels,
    write_emission_log,
    write_reference_segments,
)
from simulstream.textnorm import _run

# Hand-derived: p1..p3 = 1, the 4-gram order is skipped (no 4-gram is
# possible in a 3-token hypothesis), brevity penalty exp(1 - 4/3):
# 100 * exp(-1/3).
BLEU_3_VS_4_GOLDEN = 71.65313105737893


def _refs(*segments: tuple[list[str], float, float]) -> list[ReferenceSegment]:
    return [ReferenceSegment(tuple(t), a, b) for t, a, b in segments]


def _record(token: str, t: float, lag: float = 0.0) -> EmissionRecord:
    return EmissionRecord(token, t, t + lag)


# --- latency_stats ------------------------------------------------------------


def test_latency_stats_singleton() -> None:
    stats = latency_stats([5.0])
    assert stats == (5.0, 5.0, 5.0, 5.0, 5.0, 5.0)


def test_latency_stats_on_1_to_100() -> None:
    values = [float(v) for v in range(1, 101)]
    stats = latency_stats(values)
    assert stats.mean_s == pytest.approx(50.5)
    assert stats.median_s == 50.0
    assert stats.p90_s == 90.0
    assert stats.p95_s == 95.0
    assert stats.p99_s == 99.0
    assert stats.max_s == 100.0


def test_latency_stats_mean_is_the_correctly_rounded_sum() -> None:
    # A plain left-to-right sum loses the 1.0; the mean must not depend on
    # the Python version's ``sum``.
    assert latency_stats([1e16, 1.0, -1e16]).mean_s == 1 / 3


def test_latency_stats_is_order_invariant() -> None:
    rng = random.Random(3)
    values = [rng.uniform(-5, 20) for _ in range(37)]
    base = latency_stats(values)
    for _ in range(5):
        rng.shuffle(values)
        assert latency_stats(values) == base


def test_latency_stats_ordering_chain() -> None:
    rng = random.Random(5)
    for _ in range(200):
        values = [rng.uniform(-2, 30) for _ in range(rng.randint(1, 40))]
        s = latency_stats(values)
        assert min(values) <= s.median_s <= s.p90_s <= s.p95_s <= s.p99_s <= s.max_s


def test_latency_stats_matches_sorted_indexing_oracle() -> None:
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 60)
        values = [rng.uniform(0, 10) for _ in range(n)]
        s = latency_stats(values)
        ordered = sorted(values)
        assert s.mean_s == pytest.approx(sum(values) / n)
        assert s.median_s == ordered[(n - 1) // 2]
        for p, got in ((90, s.p90_s), (95, s.p95_s), (99, s.p99_s)):
            rank = math.ceil(p * n / 100)  # safe here: p*n < 2**53
            assert got == ordered[rank - 1]
        assert s.max_s == ordered[-1]


def test_latency_stats_rejects_empty() -> None:
    with pytest.raises(InvalidArgumentError):
        latency_stats([])


# --- resegment ----------------------------------------------------------------


def test_resegment_perfect_concatenation() -> None:
    refs = _refs((["a", "b"], 0.0, 2.0), (["c"], 2.0, 3.0), (["d", "e"], 3.0, 5.0))
    slices = resegment(["a", "b", "c", "d", "e"], refs)
    assert slices == [["a", "b"], ["c"], ["d", "e"]]


def test_resegment_empty_hypothesis() -> None:
    refs = _refs((["a"], 0.0, 1.0), (["b"], 1.0, 2.0), (["c"], 2.0, 3.0))
    assert resegment([], refs) == [[], [], []]


def test_resegment_eight_tokens_two_refs_matches_exhaustive() -> None:
    hyp = ["x", "a", "b", "y", "c", "d", "z", "w"]
    refs = _refs((["a", "b"], 0.0, 1.0), (["c", "d"], 1.0, 2.0))
    slices = resegment(hyp, refs)
    cost = sum(
        oracle_levenshtein(s, r.tokens) for s, r in zip(slices, refs)
    )
    best_cost, best_cuts = oracle_resegment_cost(hyp, [r.tokens for r in refs])
    assert cost == best_cost
    assert [len(s) for s in slices] == [
        best_cuts[i + 1] - best_cuts[i] for i in range(len(refs))
    ]


def test_resegment_partitions_input() -> None:
    rng = random.Random(11)
    for _ in range(100):
        hyp = [rng.choice("abcd") for _ in range(rng.randint(0, 15))]
        m = rng.randint(1, 4)
        bounds = [0.0] + sorted(rng.uniform(0.5, 9.5) for _ in range(m - 1)) + [10.0]
        refs = _refs(
            *(
                ([rng.choice("abcd") for _ in range(rng.randint(0, 4))], bounds[i], bounds[i + 1])
                for i in range(m)
            )
        )
        slices = resegment(hyp, refs)
        assert len(slices) == m
        assert [t for s in slices for t in s] == hyp


def test_resegment_matches_brute_force_on_random_cases() -> None:
    rng = random.Random(13)
    for _ in range(120):
        hyp = [rng.choice("abc") for _ in range(rng.randint(0, 12))]
        m = rng.randint(1, 3)
        token_lists = [
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 5))) for _ in range(m)
        ]
        starts = [float(i) for i in range(m + 1)]
        refs = _refs(*((list(t), starts[i], starts[i + 1]) for i, t in enumerate(token_lists)))
        slices = resegment(hyp, refs)
        got_cost = sum(oracle_levenshtein(s, t) for s, t in zip(slices, token_lists))
        best_cost, best_cuts = oracle_resegment_cost(hyp, token_lists)
        assert got_cost == best_cost
        # Boundaries are free: the optimum is the plain edit distance.
        assert best_cost == oracle_levenshtein(hyp, [t for r in token_lists for t in r])
        got_cuts = [0]
        for s in slices:
            got_cuts.append(got_cuts[-1] + len(s))
        assert got_cuts == best_cuts  # earliest-boundary tie break


def _edited(rng: random.Random, tokens: list[str], edits: int, alphabet: str) -> list[str]:
    """A copy of ``tokens`` with random substitutions, insertions and deletions."""
    out = list(tokens)
    for _ in range(edits):
        kind = rng.randrange(3)
        position = rng.randint(0, len(out))
        if kind == 0:
            out.insert(position, rng.choice(alphabet))
        elif position < len(out):
            if kind == 1:
                del out[position]
            else:
                out[position] = rng.choice(alphabet)
    return out


def _random_refs(rng: random.Random, segments: int, max_len: int, alphabet: str):
    token_lists = [
        [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]
        for _ in range(segments)
    ]
    return _refs(*((t, float(i), float(i + 1)) for i, t in enumerate(token_lists)))


def _split_passes(passes, hyp, refs, slices) -> tuple[list[int], int]:
    """Check the recorded passes of the ``resegment`` call that returned
    ``slices``; return the edit distance of each split box, top box first,
    and the number of levels that split.

    A box between two placed boundaries splits when it has an inner
    boundary and its hypothesis slice differs from its references. Each
    split box makes one pair of passes: the box with the row of its median
    boundary, then both reversed, with the row counted from the other end.
    Each pass holds one entry per diagonal (|a| + |b| + 3), and all passes
    together hold at most 2 (n + sum |ref|) ceil(log2 K) + 6K entries."""
    flat = [t for r in refs for t in r.tokens]
    rows = list(accumulate((len(r.tokens) for r in refs), initial=0))
    cuts = list(accumulate(map(len, slices), initial=0))
    boxes = []
    depth = 0

    def split(k0: int, k1: int, level: int) -> None:
        nonlocal depth
        a, b = hyp[cuts[k0] : cuts[k1]], flat[rows[k0] : rows[k1]]
        if k1 - k0 < 2 or a == b:
            return
        depth = max(depth, level)
        k = (k0 + k1) // 2
        boxes.append((a, b, rows[k] - rows[k0]))
        split(k0, k, level + 1)
        split(k, k1, level + 1)

    split(0, len(refs), 1)
    assert len(passes) % 2 == 0
    forward, backward = passes[::2], passes[1::2]
    assert sorted(box[:3] for box in forward) == sorted(boxes)
    if boxes:
        assert forward[0][:3] == boxes[0]  # the whole input first
    for (a, b, row, distance, entries), back in zip(forward, backward):
        assert back == (a[::-1], b[::-1], len(b) - row, distance, entries)
        assert entries == len(a) + len(b) + 3
    levels = math.ceil(math.log2(len(refs))) if len(refs) > 1 else 0
    total = sum(entries for *_, entries in passes)
    assert total <= 2 * (len(hyp) + len(flat)) * levels + 6 * len(refs)
    return [distance for _, _, _, distance, _ in forward], depth


def _slice_cost(hyp, refs) -> int:
    """The total cost of the full-table split, which is the edit distance of
    ``hyp`` and the joined references: boundaries cost nothing."""
    slices = oracle_resegment(hyp, refs)
    return sum(oracle_levenshtein(s, r.tokens) for s, r in zip(slices, refs))


def test_banded_resegment_matches_full_table_on_near_copies() -> None:
    rng = random.Random(41)
    for _ in range(400):
        alphabet = rng.choice(("ab", "abcd", "abcdefghij"))
        refs = _random_refs(rng, rng.randint(1, 12), 8, alphabet)
        flat = [t for r in refs for t in r.tokens]
        hyp = _edited(rng, flat, rng.randint(0, 25), alphabet + "z")
        assert resegment(hyp, refs) == oracle_resegment(hyp, refs)


def test_resegment_runs_no_pass_for_one_segment_and_one_each_way_for_more(monkeypatch) -> None:
    passes = reach_passes(monkeypatch)
    rng = random.Random(71)
    for _ in range(200):
        refs = _random_refs(rng, rng.randint(1, 4), 6, "abc")
        flat = [t for r in refs for t in r.tokens]
        hyp = _edited(rng, flat, rng.randint(0, 8), "abcz")
        passes.clear()
        slices = resegment(hyp, refs)
        assert slices == oracle_resegment(hyp, refs)
        distances, _ = _split_passes(passes, hyp, refs, slices)
        if len(refs) == 1 or hyp == flat:
            # The one slice is the whole hypothesis, or every cut lies on
            # the diagonal.
            assert passes == []
            continue
        assert distances[0] == oracle_levenshtein(hyp, flat)


def test_resegment_matches_full_table_on_unrelated_hypotheses(monkeypatch) -> None:
    passes = reach_passes(monkeypatch)
    rng = random.Random(43)
    for _ in range(150):
        refs = _random_refs(rng, rng.randint(3, 10), 8, "abc")
        total = sum(len(r.tokens) for r in refs)
        hyp = [rng.choice("xyz") for _ in range(total + rng.randint(-3, 3))]
        passes.clear()
        slices = resegment(hyp, refs)
        assert slices == oracle_resegment(hyp, refs)
        distances, _ = _split_passes(passes, hyp, refs, slices)
        # Nothing matches, so the optimum costs max(n, total) edits.
        distance = max(len(hyp), total)
        assert oracle_levenshtein(hyp, [t for r in refs for t in r.tokens]) == distance
        assert distances[0] == distance


def test_banded_resegment_matches_full_table_on_heavy_edits() -> None:
    rng = random.Random(59)
    for _ in range(200):
        alphabet = rng.choice(("abcd", "abcdefghijklmnop"))
        refs = _random_refs(rng, rng.randint(4, 20), 10, alphabet)
        flat = [t for r in refs for t in r.tokens]
        edits = round(len(flat) * rng.uniform(0.3, 0.6))
        hyp = _edited(rng, flat, edits, alphabet + "z")
        assert resegment(hyp, refs) == oracle_resegment(hyp, refs)


def _long_refs(rng: random.Random, alphabet: str, segments: int = 180):
    token_lists = [
        [rng.choice(alphabet) for _ in range(rng.randint(3, 8))] for _ in range(segments)
    ]
    return _refs(*((t, float(i), float(i + 1)) for i, t in enumerate(token_lists)))


def test_resegment_matches_full_table_on_an_unrelated_long_stream(monkeypatch) -> None:
    passes = reach_passes(monkeypatch)
    refs = _long_refs(random.Random(61), "abcdefghijklmnop")
    total = sum(len(r.tokens) for r in refs)
    hyp = ["z"] * total
    slices = resegment(hyp, refs)
    assert slices == oracle_resegment(hyp, refs)
    # Every token is substituted; every box is split, down to single
    # segments, within the linear bound.
    assert _slice_cost(hyp, refs) == total
    distances, _ = _split_passes(passes, hyp, refs, slices)
    assert distances[0] == total
    assert len(distances) == len(refs) - 1


def test_resegment_pays_per_edit_for_a_long_stretch_off_the_diagonal(monkeypatch) -> None:
    passes = reach_passes(monkeypatch)
    refs = _long_refs(random.Random(67), "abcdefghijklmnop")
    flat = [t for r in refs for t in r.tokens]
    # Ten tokens inserted near the start and ten deleted near the end: the
    # optimal path runs ten cells off the diagonal for most of the grid,
    # where equal tokens are skipped in runs, and every box between the two
    # edits holds a slice equal to its references.
    a, b = len(flat) // 10, 9 * len(flat) // 10
    hyp = flat[:a] + ["z"] * 10 + flat[a:b] + flat[b + 10 :]
    slices = resegment(hyp, refs)
    assert slices == oracle_resegment(hyp, refs)
    distances, _ = _split_passes(passes, hyp, refs, slices)
    distance = _slice_cost(hyp, refs)
    assert distance <= 20
    assert distances[0] == distance
    # Only boxes that hold an edit split: at most two edited spots per
    # level, each of which may straddle a boundary.
    assert len(distances) <= 4 * math.ceil(math.log2(len(refs)))
    assert sum(distances) <= distance * math.ceil(math.log2(len(refs)))


def test_banded_resegment_keeps_an_optimal_path_on_the_band_edge() -> None:
    # Every split of b^w a^w against (a^w, b^w) costs 2w. The earliest one
    # leaves the first slice empty, and its path deletes all of a^w before
    # it matches: it runs w diagonals off the main one.
    for width in (4, 8):
        refs = _refs((["a"] * width, 0.0, 1.0), (["b"] * width, 1.0, 2.0))
        hyp = ["b"] * width + ["a"] * width
        assert resegment(hyp, refs) == oracle_resegment(hyp, refs) == [[], hyp]


def test_banded_resegment_handles_empty_sides_and_skewed_lengths() -> None:
    rng = random.Random(47)
    for _ in range(200):
        refs = _random_refs(rng, rng.randint(1, 8), 4, "abc")
        flat = [t for r in refs for t in r.tokens]
        shape = rng.randrange(4)
        if shape == 0:  # empty hypothesis
            hyp: list[str] = []
        elif shape == 1:  # hypothesis far longer than the references
            hyp = [rng.choice("abcz") for _ in range(len(flat) * 4 + rng.randint(5, 40))]
        elif shape == 2:  # hypothesis far shorter than the references
            hyp = [t for t in flat if rng.random() < 0.15]
        else:  # repeated copies of the references
            hyp = _edited(rng, flat * rng.randint(2, 5), rng.randint(0, 6), "abcz")
        assert resegment(hyp, refs) == oracle_resegment(hyp, refs)
    only_empty = _refs(([], 0.0, 1.0), ([], 1.0, 2.0), ([], 2.0, 3.0))
    for hyp in ([], ["a"], ["a", "b", "c", "d"]):
        assert resegment(hyp, only_empty) == oracle_resegment(hyp, only_empty)


def test_resegment_holds_linear_entries_per_pass_on_a_long_stream(monkeypatch) -> None:
    passes = reach_passes(monkeypatch)
    rng = random.Random(53)
    token_lists = [
        [rng.choice("abcdefghijklmnop") for _ in range(rng.randint(3, 8))]
        for _ in range(180)
    ]
    refs = _refs(*((t, float(i), float(i + 1)) for i, t in enumerate(token_lists)))
    flat = [t for r in refs for t in r.tokens]
    assert 900 <= len(flat) <= 1100
    hyp = _edited(rng, flat, 40, "abcdefghijklmnopz")
    slices = resegment(hyp, refs)
    assert slices == oracle_resegment(hyp, refs)
    distances, _ = _split_passes(passes, hyp, refs, slices)
    distance = _slice_cost(hyp, refs)
    assert 0 < distance <= 40
    assert distances[0] == distance


def test_resegment_holds_linear_entries_on_an_unrelated_stream(monkeypatch) -> None:
    # About 500 tokens against references they share nothing with: D is
    # the length, so waves kept whole would hold about D^2 = 250,000 entries
    # a pass; the passes of each level together hold 2 (n + sum |ref|).
    passes = reach_passes(monkeypatch)
    refs = _long_refs(random.Random(83), "abcdefghijklmnop", 90)
    total = sum(len(r.tokens) for r in refs)
    assert 400 <= total <= 600
    hyp = [f"z{i % 7}" for i in range(total + 13)]
    slices = resegment(hyp, refs)
    assert [t for s in slices for t in s] == hyp
    distances, _ = _split_passes(passes, hyp, refs, slices)
    assert distances[0] == len(hyp)
    entries = sum(entries for *_, entries in passes)
    levels = math.ceil(math.log2(len(refs)))
    assert entries <= 2 * (len(hyp) + total) * levels + 6 * len(refs) < (len(hyp) + 1) ** 2 // 8


@pytest.mark.parametrize("segments", [180, 2900], ids=["1k_tokens", "16k_tokens"])
def test_resegment_runs_no_pass_on_a_clean_stream(monkeypatch, segments) -> None:
    passes = reach_passes(monkeypatch)
    refs = _long_refs(random.Random(73), "abcdefghijklmnop", segments)
    flat = [t for r in refs for t in r.tokens]
    assert resegment(flat, refs) == [list(r.tokens) for r in refs]
    assert passes == []


def test_resegment_matches_full_table_at_depth_with_tied_boundaries(monkeypatch) -> None:
    # 20 to 40 segments, so the halving can run five or six levels deep,
    # over vocabularies of one to three tokens, where optimal boundaries tie.
    passes = reach_passes(monkeypatch)
    rng = random.Random(89)
    depths = []
    for case in range(120):
        alphabet = "abc"[: rng.randint(1, 3)]
        refs = _random_refs(rng, rng.randint(20, 40), 5, alphabet)
        flat = [t for r in refs for t in r.tokens]
        if case % 4 == 0:  # unrelated
            hyp = [rng.choice("xy") for _ in range(len(flat) + rng.randint(-5, 5))]
        else:
            edits = round(len(flat) * rng.uniform(0.3, 0.6))
            hyp = _edited(rng, flat, edits, alphabet + "z")
        passes.clear()
        slices = resegment(hyp, refs)
        assert slices == oracle_resegment(hyp, refs)
        depths.append(_split_passes(passes, hyp, refs, slices)[1])
    assert min(depths[::4]) >= 5  # unrelated: every level splits
    assert sum(depth >= 5 for depth in depths) >= 60


def test_run_matches_a_token_by_token_loop() -> None:
    rng = random.Random(79)
    seen = set()
    for _ in range(100):
        a = [rng.choice("ab") for _ in range(rng.randint(0, 40))]
        b = _edited(rng, a, rng.randint(0, 3), "abz")
        for i in range(len(a) + 1):
            for k in range(len(b) + 1):
                run = 0
                while i + run < len(a) and k + run < len(b) and a[i + run] == b[k + run]:
                    run += 1
                assert _run(a, i, b, k) == run
                seen.add((run, i + run == len(a), k + run == len(b)))
    # Runs of lengths that are not powers of two, stopped by a mismatch
    # and by the end of either list.
    for ends in ((False, False), (True, False), (False, True), (True, True)):
        assert {run for run, *at_end in seen if tuple(at_end) == ends} >= {3, 5, 6, 7, 9, 11}


def test_resegment_rejects_tokens_without_segments() -> None:
    with pytest.raises(InvalidArgumentError):
        resegment(["a"], [])
    assert resegment([], []) == []


# --- corpus_bleu --------------------------------------------------------------


def test_bleu_perfect_match_is_100() -> None:
    segments = [["the", "cat"], ["sat", "down", "today"]]
    assert corpus_bleu(segments, segments) == pytest.approx(100.0, abs=1e-9)


def test_bleu_empty_hypothesis_is_0() -> None:
    refs = [["a", "b"], ["c"]]
    assert corpus_bleu([[], []], refs) == 0.0


def test_bleu_hand_computed_golden() -> None:
    value = corpus_bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    assert value == pytest.approx(BLEU_3_VS_4_GOLDEN, abs=1e-9)


def test_bleu_invariant_under_pairwise_permutation() -> None:
    rng = random.Random(17)
    hyps = [[rng.choice("abcd") for _ in range(rng.randint(1, 6))] for _ in range(8)]
    refs = [[rng.choice("abcd") for _ in range(rng.randint(1, 6))] for _ in range(8)]
    base = corpus_bleu(hyps, refs)
    order = list(range(8))
    rng.shuffle(order)
    assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == pytest.approx(base)


def test_bleu_100_iff_exact_everywhere() -> None:
    hyps = [["a", "b"], ["c"]]
    refs = [["a", "b"], ["d"]]
    assert corpus_bleu(hyps, refs) < 100.0
    assert corpus_bleu(hyps, hyps) == pytest.approx(100.0)


def test_bleu_segment_count_mismatch_rejected() -> None:
    with pytest.raises(InvalidArgumentError):
        corpus_bleu([["a"]], [["a"], ["b"]])


def _bleu_segments(rng: random.Random) -> tuple[list[list[str]], list[list[str]]]:
    """A seeded set of hypothesis and reference segments for BLEU.

    The vocabulary is small, so n-grams repeat inside a segment and
    clipping applies; some tokens carry punctuation. Each pair is one of:
    identical, an empty hypothesis, a hypothesis under 4 tokens, a copy
    with a few tokens edited, or two unrelated lengths (either side may be
    much the longer).
    """
    vocab = ["a", "b", "c", "d", "e", "a,", "b.", "«c»", "—"]

    def segment(most: int) -> list[str]:
        return [rng.choice(vocab) for _ in range(rng.randint(1, most))]

    hyps, refs = [], []
    for _ in range(rng.randint(1, 8)):
        ref = segment(12)
        kind = rng.randrange(5)
        if kind == 0:
            hyp = list(ref)
        elif kind == 1:
            hyp = []
        elif kind == 2:
            hyp = segment(3)
        elif kind == 3:
            hyp = [rng.choice(vocab) if rng.random() < 0.3 else t for t in ref]
        else:
            hyp, ref = segment(rng.choice([2, 20])), segment(rng.choice([2, 20]))
        hyps.append(hyp)
        refs.append(ref)
    return hyps, refs


def test_bleu_equals_the_oracle_exactly_over_seeded_segments() -> None:
    rng = random.Random(14)
    scores = set()
    for _ in range(400):
        hyps, refs = _bleu_segments(rng)
        value = corpus_bleu(hyps, refs)
        assert value == oracle_corpus_bleu(hyps, refs), (hyps, refs)
        scores.add(value)
    # The segment sets reach 0, 100 and the smoothed orders between.
    assert 0.0 in scores and 100.0 in scores and len(scores) > 300


def test_evaluate_splits_tokens_as_the_oracle_tokenizer_does(monkeypatch) -> None:
    seen = []

    def record(hyps, refs):
        seen.append((hyps, refs))
        return oracle_corpus_bleu(hyps, refs)

    monkeypatch.setattr(metrics, "corpus_bleu", record)
    rng = random.Random(15)
    words = ["der", "hund,", "«die»", "katze.", "—", "...", "x!y"]
    for _ in range(50):
        refs, log, start = [], [], 0.0
        for _ in range(rng.randint(1, 5)):
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 6))]
            refs.append(ReferenceSegment(tuple(tokens), start, start + 2.0))
            emitted = [t for t in tokens if rng.random() < 0.8] + [rng.choice(words)]
            log += [_record(t, start + 1.0) for t in emitted]
            log.append(_record(SENTINEL, start + 1.0))
            start += 2.0
        evaluate(log, refs)
        slices = resegment(strip_sentinels(r.token for r in log), refs)
        hyps, ref_tokens = seen.pop()
        assert hyps == [oracle_bleu_tokenize(s) for s in slices]
        assert ref_tokens == [oracle_bleu_tokenize(r.tokens) for r in refs]


def test_bleu_tokenize_splits_edge_punctuation() -> None:
    assert bleu_tokenize(["cat,"]) == ["cat", ","]
    assert bleu_tokenize(["«Hi»!"]) == ["«", "Hi", "»", "!"]
    assert bleu_tokenize(["—"]) == ["—"]
    assert bleu_tokenize(["plain"]) == ["plain"]


# --- stream_laal --------------------------------------------------------------


def test_latency_report_json_lists_the_values_in_segment_order() -> None:
    log = [_record("a", 1.0), _record("b", 2.5)]
    refs = _refs((["a"], 0.0, 1.0), (["b"], 1.0, 2.0))
    report = evaluate(log, refs)
    assert json.dumps(report["nca"]) == (
        '{"mean_s": 1.25, "median_s": 1.0, "p90_s": 1.5, "p95_s": 1.5, '
        '"p99_s": 1.5, "max_s": 1.5, "per_segment": [1.0, 1.5]}'
    )
    assert json.loads(json.dumps(report)) == report


def test_laal_token_per_second_case() -> None:
    refs = _refs((["t1", "t2", "t3", "t4"], 0.0, 4.0))
    log = [_record(f"t{i}", float(i)) for i in range(1, 5)]
    report, _ = stream_laal(log, refs, [["t1", "t2", "t3", "t4"]])
    assert report.mean_s == pytest.approx(1.0)
    assert report.per_segment == [pytest.approx(1.0)]


def test_laal_all_tokens_at_zero_closed_form() -> None:
    refs = _refs((["t1", "t2", "t3", "t4"], 0.0, 4.0))
    log = [_record(f"t{i}", 0.0) for i in range(1, 5)]
    report, _ = stream_laal(log, refs, [["t1", "t2", "t3", "t4"]])
    # -(T/y) * (tau - 1)/2 with tau = y = 4, T = 4
    assert report.mean_s == pytest.approx(-1.5)


def test_laal_ca_equals_nca_when_times_agree() -> None:
    refs = _refs((["a", "b"], 0.0, 2.0), (["c"], 2.0, 3.0))
    log = [_record("a", 0.5), _record("b", 1.0), _record("c", 2.5)]
    segs = [["a", "b"], ["c"]]
    nca, ca = stream_laal(log, refs, segs)
    assert nca == ca


def test_laal_ca_dominates_with_compute_lag() -> None:
    refs = _refs((["a", "b"], 0.0, 2.0), (["c", "d"], 2.0, 5.0))
    log = [
        _record("a", 0.5, lag=0.3),
        _record("b", 1.0, lag=0.4),
        _record("c", 2.5, lag=0.2),
        _record("d", 4.0, lag=0.8),
    ]
    segs = [["a", "b"], ["c", "d"]]
    nca, ca = stream_laal(log, refs, segs)
    assert ca.mean_s >= nca.mean_s
    for n, c in zip(nca.per_segment, ca.per_segment):
        assert c >= n


def test_laal_empty_segment_scores_full_span() -> None:
    refs = _refs((["a"], 0.0, 2.0), (["b", "c"], 2.0, 6.0))
    log = [_record("a", 1.0)]
    nca, ca = stream_laal(log, refs, [["a"], []])
    assert nca.per_segment[1] == ca.per_segment[1] == 6.0 - 2.0


def test_laal_sentinels_are_ignored_in_the_log() -> None:
    refs = _refs((["a"], 0.0, 1.0),)
    log = [_record("a", 0.5), _record(SENTINEL, 0.5)]
    report, _ = stream_laal(log, refs, [["a"]])
    assert report.mean_s == pytest.approx(0.5)


def test_laal_matches_brute_force_on_random_logs() -> None:
    # Both clocks come from one walk over the segments; each lag must be
    # the oracle's to the last bit.
    rng = random.Random(19)
    kinds = Counter()
    for _ in range(100):
        m = rng.randint(1, 5)
        refs = []
        t = 0.0
        for _ in range(m):
            span = rng.uniform(0.5, 5.0)
            tokens = [f"r{rng.randrange(5)}" for _ in range(rng.randint(1, 6))]
            refs.append(ReferenceSegment(tuple(tokens), t, t + span))
            t += span
        segments = []
        log = []
        for i, ref in enumerate(refs):
            y = rng.randint(0, 5)
            base = ref.source_start_s
            times = sorted(rng.uniform(base, base + 8.0) for _ in range(y))
            tokens = [f"h{j}" for j in range(y)]
            segments.append(tokens)
            for tok, time in zip(tokens, times):
                log.append(EmissionRecord(tok, time, time + rng.uniform(0, 1)))
        nca, ca = stream_laal(log, refs, segments)
        cursor = 0
        for i, (ref, seg) in enumerate(zip(refs, segments)):
            emitted = log[cursor : cursor + len(seg)]
            cursor += len(seg)
            for report, times in (
                (nca, [r.nca_time_s for r in emitted]),
                (ca, [r.ca_time_s for r in emitted]),
            ):
                delays = [t - ref.source_start_s for t in times]
                assert report.per_segment[i] == oracle_laal(delays, ref.duration_s, len(ref.tokens))
                reached = [d >= ref.duration_s for d in delays]
                if not delays:
                    kinds["empty"] += 1
                elif True in reached[:-1]:
                    kinds["tau < y"] += 1
                elif True not in reached:
                    kinds["never reached"] += 1
    # Empty segments, a cut before the last token and no cut at all, each often.
    assert min(kinds.values()) > 25 and len(kinds) == 3, kinds


def test_laal_validates_log_alignment() -> None:
    refs = _refs((["a"], 0.0, 1.0),)
    log = [_record("a", 0.5)]
    with pytest.raises(InvalidArgumentError):
        stream_laal(log, refs, [["b"]])
    with pytest.raises(InvalidArgumentError):
        stream_laal(log, refs, [["a"], ["b"]])
    with pytest.raises(InvalidArgumentError, match="^stream_laal needs at least one segment$"):
        stream_laal([], [], [])


# --- file round-trips and the report ------------------------------------------


def test_emission_log_roundtrip(tmp_path) -> None:
    log = [
        EmissionRecord("hallo", 1.25, 1.5),
        EmissionRecord(SENTINEL, 1.25, 1.5),
        EmissionRecord("welt", 2.0, 2.75),
        # Canonical JSON writes these raw; a line must not end at them.
        EmissionRecord("a\u2028b\x85c", 2.0, 2.75),
    ]
    path = tmp_path / "log.jsonl"
    write_emission_log(log, path)
    assert read_emission_log(path) == log
    # byte stability under rewrite
    first = path.read_bytes()
    write_emission_log(read_emission_log(path), path)
    assert path.read_bytes() == first
    # One writer: ``simulate`` calls the core function that ``metrics`` names.
    assert write_emission_log is core.write_emission_log


def test_reference_roundtrip_and_ordering(tmp_path) -> None:
    refs = _refs((["a"], 0.0, 1.0), (["b"], 1.0, 2.5))
    path = tmp_path / "refs.jsonl"
    write_reference_segments(refs, path)
    assert read_reference_segments(path) == refs
    bad = _refs((["a"], 0.0, 2.0), (["b"], 1.0, 2.5))
    write_reference_segments(bad, path)
    with pytest.raises(InvalidArgumentError):
        read_reference_segments(path)


@pytest.mark.parametrize(
    "token, problem",
    [(SENTINEL, "the reserved sentinel"), ("", "bad word ''"), ("a b", "bad word 'a b'")],
    ids=["sentinel", "empty", "spaced"],
)
def test_reference_tokens_follow_the_word_rule(tmp_path, token, problem) -> None:
    with pytest.raises(InvalidArgumentError, match=f"^reference token: {problem}"):
        ReferenceSegment(("a", token), 0.0, 1.0)
    path = tmp_path / "refs.jsonl"
    write_reference_segments(_refs((["a"], 0.0, 1.0)), path)
    line = json.dumps({"tokens": ["a", token], "source_start_s": 1.0, "source_end_s": 2.0})
    with path.open("a", encoding="utf-8") as f:
        f.write(line + "\n")
    with pytest.raises(InvalidArgumentError, match=f"refs.jsonl:2: reference token: {problem}"):
        read_reference_segments(path)


def test_read_emission_log_reports_line_numbers(tmp_path) -> None:
    path = tmp_path / "log.jsonl"
    path.write_text('{"token": "x"}\n', encoding="utf-8")
    with pytest.raises(InvalidArgumentError, match=":1:"):
        read_emission_log(path)


@pytest.mark.parametrize(
    "read, line, named",
    [
        (read_emission_log, {"token": ["x" * 100_000]}, "field 'token' must be a string"),
        (read_reference_segments, {"tokens": "y" * 100_000}, "field 'tokens' must be a list"),
    ],
    ids=["log", "refs"],
)
def test_readers_quote_only_an_excerpt_of_a_huge_field(tmp_path, read, line, named) -> None:
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError) as info:
        read(path)
    message = str(info.value)
    assert "input.jsonl:1: " in message and named in message
    assert len(message) < 500


def test_evaluate_report_shape(monkeypatch) -> None:
    refs = _refs((["der", "hund"], 0.0, 2.0), (["die", "katze"], 2.0, 4.0))
    log = [
        _record("der", 0.8),
        _record("hund", 1.5),
        _record(SENTINEL, 1.5),
        _record("die", 2.9),
        _record("katze", 3.5),
    ]
    calls = []

    def spy(*args):
        calls.append(args)
        return stream_laal(*args)

    monkeypatch.setattr(metrics, "stream_laal", spy)
    report = evaluate(log, refs)
    assert len(calls) == 1  # one call scores both clocks
    assert report["bleu"] == pytest.approx(100.0)
    assert report["empty_segments"] == 0
    assert report["segments"] == 2
    assert report["nca"]["mean_s"] <= report["ca"]["mean_s"]
    assert isinstance(report["nca"], dict)
    assert type(report["ca"]["per_segment"]) is list


def test_strip_sentinels() -> None:
    assert strip_sentinels(["a", SENTINEL, "b"]) == ["a", "b"]
