"""Shared builders and independent oracles for the test suite.

The oracles here deliberately take different algorithmic routes from the
library (recursive memoized edit distance, linear-search vote thresholds,
exhaustive boundary enumeration) so agreement between the two is evidence,
not tautology.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import unicodedata
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from simulstream.backends import (
    _EXTENT_SLACK_S,
    AsrRequest,
    AsrResponse,
    AsrScript,
    MtRequest,
    MtResponse,
    MtScript,
    _perturb_word,
)
from simulstream.core import (
    SENTINEL,
    AsrHypothesis,
    BackendError,
    BeamHypothesis,
    BeamSet,
    InvalidArgumentError,
    ProtocolError,
    TimedWord,
    json_object,
    record_fields,
)
from simulstream import metrics
from simulstream.metrics import ReferenceSegment
from simulstream.pipeline import TraceEvent
from simulstream.textnorm import has_terminal_mark

_INF = float("inf")


# --- oracles ------------------------------------------------------------------


def oracle_levenshtein(a, b) -> int:
    """Recursive edit distance (memoized), independent of the row DP."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            rec(i + 1, j) + 1,
            rec(i, j + 1) + 1,
            rec(i + 1, j + 1) + (a[i] != b[j]),
        )

    result = rec(0, 0)
    rec.cache_clear()
    return result


def oracle_votes_needed(ratio: float, pool: int) -> int:
    """Smallest vote count reaching ``ratio`` of ``pool``, found by linear
    search over exact fractions."""
    needed = 0
    target = Fraction(ratio) * pool
    while needed < target:
        needed += 1
    return needed


def oracle_read_jsonl(path, parse) -> list:
    """The line-by-line JSONL reader the library's ``read_jsonl`` replaced:
    each non-blank line decoded from UTF-8 and read by ``json_object`` on
    its own."""
    parsed = []
    lineno = 0
    try:
        for lineno, line in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
            if line.strip():
                parsed.append(parse(json_object(line.decode("utf-8"))))
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}:{lineno}: {exc}") from exc
    return parsed


def oracle_canonical_json(obj) -> str:
    """Canonical JSON through the standard ``JSONEncoder.encode``, with
    records written by ``record_fields``."""
    return json.JSONEncoder(
        ensure_ascii=False, sort_keys=True, separators=(",", ":"), default=record_fields
    ).encode(obj)


def oracle_ralcp(beams: BeamSet, committed: int, ratio: float, pool: int) -> list[str]:
    """Brute-force beam vote simulator.

    Unlike the library, it first removes beams with nothing beyond the
    committed prefix, so agreement shows that the removal never changes a
    vote under the fixed bar.
    """
    voters = [list(b.tokens) for b in beams.beams if len(b.tokens) > committed]
    needed = oracle_votes_needed(ratio, pool)
    out: list[str] = []
    p = committed
    while True:
        at_p = [t[p] for t in voters if len(t) > p]
        if not at_p:
            break
        best = None
        for cand in dict.fromkeys(at_p):  # first-seen order = best score order
            if best is None or at_p.count(cand) > at_p.count(best):
                best = cand
        if at_p.count(best) < needed:
            break
        out.append(best)
        p += 1
        if best == SENTINEL:
            break
    return out


def oracle_validated(counters, beams: BeamSet, request: MtRequest) -> BeamSet:
    """The MT controller's reply checks as one walk over the beams.

    The library walks the beams the same way but checks each cut tuple the
    beams share once; this walk checks every beam's cuts item by item, and
    is the reference it is judged against.
    Beams that rewrite history are counted in ``counters.dropped_beams``.
    The reply's own beam set comes back when every beam is kept.
    """
    if len(beams.beams) > request.beam_size:
        raise ProtocolError(f"{len(beams.beams)} beams exceed beam_size {request.beam_size}")
    active_len = len(request.active_source)
    committed = request.committed_target
    kept = []
    for b, beam in enumerate(beams.beams):
        if any(type(cut) is not int for cut in beam.cuts):
            raise ProtocolError(f"beam {b} has a cut that is not an integer: {list(beam.cuts)}")
        if beam.cuts and not (0 <= min(beam.cuts) and max(beam.cuts) < active_len):
            raise ProtocolError(
                f"beam {b} has a cut outside the {active_len} active source "
                f"words: {list(beam.cuts)}"
            )
        if len(beam.tokens) > len(committed) and beam.tokens[: len(committed)] != committed:
            counters.dropped_beams += 1
            continue
        kept.append(beam)
    return beams if len(kept) == len(beams.beams) else BeamSet(tuple(kept))


def oracle_resegment_cost(hyp: list[str], ref_token_lists: list[tuple[str, ...]]):
    """Exhaustive minimum over all boundary placements.

    Returns (cost, boundaries) for the lexicographically first optimal
    boundary tuple (inner boundaries only).
    """
    n = len(hyp)
    m = len(ref_token_lists)
    best_cost = None
    best_bounds = None
    for bounds in itertools.combinations_with_replacement(range(n + 1), m - 1):
        cuts = [0, *bounds, n]
        cost = 0
        for k in range(m):
            cost += oracle_levenshtein(hyp[cuts[k] : cuts[k + 1]], ref_token_lists[k])
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_bounds = cuts
    return best_cost, best_bounds


def oracle_resegment(
    hyp_tokens: Sequence[str], refs: Sequence[ReferenceSegment]
) -> list[list[str]]:
    """Full-table resegmentation: the suffix table over the whole grid, then a
    forward greedy walk that grows an edit-distance row per segment.

    The library places the boundaries by halving instead, one prefix and
    one suffix pass along diagonals per median boundary, in linear space;
    this route, which holds the whole table, is kept as the reference it is
    judged against.

    Splits the hypothesis into one contiguous slice per reference segment.
    Boundaries minimize the total word-level edit distance between each
    slice and its reference (dynamic programming over hypothesis position
    and reference token position); among optimal placements the earliest
    boundaries win. Sentinels must already be stripped from ``hyp_tokens``.
    """
    hyp = list(hyp_tokens)
    n = len(hyp)
    m = len(refs)
    if m == 0:
        if hyp:
            raise InvalidArgumentError("cannot resegment tokens against zero segments")
        return []

    # suffix[k][j]: minimum total cost of aligning hyp[j:] with segments k..m-1.
    # Computed per segment as a layered edit-distance DP over (ref position t,
    # hyp position j); once a segment's reference is fully consumed (t == len)
    # the slice may still absorb hyp tokens at insertion cost before the free
    # handoff to the next segment.
    suffix: list[list[float]] = [[_INF] * (n + 1) for _ in range(m + 1)]
    suffix[m][n] = 0.0
    for k in range(m - 1, -1, -1):
        ref = refs[k].tokens
        next_layer = suffix[k + 1]
        row = [_INF] * (n + 1)
        for j in range(n, -1, -1):
            best = next_layer[j]
            if j < n and row[j + 1] + 1 < best:
                best = row[j + 1] + 1
            row[j] = best
        for t in range(len(ref) - 1, -1, -1):
            prev_row = row
            row = [_INF] * (n + 1)
            for j in range(n, -1, -1):
                best = prev_row[j] + 1  # delete ref token t
                if j < n:
                    if row[j + 1] + 1 < best:  # insert hyp token j
                        best = row[j + 1] + 1
                    step = prev_row[j + 1] + (hyp[j] != ref[t])
                    if step < best:
                        best = step
                row[j] = best
        suffix[k] = row

    if math.isinf(suffix[0][0]):
        raise InvalidArgumentError("resegmentation found no feasible split")

    # Forward greedy walk: for each segment take the earliest end position
    # that still achieves the optimal total cost, growing an incremental
    # edit-distance row dist[t] = edit(hyp[start:j], ref[:t]).
    slices: list[list[str]] = []
    start = 0
    for k in range(m):
        ref = refs[k].tokens
        target = suffix[k][start]
        dist = list(range(len(ref) + 1))
        end = None
        j = start
        while True:
            if dist[len(ref)] + suffix[k + 1][j] == target:
                end = j
                break
            if j == n:
                break
            new = [dist[0] + 1] + [0] * len(ref)
            for t in range(1, len(ref) + 1):
                new[t] = min(
                    dist[t] + 1,
                    new[t - 1] + 1,
                    dist[t - 1] + (hyp[j] != ref[t - 1]),
                )
            dist = new
            j += 1
        if end is None:
            raise InvalidArgumentError("resegmentation walk diverged from DP table")
        slices.append(hyp[start:end])
        start = end
    return slices


def reach_passes(monkeypatch) -> list[tuple[list[str], list[str], int, int, int]]:
    """Record the two token lists, the row, the edit distance D and the
    number of entries in the row of first hits of every furthest-reaching
    pass ``metrics.resegment`` makes."""
    passes: list[tuple[list[str], list[str], int, int, int]] = []
    waves = metrics._waves

    def spy(a, b, row):
        distance, hits = waves(a, b, row)
        passes.append((list(a), list(b), row, distance, len(hits)))
        return distance, hits

    monkeypatch.setattr(metrics, "_waves", spy)
    return passes


def _oracle_ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def oracle_corpus_bleu(
    hyp_segments: Sequence[Sequence[str]],
    ref_segments: Sequence[Sequence[str]],
    max_order: int = 4,
) -> float:
    """The scorer's BLEU as first written: every segment's n-grams counted
    one tuple at a time and clipped with ``Counter.__and__``.

    Corpus-level BLEU in [0, 100] with exponential smoothing.
    N-gram counts are pooled across segments. An order with zero matches
    but a nonzero denominator contributes 1 / (2^z * possible) where z
    counts the zero orders seen so far (the classic exponential fallback);
    an order where no n-gram was possible at all (hypothesis shorter than
    the order everywhere) is skipped, so a perfect match scores exactly 100
    whatever the segment lengths. The brevity penalty uses pooled lengths.
    Empty hypothesis segments contribute zero matches and full reference
    length.
    """
    if len(hyp_segments) != len(ref_segments):
        raise InvalidArgumentError(
            f"segment count mismatch: {len(hyp_segments)} hypothesis vs "
            f"{len(ref_segments)} reference"
        )
    matches = [0] * max_order
    possible = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyp_segments, ref_segments):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for order in range(1, max_order + 1):
            if len(hyp) < order:
                continue
            overlap = _oracle_ngram_counts(hyp, order) & _oracle_ngram_counts(ref, order)
            matches[order - 1] += sum(overlap.values())
            possible[order - 1] += len(hyp) - order + 1
    if hyp_len == 0:
        return 0.0
    smooth = 1.0
    logs = []
    for order in range(max_order):
        if possible[order] == 0:
            continue
        if matches[order] == 0:
            smooth *= 2.0
            precision = 1.0 / (smooth * possible[order])
        else:
            precision = matches[order] / possible[order]
        logs.append(math.log(precision))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(math.fsum(logs) / len(logs))


def oracle_bleu_tokenize(tokens: Iterable[str]) -> list[str]:
    """The scorer's tokenizer as first written, with its own punctuation test.

    Simplified scoring tokenizer: split off leading/trailing punctuation.
    "cat," becomes ["cat", ","]; an all-punctuation token stays whole.
    """
    out: list[str] = []
    for token in tokens:
        head = 0
        tail = len(token)
        while head < tail and unicodedata.category(token[head]).startswith("P"):
            head += 1
        while tail > head and unicodedata.category(token[tail - 1]).startswith("P"):
            tail -= 1
        if head == tail:
            out.append(token)
            continue
        out.extend(token[:head])
        out.append(token[head:tail])
        out.extend(token[tail:])
    return out


def oracle_laal(delays: list[float], span: float, ref_len: int) -> float:
    """Straight transcription of the per-segment lagging formula."""
    y = len(delays)
    if y == 0:
        return span
    tau = y
    for i in range(1, y + 1):
        if delays[i - 1] >= span:
            tau = i
            break
    denom = max(y, ref_len)
    return math.fsum(delays[i - 1] - (i - 1) * span / denom for i in range(1, tau + 1)) / tau


def oracle_asr_decode(script: AsrScript, request: AsrRequest) -> AsrResponse:
    """The mock ASR decode as a scan over every script word, in script
    order; a window that ends at the audio's end perturbs no word.

    The unstable words draw, in script order, from one RNG seeded from the
    script seed and the window: its start and its end clipped to the audio.
    """
    start, end = request.window_start_s, request.window_end_s
    if start < 0 or start > end:
        raise InvalidArgumentError(f"window [{start}, {end}] needs 0 <= start <= end")
    if end > script.audio_duration_s + _EXTENT_SLACK_S:
        raise BackendError(
            f"window [{start}, {end}] outside audio extent "
            f"[0, {script.audio_duration_s}]"
        )
    end = min(end, script.audio_duration_s)
    at_end = end == script.audio_duration_s  # no later audio: nothing unstable
    # Seeded whatever the window: a decode with no unstable word draws
    # nothing from it.
    rng = random.Random(f"{script.seed}:asr:{start!r}:{end!r}")
    words = []
    for w in script.words:
        if w.start_s < start or w.end_s > end:
            continue
        text = w.text
        if not at_end and w.end_s > end - script.stabilization_delay_s:
            text = _perturb_word(w.text, rng)
        words.append(TimedWord(text, w.start_s, w.end_s))
    cost = script.cost_base_s + script.cost_per_audio_s * (end - start)
    return AsrResponse(AsrHypothesis(tuple(words)), cost)


def _oracle_mt_beams(script: MtScript, request: MtRequest) -> list[tuple[list[str], list[int]]]:
    """Each beam's tokens and the source position each token translates.

    One RNG per request, seeded whatever the script from the script seed
    and the fields the reply is computed from (the active source, the
    committed target and the beam size, as a canonical JSON list), and
    beams 2..N draw from it in order: a truncation when
    ``tail_truncate_max`` is set, then a perturbation draw while the tail is
    not empty. A perturbed token ``X`` of beam b becomes ``X~b``, unless it
    is the sentinel.
    """
    active = list(request.active_source)
    full_tokens: list[str] = []
    positions: list[int] = []
    for i, word in enumerate(active):
        full_tokens.append(script.map_word(word))
        positions.append(i)
        if has_terminal_mark(word):
            full_tokens.append(SENTINEL)
            positions.append(i)

    committed = list(request.committed_target)
    continuation = full_tokens[len(committed) :]
    # Committed tokens beyond this translation cut at the last active word.
    positions += [len(active) - 1] * (len(committed) - len(positions))
    keyed_by = [request.active_source, request.committed_target, request.beam_size]
    rng = random.Random(f"{script.seed}:mt:{oracle_canonical_json(keyed_by)}")
    beams = []
    for b in range(1, request.beam_size + 1):
        tail = list(continuation)
        if b > 1 and script.tail_truncate_max > 0:
            cut = rng.randint(0, min(script.tail_truncate_max, len(tail)))
            if cut:
                tail = tail[:-cut]
        if b > 1 and tail and rng.random() < script.tail_perturb_prob:
            if tail[-1] != SENTINEL:
                tail[-1] = f"{tail[-1]}~{b}"
        tokens = committed + tail
        beams.append((tokens, positions[: len(tokens)]))
    return beams


def oracle_mt_translate(script: MtScript, request: MtRequest) -> MtResponse:
    """The mock MT built eagerly: every beam builds its own token and cut
    tuples, and the request's RNG is seeded even when nothing draws."""
    active = request.active_source
    cost = script.cost_base_s + script.cost_per_word_s * len(active)
    if not active:
        return MtResponse(BeamSet(()), cost)
    beams = [
        BeamHypothesis(tuple(tokens), float(-(b - 1)), tuple(cuts))
        for b, (tokens, cuts) in enumerate(_oracle_mt_beams(script, request), start=1)
    ]
    return MtResponse(BeamSet(tuple(beams)), cost)


def _one_hot(index: int, length: int, blur: float, rng: random.Random) -> tuple[float, ...]:
    row = [1.0 if i == index else 0.0 for i in range(length)]
    if blur > 0:
        row = [v + blur * rng.random() for v in row]
    total = sum(row)
    return tuple(v / total for v in row)


def segment_source(attention_row: Sequence[float]) -> int:
    """Index of the most-attended source position; ties take the largest.

    Consuming more source on a tie keeps the active buffer smaller.
    """
    if not attention_row:
        raise InvalidArgumentError("attention row must be non-empty")
    if any(w < 0 for w in attention_row):
        raise InvalidArgumentError("attention weights must be >= 0")
    best = 0
    for i, w in enumerate(attention_row):
        if w >= attention_row[best]:
            best = i
    return best


def oracle_mt_rows(
    script: MtScript, request: MtRequest, blur: float
) -> list[tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]]:
    """Each beam's tokens and dense attention rows, as the mock MT built them
    when beams carried rows: one-hot on the diagonal, blurred by ``blur`` and
    renormalized. The blur draws come from an RNG of their own, so the
    tokens are the mock's."""
    active = request.active_source
    if not active:
        return []
    rng = random.Random(f"{script.seed}:rows:{oracle_canonical_json(request)}")
    return [
        (tuple(tokens), tuple(_one_hot(pos, len(active), blur, rng) for pos in positions))
        for tokens, positions in _oracle_mt_beams(script, request)
    ]


# --- builders -----------------------------------------------------------------

# Deep enough to exhaust the JSON decoder's recursion limit.
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def make_beam(tokens, score: float = 0.0, src_len: int = 4) -> BeamHypothesis:
    cuts = tuple(min(j, src_len - 1) for j in range(len(tokens)))
    return BeamHypothesis(tuple(tokens), score, cuts)


def make_beam_set(token_lists) -> BeamSet:
    beams = [
        make_beam(tokens, score=float(-i)) for i, tokens in enumerate(token_lists)
    ]
    return BeamSet(tuple(beams))


_VOCAB = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu"
).split()


def synth_sentences(
    rng: random.Random, n_sentences: int, min_words: int = 3, max_words: int = 8
) -> list[list[str]]:
    """Random sentences; the last word of each carries a terminal period."""
    sentences = []
    for _ in range(n_sentences):
        count = rng.randint(min_words, max_words)
        words = [rng.choice(_VOCAB) for _ in range(count)]
        words[-1] += "."
        sentences.append(words)
    return sentences


def timed_words(sentences: list[list[str]], word_duration_s: float = 0.3):
    words = []
    t = 0.0
    for sentence in sentences:
        for text in sentence:
            words.append(TimedWord(text, t, t + word_duration_s))
            t += word_duration_s
    return tuple(words), t


def build_scripts(
    sentences: list[list[str]],
    seed: int = 0,
    word_duration_s: float = 0.3,
    stabilization_delay_s: float = 0.0,
    tail_truncate_max: int = 0,
    tail_perturb_prob: float = 0.0,
    asr_cost: tuple[float, float] = (0.1, 0.01),
    mt_cost: tuple[float, float] = (0.1, 0.01),
) -> tuple[AsrScript, MtScript, float]:
    words, duration = timed_words(sentences, word_duration_s)
    asr = AsrScript(
        words=words,
        audio_duration_s=duration,
        stabilization_delay_s=stabilization_delay_s,
        seed=seed,
        cost_base_s=asr_cost[0],
        cost_per_audio_s=asr_cost[1],
    )
    mt = MtScript(
        tail_truncate_max=tail_truncate_max,
        tail_perturb_prob=tail_perturb_prob,
        seed=seed,
        cost_base_s=mt_cost[0],
        cost_per_word_s=mt_cost[1],
    )
    return asr, mt, duration


def chunked_trace(duration_s: float, chunk_s: float = 1.0) -> list[TraceEvent]:
    events = []
    t = 0.0
    while t < duration_s:
        step = min(chunk_s, duration_s - t)
        t += step
        events.append(TraceEvent(step))
    return events


def offline_translation(mt_script: MtScript, transcript: list[str]) -> list[str]:
    """What the mock MT would produce given the whole transcript at once."""
    return [mt_script.map_word(w) for w in transcript]
