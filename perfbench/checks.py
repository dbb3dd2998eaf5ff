"""Output checks, computed by the benchmark from what it generated.

None of these compares against a stored copy of earlier output. Each
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math
import string

from simulstream.core import SENTINEL

from gen import Talk

ASR_WINDOW_MAX_S = 30.0
MT_BUFFER_MAX_WORDS = 80
RELAXED_MATCH_EDITS = 2
_STRIP = str.maketrans("", "", string.punctuation)


def edit_distance(a, b) -> int:
    """Unit-cost edit distance between two sequences (words or characters)."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def relaxed_match(heard: str, spoken: str) -> bool:
    """Lowercased, punctuation stripped, within the edit threshold."""
    a = heard.lower().translate(_STRIP)
    b = spoken.lower().translate(_STRIP)
    return edit_distance(a, b) <= RELAXED_MATCH_EDITS


def laal_mean(records, refs, slices, mode: str) -> float:
    """Mean length-adaptive average lagging, from the formula in the paper."""
    tokens = [r for r in records if r.token != SENTINEL]
    values = []
    cursor = 0
    for ref, piece in zip(refs, slices):
        span = ref.source_end_s - ref.source_start_s
        if not piece:
            values.append(span)
            continue
        delays = [
            (r.nca_time_s if mode == "nca" else r.ca_time_s) - ref.source_start_s
            for r in tokens[cursor : cursor + len(piece)]
        ]
        cursor += len(piece)
        tau = next((i for i, d in enumerate(delays, start=1) if d >= span), len(delays))
        denom = max(len(piece), len(ref.tokens))
        values.append(
            sum(delays[i] - i * span / denom for i in range(tau)) / tau
        )
    return math.fsum(values) / len(values)


def check_log(talk: Talk, records, transcript, streamed, refs, slices, report) -> list[str]:
    """Checks that hold on every workload."""
    problems = []
    if streamed != records:
        problems.append("emission log differs from the concatenated step outputs")
    tokens = [r for r in records if r.token != SENTINEL]
    expected = [talk.translate(w) for w in transcript]
    for i, r in enumerate(tokens[: len(expected)]):
        if r.token != expected[i]:
            break
        if r.nca_time_s < talk.words[i][2]:
            problems.append(f"token {i} {r.token!r} emitted before its source word ended")
            break
    if any(r.ca_time_s < r.nca_time_s for r in records):
        problems.append("a ca_time_s is below its nca_time_s")
    for mode in ("nca", "ca"):
        mine = laal_mean(records, refs, slices, mode)
        theirs = report[mode]["mean_s"]
        if not math.isclose(mine, theirs, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{mode} LAAL mean {theirs} differs from recomputed {mine}")
    return problems


def check_clean(talk: Talk, records, transcript, refs, slices, report) -> list[str]:
    """Checks for clean backends, where the whole output is known."""
    problems = []
    spoken = [w for w, _, _ in talk.words]
    if transcript != spoken:
        problems.append("transcript differs from the generated words")
    tokens = [r.token for r in records if r.token != SENTINEL]
    if tokens != [talk.translate(w) for w in spoken]:
        problems.append("streamed tokens differ from the word-map translation")
    sentinels = sum(1 for r in records if r.token == SENTINEL)
    if sentinels != len(talk.sentences):
        problems.append(f"{sentinels} sentinels for {len(talk.sentences)} sentences")
    if [list(s) for s in slices] != [list(r.tokens) for r in refs]:
        problems.append("a resegmented slice differs from its reference")
    if report["bleu"] != 100.0:
        problems.append(f"BLEU is {report['bleu']}, not 100")
    return problems


def check_noisy(talk: Talk, records, transcript, refs, slices) -> list[str]:
    """Checks for noisy backends: bounds the method must keep."""
    problems = []
    spoken = [w for w, _, _ in talk.words]
    if len(transcript) != len(spoken):
        problems.append(f"{len(transcript)} words committed for {len(spoken)} spoken")
    bad = [i for i, (h, s) in enumerate(zip(transcript, spoken)) if not relaxed_match(h, s)]
    if bad:
        problems.append(f"committed word {bad[0]} is not a relaxed match of the script")
    hyp = [r.token for r in records if r.token != SENTINEL]
    if [t for s in slices for t in s] != hyp:
        problems.append("resegmented slices do not concatenate to the hypothesis")
    # The generator's split: token i translates word i, so it belongs to the
    # sentence that word i is in.
    known = [[] for _ in talk.sentences]
    owner = [k for k, s in enumerate(talk.sentences) for _ in s]
    for i, token in enumerate(hyp):
        known[owner[min(i, len(owner) - 1)]].append(token)
    cost = sum(edit_distance(s, r.tokens) for s, r in zip(slices, refs))
    known_cost = sum(edit_distance(s, r.tokens) for s, r in zip(known, refs))
    if cost > known_cost:
        problems.append(f"resegmentation cost {cost} above the known split's {known_cost}")
    return problems
