"""Stream-level quality and latency evaluation.

The long-form hypothesis is first split against timed reference segments
(minimum-edit-distance resegmentation by halving the boundary list, on the
wave pass of ``textnorm``: O(n + sum |ref|) machine ints and at worst
O((n + sum |ref|)(D + 1) log K) time for n hypothesis tokens, edit distance
D and K segments), then scored: corpus BLEU for quality, and per-segment
length-adaptive average lagging for latency, in two flavors: NCA (delays
measured in source audio consumed) and CA (delays measured on the virtual
wall clock, which includes compute cost).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import add
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .core import (
    SENTINEL,
    EmissionRecord,
    InvalidArgumentError,
    check_emission_log,
    check_word,
    dump_jsonl,
    read_jsonl,
    read_record,
    read_records,
    write_emission_log,  # in core, so ``simulate`` writes its log without the scorer
)
from .textnorm import _waves, is_punctuation


@dataclass(frozen=True)
class ReferenceSegment:
    """A reference translation aligned to a span of source audio."""

    tokens: tuple[str, ...]
    source_start_s: float
    source_end_s: float

    def __post_init__(self) -> None:
        if type(self.tokens) is not tuple:
            object.__setattr__(self, "tokens", tuple(self.tokens))
        for token in self.tokens:
            check_word(token, "reference token")
        if not self.source_start_s < self.source_end_s:
            raise InvalidArgumentError(
                f"need source_start_s < source_end_s, got "
                f"[{self.source_start_s}, {self.source_end_s}]"
            )

    @property
    def duration_s(self) -> float:
        return self.source_end_s - self.source_start_s


class LatencyStats(NamedTuple):
    mean_s: float
    median_s: float
    p90_s: float
    p95_s: float
    p99_s: float
    max_s: float


class LatencyReport(
    namedtuple("LatencyReport", [*LatencyStats._fields, "per_segment"])
):
    """``LatencyStats`` of per-segment values, plus ``per_segment``: the
    values in segment order."""

    __slots__ = ()


def latency_stats(values: Sequence[float]) -> LatencyStats:
    """Mean, lower median, nearest-rank percentiles, and maximum.

    Nearest-rank: percentile p is the (ceil(p/100 * n))-th smallest value,
    computed in integer arithmetic so the rank never drifts by one ulp.
    """
    if not values:
        raise InvalidArgumentError("latency_stats needs at least one value")
    ordered = sorted(values)
    n = len(ordered)

    def rank(p: int) -> float:
        return ordered[(p * n + 99) // 100 - 1]

    return LatencyStats(
        mean_s=math.fsum(ordered) / n,
        median_s=ordered[(n - 1) // 2],
        p90_s=rank(90),
        p95_s=rank(95),
        p99_s=rank(99),
        max_s=ordered[-1],
    )


def resegment(
    hyp_tokens: Sequence[str], refs: Sequence[ReferenceSegment]
) -> list[list[str]]:
    """Split the hypothesis into one contiguous slice per reference segment.

    Boundaries minimize the total word-level edit distance between each
    slice and its reference (dynamic programming over hypothesis position
    and reference token position); among optimal placements the earliest
    boundaries win. Sentinels must already be stripped from ``hyp_tokens``.

    Boundaries cost nothing, so the optimum is the plain edit distance D
    between the hypothesis and the joined references, and the boundaries
    are placed by halving (Hirschberg 1975; Myers 1986). Between two placed
    boundaries, a hypothesis slice equal to its references puts every inner
    boundary on the diagonal; otherwise the median boundary k goes at the
    least hyp position whose prefix cost F and suffix cost B, from
    ``_waves`` over the box and over it reversed, sum to the box's D at
    segment k's first reference position. Optimal paths can swap where
    they cross, so the halves' least positions are the least overall. A
    call holds O(n + sum |ref|) ints and takes O((n + sum |ref|)(D + 1) log K)
    time for K segments at worst; a clean stream, or one segment, runs no
    pass.
    """
    hyp = list(hyp_tokens)
    n = len(hyp)
    m = len(refs)
    if m == 0:
        if hyp:
            raise InvalidArgumentError("cannot resegment tokens against zero segments")
        return []

    ref = list(chain.from_iterable(r.tokens for r in refs))
    rows = list(accumulate((len(r.tokens) for r in refs), initial=0))
    cuts = [0] * m + [n]
    boxes = [(0, m)]
    while boxes:
        k0, k1 = boxes.pop()
        if k1 - k0 < 2:
            continue
        j0, g0 = cuts[k0], rows[k0]
        a, b = hyp[j0 : cuts[k1]], ref[g0 : rows[k1]]
        if a == b:
            cuts[k0 + 1 : k1] = [j0 + g - g0 for g in rows[k0 + 1 : k1]]
            continue
        k = (k0 + k1) // 2
        row, width = rows[k] - g0, len(a) + 1
        # Cell (j, row) costs forward[len(b) + 1 - row + j] from the box's
        # first corner and backward[row + width - j] from its last.
        distance, forward = _waves(a, b, row)
        backward = _waves(a[::-1], b[::-1], len(b) - row)[1]
        costs = map(add, forward[len(b) + 1 - row :], backward[row + width : row : -1])
        cuts[k] = j0 + list(costs).index(distance)
        boxes += (k0, k), (k, k1)
    return [hyp[a:b] for a, b in zip(cuts, cuts[1:])]


MAX_ORDER = 4  # BLEU counts n-grams of orders 1 to 4


def corpus_bleu(
    hyp_segments: Sequence[Sequence[str]],
    ref_segments: Sequence[Sequence[str]],
) -> float:
    """Corpus-level BLEU in [0, 100] with exponential smoothing.

    Clipped n-gram counts of orders 1 to ``MAX_ORDER`` are pooled across
    segments. An order with zero matches but a nonzero denominator
    contributes 1 / (2^z * possible) where z counts the zero orders seen so
    far (the classic exponential fallback); an order where no n-gram was
    possible at all (hypothesis shorter than the order everywhere) is
    skipped, so a perfect match scores exactly 100 whatever the segment
    lengths. The brevity penalty uses pooled lengths. Empty hypothesis
    segments contribute zero matches and full reference length.

    A hypothesis segment equal to its reference matches every n-gram it
    has, so it adds its possible counts as matches without counting them.
    Equal means ``==``: a list and a tuple of the same tokens are counted.
    """
    if len(hyp_segments) != len(ref_segments):
        raise InvalidArgumentError(
            f"segment count mismatch: {len(hyp_segments)} hypothesis vs "
            f"{len(ref_segments)} reference"
        )
    matches = [0] * MAX_ORDER
    possible = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyp_segments, ref_segments):
        hyp_len += len(hyp)
        ref_len += len(ref)
        same = hyp == ref
        for order in range(1, min(len(hyp), MAX_ORDER) + 1):
            count = len(hyp) - order + 1
            possible[order - 1] += count
            matches[order - 1] += count if same else _clipped_matches(hyp, ref, order)
    if hyp_len == 0:
        return 0.0
    smooth = 1.0
    logs = []
    for order in range(MAX_ORDER):
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


def _clipped_matches(hyp: Sequence[str], ref: Sequence[str], order: int) -> int:
    """The n-grams of ``hyp`` found in ``ref``, each counted at most as often
    as ``ref`` has it: the sum over shared n-grams of the lesser count."""
    hyp_grams = Counter(zip(*(hyp[i:] for i in range(order))))
    ref_grams = Counter(zip(*(ref[i:] for i in range(order))))
    return sum((hyp_grams & ref_grams).values())


def bleu_tokenize(tokens: Iterable[str]) -> list[str]:
    """Simplified scoring tokenizer: split off leading/trailing punctuation.

    "cat," becomes ["cat", ","]; an all-punctuation token stays whole.
    """
    out: list[str] = []
    for token in tokens:
        head = 0
        tail = len(token)
        while head < tail and is_punctuation(token[head]):
            head += 1
        while tail > head and is_punctuation(token[tail - 1]):
            tail -= 1
        if head == tail:
            out.append(token)
            continue
        out.extend(token[:head])
        out.append(token[head:tail])
        out.extend(token[tail:])
    return out


def strip_sentinels(tokens: Iterable[str]) -> list[str]:
    return [t for t in tokens if t != SENTINEL]


def stream_laal(
    log: Sequence[EmissionRecord],
    refs: Sequence[ReferenceSegment],
    hyp_segments: Sequence[Sequence[str]],
) -> tuple[LatencyReport, LatencyReport]:
    """Per-segment length-adaptive average lagging over the emission log,
    as the (NCA, CA) reports: delays on audio consumed, then on the
    virtual wall clock.

    For segment s with source span T and hypothesis/reference lengths
    y/y*, token delays are d_i = emission time - segment source start, and

        LAAL_s = (1/tau) * sum_{i=1..tau} ( d_i - (i - 1) * T / max(y, y*) )

    where tau is the first index whose delay reaches T (all of them if none
    does). An empty hypothesis segment scores the full span T, so silence
    can never look fast. A lag or mean that is not a finite float is refused.
    """
    if len(refs) != len(hyp_segments):
        raise InvalidArgumentError(
            f"segment count mismatch: {len(refs)} references vs "
            f"{len(hyp_segments)} hypothesis segments"
        )
    if not refs:
        raise InvalidArgumentError("stream_laal needs at least one segment")
    records = [r for r in log if r.token != SENTINEL]
    if [r.token for r in records] != list(chain.from_iterable(hyp_segments)):
        raise InvalidArgumentError(
            "emission log does not match the hypothesis segments token for token"
        )
    return (
        _laal([r.nca_time_s for r in records], refs, hyp_segments, "NCA"),
        _laal([r.ca_time_s for r in records], refs, hyp_segments, "CA"),
    )


def _laal(
    times: Sequence[float],
    refs: Sequence[ReferenceSegment],
    hyp_segments: Sequence[Sequence[str]],
    clock: str,
) -> LatencyReport:
    """One clock's report: ``times`` holds one emission time per token of
    ``hyp_segments``. A lag or mean that is not a finite float is refused,
    naming ``clock``."""
    per_segment = []
    cursor = 0
    for k, (ref, seg) in enumerate(zip(refs, hyp_segments), start=1):
        span = ref.duration_s
        y = len(seg)
        lag = span
        if y:
            delays = [t - ref.source_start_s for t in times[cursor : cursor + y]]
            cursor += y
            tau = y
            for i, d in enumerate(delays, start=1):
                if d >= span:
                    tau = i
                    break
            denom = max(y, len(ref.tokens))
            try:
                total = math.fsum(delays[i - 1] - (i - 1) * span / denom for i in range(1, tau + 1))
            except (OverflowError, ValueError):  # a sum past the largest float, or inf - inf
                total = math.nan
            lag = total / tau
        if not math.isfinite(lag):
            raise InvalidArgumentError(
                f"{clock} LAAL of segment {k} [{ref.source_start_s}, {ref.source_end_s}] "
                "is not finite"
            )
        per_segment.append(lag)
    try:
        stats = latency_stats(per_segment)
    except OverflowError:
        raise InvalidArgumentError(
            f"{clock} LAAL mean over segments 1-{len(per_segment)} is not finite: its sum overflows"
        ) from None
    return LatencyReport(*stats, per_segment=per_segment)


# --- file interfaces ---------------------------------------------------------


def _read_record_lines(path: str | Path, cls: type, check) -> list:
    """The records of class ``cls`` that a JSONL file holds, one per line,
    refused by ``check`` if neighbouring records break the file's order:
    read by column (``read_records``) and checked whole or, on any fault,
    read again line by line, each record checked against the one before
    it, so the error names the first faulty ``path:line``."""
    try:
        records = read_records(cls, read_jsonl(path))
        check(records)
        return records
    except InvalidArgumentError:
        records = []

    def checked(obj: dict):
        records.append(read_record(cls, obj))
        check(records[-2:])
        return records[-1]

    return read_jsonl(path, checked)


def read_emission_log(path: str | Path) -> list[EmissionRecord]:
    """The records of a log file, whose NCA times must not fall
    (``check_emission_log``); an error names the file and line.

    The lines are read by column when every value is as a log writes it;
    a log with any other line, an integer time say, or with a fault, is
    read line by line (``_read_record_lines``).
    """
    return _read_record_lines(path, EmissionRecord, check_emission_log)


def write_reference_segments(
    refs: Sequence[ReferenceSegment], path: str | Path
) -> None:
    Path(path).write_bytes(dump_jsonl(refs).encode("utf-8"))


def _check_segment_order(refs: Sequence[ReferenceSegment]) -> None:
    for a, b in zip(refs, refs[1:]):
        if a.source_end_s > b.source_start_s:
            raise InvalidArgumentError(
                "reference segments overlap or are out of order at "
                f"[{a.source_start_s}, {a.source_end_s}] / [{b.source_start_s}, {b.source_end_s}]"
            )


def read_reference_segments(path: str | Path) -> list[ReferenceSegment]:
    """The segments of a references file, in order; a file with none is
    refused, naming it, since no log can be scored against it, and a
    segment that starts before the one above it ends is refused, naming
    its line.

    The lines are read by column or, when any value is not as a writer
    leaves it, line by line, as ``read_emission_log`` reads a log.
    """
    refs = _read_record_lines(path, ReferenceSegment, _check_segment_order)
    if not refs:
        raise InvalidArgumentError(f"{path}: no reference segment")
    return refs


def evaluate(
    log: Sequence[EmissionRecord], refs: Sequence[ReferenceSegment]
) -> dict:
    """Full metrics report: resegment, then BLEU and, from one
    ``stream_laal`` call, the NCA and CA latency reports.

    The sentinels are stripped from the tokens here, and from the log by
    ``stream_laal``, which checks it against the resegmented slices.
    """
    hyp_tokens = strip_sentinels([r.token for r in log])
    slices = resegment(hyp_tokens, refs)
    # Each distinct token is split once; the segments are mapped through
    # the table, which gives bleu_tokenize's lists segment by segment.
    pieces = {
        token: bleu_tokenize((token,))
        for token in set(hyp_tokens).union(*(r.tokens for r in refs))
    }

    def split(tokens: Sequence[str]) -> list[str]:
        return list(chain.from_iterable(map(pieces.__getitem__, tokens)))

    bleu = corpus_bleu([split(s) for s in slices], [split(r.tokens) for r in refs])
    nca, ca = stream_laal(log, refs, slices)
    return {
        "bleu": bleu,
        "segments": len(refs),
        "empty_segments": sum(1 for s in slices if not s),
        "nca": nca._asdict(),
        "ca": ca._asdict(),
    }
