"""Streaming MT controller: sentinel-delimited history and gated emission.

Committed ASR words accumulate in an active source chunk. Each step asks
the backend for beams over (history, active source, committed target),
emits whatever the beam vote agrees on, and, when the sentinel token is
committed, consolidates the closed sentence pair into the history. The
source-side cut for that consolidation is the winning beam's cut for the
token preceding the sentinel: the active source position that token
attends to most (ties to the largest) is the last word considered
translated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, wraps
from typing import Sequence

from .backends import MtBackend, MtRequest
from .core import (
    SENTINEL,
    BeamSet,
    EmissionRecord,
    InvalidArgumentError,
    ProtocolError,
    VirtualClock,
    check_beam_size,
    check_word,
    quote,
)
from .policy import ralcp_emit, waitk_allows

HISTORY_REMOVE_MODES = ("oldest_sentence_pair", "word_count")
_FLUSH_MAX_ROUNDS = 64  # caps flush against a backend that never stops emitting


@dataclass(frozen=True)
class MtStreamConfig:
    """MT controller settings; the defaults are the adapted preset.

    ``agreement_ratio`` is the share of the requested ``beam_size`` beams
    that must vote for a token before it is emitted (``ralcp_emit``).
    ``wait_k`` source words must be read before a segment emits anything.
    """

    agreement_ratio: float = 0.5
    beam_size: int = 10
    wait_k: int = 3
    max_buffer_words: int = 80
    history_remove: str = "oldest_sentence_pair"
    history_remove_words: int = 20
    attention_layer_tag: str = "6"

    def __post_init__(self) -> None:
        if not 0 < self.agreement_ratio <= 1:
            raise InvalidArgumentError(
                f"agreement_ratio must be in (0, 1], got {self.agreement_ratio}"
            )
        check_beam_size(self.beam_size, "beam_size")
        for name in ("wait_k", "max_buffer_words", "history_remove_words"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.history_remove not in HISTORY_REMOVE_MODES:
            raise InvalidArgumentError(
                f"history_remove must be one of {HISTORY_REMOVE_MODES}, "
                f"got {quote(self.history_remove)}"
            )


def _atomic(method):
    """``method``, with ``history`` and ``segment_ordinal`` put back as they
    were before it if anything in it raises; the error propagates, so the
    call can be retried. The clock keeps the compute already charged, and
    the counters keep the work already done."""

    @wraps(method)
    def run(self, *args):
        before = self.history, self.segment_ordinal
        try:
            return method(self, *args)
        except BaseException:
            self.history, self.segment_ordinal = before
            raise

    return run


class MtStreamController:
    """One streaming translation session over a shared virtual clock.

    Its state is ``segment_ordinal`` and ``history``, the next request to
    send; each change builds a new one, so a failed call can put it back.
    """

    def __init__(
        self, config: MtStreamConfig, backend: MtBackend, clock: VirtualClock
    ) -> None:
        self.config = config
        self.backend = backend
        self.clock = clock
        # Builds a request from its four word fields; the other two are the config's.
        self._request = partial(
            MtRequest, beam_size=config.beam_size, attention_layer_tag=config.attention_layer_tag
        )
        self.history = self._request((), (), (), ())
        self.segment_ordinal = 0
        self.translate_calls = 0
        self.evictions = 0
        self.dropped_beams = 0
        # Evictions that ended over budget because only the active chunk
        # was left, and the largest buffer any eviction left behind.
        self.budget_overflows = 0
        self.max_buffered_words = 0

    @_atomic
    def step(self, new_source_words: Sequence[str]) -> list[EmissionRecord]:
        """Feed freshly committed source words; emit whatever agrees.

        A step with no new words is a no-op. Otherwise the step keeps
        translating for as long as each call closes a segment, active
        source remains and wait-k lets the next segment start, so no ready
        segment waits for later audio. Each call charges its compute to the
        clock. A failure rolls the state back (``_atomic``).
        """
        if not new_source_words:
            return []
        for word in new_source_words:
            check_word(word, "source word")
        h = self.history
        # The active chunk holds exactly the words the open segment has read,
        # those a closure left unconsumed included, so wait-k counts it.
        self.history = self._request(
            h.history_source,
            h.history_target,
            h.active_source + tuple(new_source_words),
            h.committed_target,
        )
        self._evict()
        records: list[EmissionRecord] = []
        # Terminates: every closure consumes at least one active word.
        while waitk_allows(self.config.wait_k, len(self.history.active_source)):
            closed = self.segment_ordinal
            records += self._translate_and_emit()
            if self.segment_ordinal == closed:
                break
        return records

    @_atomic
    def flush(self) -> list[EmissionRecord]:
        """End of stream: keep translating the leftover active source.

        The wait-k gate is bypassed; with nothing left to read, holding
        output back no longer prevents anything. For the same reason a
        stalled vote can never recover, so a round whose vote emits nothing
        emits the best beam's continuation through its first sentinel
        instead. Stops at the first round that emits nothing even so. A
        failure rolls the state back (``_atomic``).
        """
        records: list[EmissionRecord] = []
        for _ in range(_FLUSH_MAX_ROUNDS):
            if not self.history.active_source:
                break
            emitted = self._translate_and_emit(flushing=True)
            records.extend(emitted)
            if not emitted:
                break
        return records

    def _translate_and_emit(self, flushing: bool = False) -> list[EmissionRecord]:
        request = self.history
        response = self.backend.translate(request)
        self.clock.charge_compute(response.compute_cost_s)
        self.translate_calls += 1
        beams = self._validated(response.beams, request)

        committed = len(request.committed_target)
        emitted = ralcp_emit(beams, committed, self.config.agreement_ratio, self.config.beam_size)
        if flushing and not emitted and beams.beams:
            emitted = list(beams.beams[0].tokens[committed:])
            if SENTINEL in emitted:
                del emitted[emitted.index(SENTINEL) + 1 :]
        try:  # every emitted token but the sentinel must be a word
            for token in emitted:
                if token != SENTINEL:
                    check_word(token, "emitted token")
        except InvalidArgumentError as exc:
            raise ProtocolError(str(exc)) from exc
        nca_time_s, ca_time_s = self.clock.audio_available_s, self.clock.now_s
        records = [EmissionRecord(token, nca_time_s, ca_time_s) for token in emitted]
        if emitted:
            self._commit(beams, request.committed_target + tuple(emitted))
        return records

    def _validated(self, beams: BeamSet, request: MtRequest) -> BeamSet:
        """Enforce the response contract; drop beams that rewrite history.

        One walk over the beams in rank order. Every cut must be an ``int``
        inside the active source, checked once per cut tuple the beams
        share; the first beam that breaks it is named, after the beams
        before it that rewrite history are counted as dropped. The reply's
        own beam set comes back when every beam is kept.
        """
        if len(beams.beams) > request.beam_size:
            raise ProtocolError(f"{len(beams.beams)} beams exceed beam_size {request.beam_size}")
        active_len = len(request.active_source)
        committed = request.committed_target
        n = len(committed)
        checked = set()  # ids of cut tuples; each beam keeps its own alive
        kept = []
        for b, beam in enumerate(beams.beams):
            cuts = beam.cuts
            if id(cuts) not in checked:
                checked.add(id(cuts))
                if not set(map(type, cuts)) <= {int}:
                    raise ProtocolError(f"beam {b} has a cut that is not an integer: {list(cuts)}")
                if cuts and not (0 <= min(cuts) and max(cuts) < active_len):
                    raise ProtocolError(
                        f"beam {b} has a cut outside the {active_len} active source "
                        f"words: {list(cuts)}"
                    )
            if len(beam.tokens) > n and beam.tokens[:n] != committed:
                self.dropped_beams += 1
            else:
                kept.append(beam)
        return beams if len(kept) == len(beams.beams) else BeamSet(tuple(kept))

    def _commit(self, beams: BeamSet, target: tuple[str, ...]) -> None:
        """Make ``target`` the open segment's committed tokens; a closing
        sentinel moves the segment, up to its source cut, into the history."""
        h = self.history
        if target[-1] != SENTINEL:
            self.history = self._request(h.history_source, h.history_target, h.active_source, target)
            return
        end = _source_cut(beams, len(target) - 1) + 1
        self.history = self._request(
            h.history_source + (h.active_source[:end],),
            h.history_target + (target[:-1],),
            h.active_source[end:],
            (),
        )
        self.segment_ordinal += 1
        self._evict()

    def _evict(self) -> None:
        h = self.history
        config = self.config
        while h.buffered_source_words() > config.max_buffer_words:
            # Each pair holds a source word: both modes run out of history here.
            if h.history_source_words() == 0:
                self.budget_overflows += 1
                break
            if config.history_remove == "oldest_sentence_pair":
                source, target = h.history_source[1:], h.history_target[1:]
            else:
                source = _drop_oldest_words(h.history_source, config.history_remove_words)
                target = _drop_oldest_words(h.history_target, config.history_remove_words)
                while source and not source[0] and not target[0]:
                    source, target = source[1:], target[1:]
            h = self._request(source, target, h.active_source, h.committed_target)
            self.evictions += 1
        self.history = h
        self.max_buffered_words = max(self.max_buffered_words, h.buffered_source_words())


def _source_cut(beams: BeamSet, pos: int) -> int:
    """The last active source word of a segment whose sentinel is at ``pos``."""
    # A sentinel that opens the segment closes an empty target against the
    # first source word: a call only runs with active source.
    if pos == 0:
        return 0
    winner = next(
        (b for b in beams.beams if len(b.tokens) > pos and b.tokens[pos] == SENTINEL), None
    )
    if winner is None:
        raise ProtocolError("no beam holds the committed sentinel; cannot segment source")
    return winner.cuts[pos - 1]


def _drop_oldest_words(sentences: tuple[tuple[str, ...], ...], count: int) -> tuple:
    """``sentences`` less their oldest ``count`` words; emptied ones stay."""
    kept = list(sentences)
    for i, sentence in enumerate(kept):
        if count <= 0:
            break
        kept[i] = sentence[count:]
        count -= len(sentence)
    return tuple(kept)
