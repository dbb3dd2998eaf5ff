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
from typing import Sequence

from .backends import MtBackend, MtRequest
from .core import (
    SENTINEL,
    BackendError,
    BeamSet,
    EmissionRecord,
    InvalidArgumentError,
    ProtocolError,
    StreamHistory,
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
        if self.wait_k < 1:
            raise InvalidArgumentError(f"wait_k must be >= 1, got {self.wait_k}")
        if self.max_buffer_words < 1:
            raise InvalidArgumentError("max_buffer_words must be >= 1")
        if self.history_remove not in HISTORY_REMOVE_MODES:
            raise InvalidArgumentError(
                f"history_remove must be one of {HISTORY_REMOVE_MODES}, "
                f"got {quote(self.history_remove)}"
            )
        if self.history_remove_words < 1:
            raise InvalidArgumentError("history_remove_words must be >= 1")


class MtStreamController:
    """One streaming translation session over a shared virtual clock."""

    def __init__(
        self, config: MtStreamConfig, backend: MtBackend, clock: VirtualClock
    ) -> None:
        self.config = config
        self.backend = backend
        self.clock = clock
        self.history = StreamHistory()
        self.segment_ordinal = 0
        self.translate_calls = 0
        self.evictions = 0
        self.dropped_beams = 0
        # Evictions that ended over budget because only the active chunk
        # was left, and the largest buffer any eviction left behind.
        self.budget_overflows = 0
        self.max_buffered_words = 0

    def step(self, new_source_words: Sequence[str]) -> list[EmissionRecord]:
        """Feed freshly committed source words; emit whatever agrees.

        A step with no new words is a no-op. Otherwise the step keeps
        translating for as long as each call closes a segment, active
        source remains and wait-k lets the next segment start, so no ready
        segment waits for later audio. Each call charges its compute to the
        clock.

        If the first backend call fails with a ``BackendError``, the words
        are taken back out before the error propagates, so the step is
        retryable. A failure in a later call propagates too, but the
        segments closed before it stay closed and their tokens are lost to
        the caller: the stream cannot continue.
        """
        if not new_source_words:
            return []
        for word in new_source_words:
            check_word(word, "source word")
        history = self.history
        count = len(new_source_words)
        # The active chunk holds exactly the words the open segment has read,
        # those a closure left unconsumed included, so wait-k counts it.
        history.active_source.extend(new_source_words)
        if not waitk_allows(self.config.wait_k, len(history.active_source)):
            return []
        closed = self.segment_ordinal
        try:
            records = self._translate_and_emit()
        except BackendError:
            del history.active_source[-count:]
            raise
        # Terminates: every closure consumes at least one active word.
        while self.segment_ordinal > closed and waitk_allows(
            self.config.wait_k, len(history.active_source)
        ):
            closed = self.segment_ordinal
            records += self._translate_and_emit()
        return records

    def flush(self) -> list[EmissionRecord]:
        """End of stream: keep translating the leftover active source.

        The wait-k gate is bypassed; with nothing left to read, holding
        output back no longer prevents anything. For the same reason a
        stalled vote can never recover, so a round whose vote emits nothing
        emits the best beam's continuation through its first sentinel
        instead. Stops at the first round that emits nothing even so.
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
        history = self.history
        request = MtRequest(
            history_source=tuple(tuple(s) for s in history.source_sentences),
            history_target=tuple(tuple(s) for s in history.target_sentences),
            active_source=tuple(history.active_source),
            committed_target=tuple(history.active_target_committed),
            beam_size=self.config.beam_size,
            attention_layer_tag=self.config.attention_layer_tag,
        )
        response = self.backend.translate(request)
        try:  # a reported cost the clock cannot take is the backend's fault
            self.clock.charge_compute(response.compute_cost_s)
        except InvalidArgumentError as exc:
            raise ProtocolError(str(exc)) from exc
        self.translate_calls += 1
        beams = self._validated(response.beams, request)

        committed = len(history.active_target_committed)
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
        records = []
        for token in emitted:
            history.active_target_committed.append(token)
            records.append(
                EmissionRecord(
                    token=token,
                    nca_time_s=self.clock.audio_available_s,
                    ca_time_s=self.clock.now_s,
                )
            )
        if emitted and emitted[-1] == SENTINEL:
            self._close_segment(beams)
        self._evict()
        return records

    def _validated(self, beams: BeamSet, request: MtRequest) -> BeamSet:
        """Enforce the response contract; drop beams that rewrite history.

        The reply's own beam set comes back when every beam is kept.
        """
        if len(beams.beams) > request.beam_size:
            raise ProtocolError(f"{len(beams.beams)} beams exceed beam_size {request.beam_size}")
        active_len = len(request.active_source)
        committed = request.committed_target
        kept = []
        for b, beam in enumerate(beams.beams):
            if beam.cuts and not (0 <= min(beam.cuts) and max(beam.cuts) < active_len):
                raise ProtocolError(
                    f"beam {b} has a cut outside the {active_len} active source "
                    f"words: {list(beam.cuts)}"
                )
            if len(beam.tokens) > len(committed) and beam.tokens[: len(committed)] != committed:
                self.dropped_beams += 1
                continue
            kept.append(beam)
        return beams if len(kept) == len(beams.beams) else BeamSet(tuple(kept))

    def _close_segment(self, beams: BeamSet) -> None:
        history = self.history
        target = history.active_target_committed[:-1]
        # A sentinel that opens the segment closes an empty target against
        # the first source word: a call only runs with active source.
        cut = 0
        if target:
            pos = len(target)  # the sentinel's
            winner = next(
                (b for b in beams.beams if len(b.tokens) > pos and b.tokens[pos] == SENTINEL), None
            )
            if winner is None:
                raise ProtocolError("no beam holds the committed sentinel; cannot segment source")
            cut = winner.cuts[pos - 1]
        history.source_sentences.append(history.active_source[: cut + 1])
        history.target_sentences.append(target)
        history.active_source = history.active_source[cut + 1 :]
        history.active_target_committed.clear()
        history.check_paired()
        self.segment_ordinal += 1

    def _evict(self) -> None:
        history = self.history
        config = self.config
        while history.buffered_source_words() > config.max_buffer_words:
            if config.history_remove == "oldest_sentence_pair":
                if not history.source_sentences:
                    self.budget_overflows += 1
                    break
                history.source_sentences.pop(0)
                history.target_sentences.pop(0)
            else:
                if history.history_source_words() == 0:
                    self.budget_overflows += 1
                    break
                _drop_oldest_words(history.source_sentences, config.history_remove_words)
                _drop_oldest_words(history.target_sentences, config.history_remove_words)
                while (
                    history.source_sentences
                    and not history.source_sentences[0]
                    and not history.target_sentences[0]
                ):
                    history.source_sentences.pop(0)
                    history.target_sentences.pop(0)
            self.evictions += 1
        self.max_buffered_words = max(
            self.max_buffered_words, history.buffered_source_words()
        )


def _drop_oldest_words(sentences: list[list[str]], count: int) -> None:
    remaining = count
    for sentence in sentences:
        if remaining <= 0:
            break
        taken = min(len(sentence), remaining)
        del sentence[:taken]
        remaining -= taken
