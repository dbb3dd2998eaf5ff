"""Streaming ASR controller: window management and agreement commitment.

The controller re-decodes a growing audio window and commits the relaxed
common prefix of the last two hypotheses over that window (local
agreement between consecutive decodes). The window is trimmed at committed
sentence ends, or force-trimmed when it would exceed the configured
maximum, so decoding cost stays bounded on arbitrarily long streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import AsrBackend, AsrRequest
from .core import (
    AsrHypothesis,
    InvalidArgumentError,
    ProtocolError,
    TimedWord,
    VirtualClock,
    check_beam_size,
)
from .policy import agreed_prefix_len
from .textnorm import is_sentence_terminal


@dataclass(frozen=True)
class AsrStreamConfig:
    """ASR controller settings; the defaults are the adapted preset.

    Two hypothesis words agree when their normalized forms are at most
    ``levenshtein_threshold`` edits apart (``words_match``).
    """

    max_window_s: float = 30.0
    min_chunk_s: float = 1.0
    initial_wait_s: float = 1.0
    levenshtein_threshold: int = 2
    backend_beam: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.min_chunk_s <= self.max_window_s:
            raise InvalidArgumentError(
                f"need 0 < min_chunk_s <= max_window_s, got "
                f"{self.min_chunk_s} / {self.max_window_s}"
            )
        if self.initial_wait_s < 0:
            raise InvalidArgumentError("initial_wait_s must be >= 0")
        if self.levenshtein_threshold < 0:
            raise InvalidArgumentError(
                f"levenshtein_threshold must be >= 0, got {self.levenshtein_threshold}"
            )
        check_beam_size(self.backend_beam, "backend_beam")


@dataclass
class AsrStreamState:
    window_start_s: float = 0.0
    decoded_upto_s: float = 0.0
    prev_hypothesis: AsrHypothesis | None = None
    committed: list[TimedWord] = field(default_factory=list)
    # Committed words the current window still covers; the agreement skips
    # this many hypothesis positions so nothing is emitted twice.
    committed_in_window: int = 0


class AsrStreamController:
    """One streaming transcription session over a shared virtual clock."""

    def __init__(
        self,
        config: AsrStreamConfig,
        backend: AsrBackend,
        clock: VirtualClock,
        stream_id: str = "stream0",
    ) -> None:
        self.config = config
        self.backend = backend
        self.clock = clock
        self.stream_id = stream_id
        self.state = AsrStreamState()
        self.decodes = 0
        self.sentence_trims = 0
        self.force_trims = 0

    @property
    def window_length_s(self) -> float:
        return self.clock.audio_available_s - self.state.window_start_s

    def transcript(self) -> list[str]:
        return [w.text for w in self.state.committed]

    def step(self) -> list[TimedWord]:
        """Decode newly available audio and commit newly agreed words.

        No-op until at least ``min_chunk_s`` of undecoded audio exists and
        ``initial_wait_s`` of total audio has arrived (audio never goes
        down, so once the first decode has passed that gate it stays open).
        A backend failure propagates with the state untouched, so the step
        is retryable. A reply word outside the requested window is a
        ``ProtocolError``, raised before the state changes.
        """
        audio = self.clock.audio_available_s
        if audio - self.state.decoded_upto_s < self.config.min_chunk_s:
            return []
        if audio < self.config.initial_wait_s:
            return []
        return self._decode_and_commit(force_tail=False)

    def flush(self) -> list[TimedWord]:
        """End of stream: decode the remaining window once and commit it all.

        The final decode first commits by agreement with the previous
        hypothesis as usual, then force-commits its remaining tail, since
        no further audio will ever stabilize it.
        """
        if self.clock.audio_available_s <= self.state.window_start_s:
            return []
        return self._decode_and_commit(force_tail=True)

    def _decode_and_commit(self, force_tail: bool) -> list[TimedWord]:
        state = self.state
        audio = self.clock.audio_available_s
        request = AsrRequest(
            stream_id=self.stream_id,
            window_start_s=state.window_start_s,
            window_end_s=audio,
            beam_size=self.config.backend_beam,
        )
        response = self.backend.decode(request)
        current = response.hypothesis
        for i, w in enumerate(current.words):
            if w.start_s < request.window_start_s or w.end_s > request.window_end_s:
                raise ProtocolError(
                    f"field 'words[{i}]' lies outside the requested window "
                    f"[{request.window_start_s}, {request.window_end_s}]: [{w.start_s}, {w.end_s}]"
                )
        self.clock.charge_compute(response.compute_cost_s)
        self.decodes += 1
        state.decoded_upto_s = audio

        agreed = state.committed_in_window
        if state.prev_hypothesis is not None:
            agreed = agreed_prefix_len(
                state.prev_hypothesis.texts(),
                current.texts(),
                state.committed_in_window,
                self.config.levenshtein_threshold,
            )
        if force_tail:
            agreed = max(agreed, len(current.words))
        newly = list(current.words[state.committed_in_window : agreed])
        state.committed.extend(newly)
        state.committed_in_window = agreed
        state.prev_hypothesis = current

        start = state.window_start_s
        for word in reversed(newly):
            if is_sentence_terminal(word.text):
                start = word.end_s
                self.sentence_trims += 1
                break
        if audio - start > self.config.max_window_s:
            # Force trim: keep every agreed word, advance at least to the
            # last committed word, and never leave more than a full window.
            if state.committed_in_window > 0:
                start = max(start, state.committed[-1].end_s)
            start = max(start, audio - self.config.max_window_s)
            self.force_trims += 1
        if start != state.window_start_s:
            state.window_start_s = start
            state.prev_hypothesis = None
            tail = 0
            for w in reversed(state.committed):
                if w.end_s > start:
                    tail += 1
                else:
                    break
            state.committed_in_window = tail
        return newly
