from __future__ import annotations

import math
import random

import pytest

from helpers import build_scripts, synth_sentences
from simulstream.asr_stream import AsrStreamConfig, AsrStreamController
from simulstream.backends import AsrRequest, AsrResponse, MockAsrBackend
from simulstream.core import (
    AsrHypothesis,
    BackendError,
    InvalidArgumentError,
    ProtocolError,
    TimedWord,
    VirtualClock,
)


class ScriptedBackend:
    """Returns canned hypotheses, one per decode call."""

    def __init__(self, hypotheses: list[list[TimedWord]], cost: float = 0.0) -> None:
        self.hypotheses = hypotheses
        self.cost = cost
        self.calls = 0

    def decode(self, request: AsrRequest) -> AsrResponse:
        words = [
            w
            for w in self.hypotheses[min(self.calls, len(self.hypotheses) - 1)]
            if w.start_s >= request.window_start_s and w.end_s <= request.window_end_s
        ]
        self.calls += 1
        return AsrResponse(AsrHypothesis(tuple(words)), self.cost)


def _w(text: str, i: int, dur: float = 0.5) -> TimedWord:
    return TimedWord(text, i * dur, (i + 1) * dur)


def _controller(backend, **kwargs) -> tuple[AsrStreamController, VirtualClock]:
    clock = VirtualClock()
    config = AsrStreamConfig(**kwargs)
    return AsrStreamController(config, backend, clock), clock


def test_identical_consecutive_decodes_commit_everything() -> None:
    words = [_w("the", 0), _w("answer", 1), _w("is", 2), _w("here", 3)]
    backend = ScriptedBackend([words, words])
    controller, clock = _controller(backend)
    clock.advance_audio(2.0)  # all four words are audible
    assert controller.step() == []  # first decode: nothing to agree with
    clock.advance_audio(1.0)  # trailing silence triggers the second decode
    committed = controller.step()
    assert [w.text for w in committed] == ["the", "answer", "is", "here"]


def test_sentence_end_commits_and_trims_window() -> None:
    h1 = [_w("The", 0), _w("cat", 1)]
    h2 = [_w("The", 0), _w("cat", 1), _w("sat.", 2)]
    backend = ScriptedBackend([h1, h2, h2])
    controller, clock = _controller(backend)
    for _ in range(3):
        clock.advance_audio(1.0)
        controller.step()
    texts = controller.transcript()
    assert texts == ["The", "cat", "sat."]
    assert controller.sentence_trims == 1
    assert controller.state.window_start_s == pytest.approx(1.5)  # end of "sat."
    assert controller.state.prev_hypothesis is None


def test_no_decode_below_min_chunk_or_initial_wait() -> None:
    backend = ScriptedBackend([[_w("x", 0)]])
    controller, clock = _controller(backend, min_chunk_s=1.0, initial_wait_s=2.0)
    clock.advance_audio(0.5)
    controller.step()
    assert backend.calls == 0  # below min chunk
    clock.advance_audio(1.0)
    controller.step()
    assert backend.calls == 0  # 1.5s total, still below initial wait
    clock.advance_audio(0.5)
    controller.step()
    assert backend.calls == 1


def test_backend_failure_leaves_state_unchanged_and_is_retryable() -> None:
    class Flaky:
        def __init__(self) -> None:
            self.calls = 0

        def decode(self, request: AsrRequest) -> AsrResponse:
            self.calls += 1
            if self.calls == 1:
                raise BackendError("boom")
            return AsrResponse(AsrHypothesis((_w("ok", 0),)), 0.0)

    controller, clock = _controller(Flaky())
    clock.advance_audio(1.0)
    before_now = clock.now_s
    with pytest.raises(BackendError):
        controller.step()
    assert controller.state.decoded_upto_s == 0.0
    assert clock.now_s == before_now
    assert controller.step() == []  # retry succeeds (first decode of the pair)
    assert controller.state.decoded_upto_s == 1.0


def test_unstable_tail_never_deadlocks_the_window() -> None:
    class NeverStable:
        """Last word flips between two spellings too far apart to match."""

        def __init__(self) -> None:
            self.calls = 0

        def decode(self, request: AsrRequest) -> AsrResponse:
            self.calls += 1
            words = []
            i = 0
            while (i + 1) * 0.5 <= request.window_end_s:
                start, end = i * 0.5, (i + 1) * 0.5
                if start >= request.window_start_s:
                    words.append(TimedWord(f"w{i}", start, end))
                i += 1
            if words:
                flip = "aaaaaa" if self.calls % 2 else "zzzzzz"
                words[-1] = TimedWord(flip, words[-1].start_s, words[-1].end_s)
            return AsrResponse(AsrHypothesis(tuple(words)), 0.0)

    controller, clock = _controller(NeverStable(), max_window_s=30.0)
    transcript_sizes = []
    for _ in range(40):
        clock.advance_audio(1.0)
        controller.step()
        assert controller.window_length_s <= 30.0
        transcript_sizes.append(len(controller.state.committed))
    assert controller.force_trims >= 1  # the window filled and was cut
    assert transcript_sizes[-1] > transcript_sizes[0]  # still no deadlock
    texts = controller.transcript()
    assert len(texts) == len(set(texts))  # force trims never double-commit


class FixedReply:
    """Returns the same words for every window, unfiltered."""

    def __init__(self, words: list[TimedWord]) -> None:
        self.words = tuple(words)

    def decode(self, request: AsrRequest) -> AsrResponse:
        return AsrResponse(AsrHypothesis(self.words), 0.0)


def _window_error(words: list[TimedWord], start: float, end: float) -> str | None:
    """The error the per-word walk gives a reply over [start, end], if any:
    a word with a NaN time lies outside every window."""
    for i, w in enumerate(words):
        if math.isnan(w.start_s) or math.isnan(w.end_s) or w.start_s < start or w.end_s > end:
            return (
                f"field 'words[{i}]' lies outside the requested window "
                f"[{start}, {end}]: [{w.start_s}, {w.end_s}]"
            )
    return None


def _decode_in_window(words: list[TimedWord]) -> str | None:
    """Decode ``words`` as the reply for the window [1.0, 3.0]; the error, if any."""
    controller, clock = _controller(FixedReply(words))
    controller.state.window_start_s = controller.state.decoded_upto_s = 1.0
    clock.advance_audio(3.0)
    try:
        controller.step()
    except ProtocolError as exc:
        assert controller.decodes == 0 and controller.state.decoded_upto_s == 1.0
        return str(exc)
    assert controller.decodes == 1
    return None


_NAN = math.nan


@pytest.mark.parametrize(
    "times, bad",
    [
        ([(0.5, 1.5), (1.5, 2.0)], 0),  # starts before the window
        ([(1.0, 1.5), (1.5, 3.5)], 1),  # ends after it
        ([(1.0, 1.5), (1.5, _NAN), (2.0, 2.5)], 1),  # a NaN end lies outside every window
        ([(1.0, 1.5), (1.5, _NAN), (2.0, 3.5)], 1),  # the first word outside is named
        ([(1.0, 1.5), (1.5, 3.0)], None),  # the window's own edges
        ([(1.0, 1.5), (1.5, 2.0), (2.0, _NAN)], 2),
        ([(1.0, 1.5), (_NAN, _NAN)], 1),
        ([(_NAN, 1.5), (1.5, 3.5)], 0),  # so does a NaN start
        ([], None),
        ([(1.0, 1.0), (3.0, 3.0)], None),
        ([(_NAN, 1.5), (0.5, 1.6)], 0),
        ([(1.0, _NAN), (1.5, 3.5)], 0),
        ([(1.0, 3.5), (1.5, _NAN)], 0),
    ],
)
def test_a_reply_outside_the_window_is_refused_naming_the_walks_word(times, bad) -> None:
    words = [TimedWord(f"w{i}", start, end) for i, (start, end) in enumerate(times)]
    error = _decode_in_window(words)
    assert error == _window_error(words, 1.0, 3.0)
    assert (error is None) == (bad is None)
    if bad is not None:
        assert error.startswith(f"field 'words[{bad}]' lies outside the requested window")


def test_window_checks_match_the_per_word_walk() -> None:
    rng = random.Random(29)
    refused = 0
    for _ in range(500):
        times = sorted(rng.uniform(0.0, 4.0) for _ in range(rng.randint(0, 6)))
        words = []
        for i, end in enumerate(times):
            start = rng.uniform(max(0.0, end - 1.0), end)
            if rng.random() < 0.1:
                start = _NAN
            if rng.random() < 0.1:
                end = _NAN
            words.append(TimedWord(f"w{i}", start, end))
        try:
            AsrHypothesis(tuple(words))
        except InvalidArgumentError:
            continue
        error = _decode_in_window(words)
        assert error == _window_error(words, 1.0, 3.0)
        refused += error is not None
    assert refused >= 50


def test_force_trim_with_nothing_committed_caps_window() -> None:
    class Empty:
        def decode(self, request: AsrRequest) -> AsrResponse:
            return AsrResponse(AsrHypothesis(()), 0.0)

    controller, clock = _controller(Empty(), max_window_s=30.0)
    for _ in range(35):
        clock.advance_audio(1.0)
        controller.step()
        assert controller.window_length_s <= 30.0
    assert controller.force_trims >= 1
    assert controller.state.committed == []


def test_prefix_stable_mock_transcribes_everything_after_flush() -> None:
    rng = random.Random(41)
    sentences = synth_sentences(rng, 5)
    asr_script, _, duration = build_scripts(sentences, stabilization_delay_s=0.0)
    backend = MockAsrBackend(asr_script)
    controller, clock = _controller(backend)
    remaining = duration
    while remaining > 0:
        step = min(1.0, remaining)
        clock.advance_audio(step)
        remaining -= step
        controller.step()
    controller.flush()
    truth = [w.text for w in asr_script.words]
    assert controller.transcript() == truth


def test_committed_transcript_is_append_only_under_noise() -> None:
    rng = random.Random(59)
    for case in range(15):
        sentences = synth_sentences(rng, rng.randint(1, 4))
        asr_script, _, duration = build_scripts(
            sentences, seed=case, stabilization_delay_s=rng.choice([0.0, 1.0, 2.5])
        )
        backend = MockAsrBackend(asr_script)
        controller, clock = _controller(backend)
        previous: list[str] = []
        remaining = duration
        while remaining > 0:
            step = min(rng.choice([0.4, 1.0, 1.7]), remaining)
            clock.advance_audio(step)
            remaining -= step
            newly = controller.step()
            now = controller.transcript()
            assert now[: len(previous)] == previous
            assert len(now) == len(previous) + len(newly)
            previous = now
            for word in newly:
                assert clock.audio_available_s >= word.end_s
        controller.flush()
        assert controller.transcript()[: len(previous)] == previous


def test_config_validation() -> None:
    with pytest.raises(InvalidArgumentError):
        AsrStreamConfig(min_chunk_s=0.0)
    with pytest.raises(InvalidArgumentError):
        AsrStreamConfig(min_chunk_s=5.0, max_window_s=2.0)
    with pytest.raises(InvalidArgumentError, match="initial_wait_s must be >= 0, got -0.5"):
        AsrStreamConfig(initial_wait_s=-0.5)
