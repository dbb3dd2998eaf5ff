"""Backend contracts and deterministic mock implementations.

A backend is anything that can decode an audio window into timed words
(ASR) or turn a history-plus-active-source request into a beam set (MT).
The mocks here are referentially transparent: the response is a pure
function of (script, request), which makes every pipeline test replayable
byte for byte. Compute cost is *reported* by the backend rather than
measured, so computational-aware latency is deterministic in simulation;
the wire adapters in :mod:`simulstream.wire` charge each reply the cost
its server reports (a real model's server measures its own compute).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol

from .core import (
    SENTINEL,
    AsrHypothesis,
    BackendError,
    BeamHypothesis,
    BeamSet,
    InvalidArgumentError,
    TimedWord,
    canonical_json,
    check_beam_size,
    check_word,
    json_field,
    quote,
    read_json_file,
    read_record,
)
from .textnorm import has_terminal_mark


@dataclass(frozen=True)
class AsrRequest:
    stream_id: str
    window_start_s: float
    window_end_s: float
    beam_size: int

    def __post_init__(self) -> None:
        check_beam_size(self.beam_size, "beam_size")


@dataclass(frozen=True)
class AsrResponse:
    hypothesis: AsrHypothesis
    compute_cost_s: float


@dataclass(frozen=True)
class MtRequest:
    """A translation request, and the MT controller's state between calls.

    ``history_source[i]`` translates to ``history_target[i]``, so the sides
    stay the same length and the oldest pairs are evicted together.
    """

    history_source: tuple[tuple[str, ...], ...]
    history_target: tuple[tuple[str, ...], ...]
    active_source: tuple[str, ...]
    committed_target: tuple[str, ...]
    beam_size: int

    def __post_init__(self) -> None:
        check_beam_size(self.beam_size, "beam_size")
        if len(self.history_source) != len(self.history_target):
            raise InvalidArgumentError(
                f"history desynchronized: {len(self.history_source)} source "
                f"vs {len(self.history_target)} target sentences"
            )

    def history_source_words(self) -> int:
        return sum(map(len, self.history_source))

    def buffered_source_words(self) -> int:
        """History plus active source word count (the eviction budget)."""
        return self.history_source_words() + len(self.active_source)


@dataclass(frozen=True)
class MtResponse:
    beams: BeamSet
    compute_cost_s: float


class AsrBackend(Protocol):
    def decode(self, request: AsrRequest) -> AsrResponse: ...


class MtBackend(Protocol):
    def translate(self, request: MtRequest) -> MtResponse: ...


def _check_non_negative(script, *names: str) -> None:
    for name in names:
        if getattr(script, name) < 0:
            raise InvalidArgumentError(f"{name} must be >= 0, got {getattr(script, name)}")


@dataclass(frozen=True)
class AsrScript:
    """Ground truth for the mock ASR: the words that exist in the audio.

    Words ending within ``stabilization_delay_s`` of the window end are
    still "unstable" and come back perturbed (case flip, punctuation
    toggle, or a small character edit, never more than two raw edits);
    earlier words are returned verbatim. A decode that returns an unstable
    word seeds one RNG from ``seed`` and its window (start, and end clipped
    to the audio), and its unstable words draw from it in script order; a
    decode with none seeds nothing. Identical windows get identical replies.
    The audio lasts until the last word ends unless ``audio_duration_s``
    says otherwise. A decode costs ``cost_base_s`` plus ``cost_per_audio_s``
    per second of window, which must stay finite for a window as long as
    the audio.
    """

    words: tuple[TimedWord, ...] = ()
    audio_duration_s: float | None = None
    stabilization_delay_s: float = 0.0
    seed: int = 0
    cost_base_s: float = 0.1
    cost_per_audio_s: float = 0.01
    # Script indices ordered by word start time, and those start times, so
    # a decode can bisect to its window instead of scanning every word.
    _by_start: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))
        if self.audio_duration_s is None:
            last_end = self.words[-1].end_s if self.words else 0.0
            object.__setattr__(self, "audio_duration_s", last_end)
        _check_non_negative(
            self, "audio_duration_s", "stabilization_delay_s", "cost_base_s", "cost_per_audio_s"
        )
        # Every window lies within the audio, so no reply costs more than this.
        if not self.cost_base_s + self.cost_per_audio_s * self.audio_duration_s < math.inf:
            raise InvalidArgumentError(
                "cost_base_s + cost_per_audio_s * audio_duration_s must be finite, got "
                f"{self.cost_base_s} + {self.cost_per_audio_s} * {self.audio_duration_s}"
            )
        for w in self.words:
            if not (math.isfinite(w.start_s) and math.isfinite(w.end_s)):
                raise InvalidArgumentError(
                    f"word {w.text!r} has a non-finite time [{w.start_s}, {w.end_s}]"
                )
            if w.end_s > self.audio_duration_s:
                raise InvalidArgumentError(
                    f"word {w.text!r} ends at {w.end_s} beyond audio duration "
                    f"{self.audio_duration_s}"
                )
        by_start = sorted(range(len(self.words)), key=lambda i: self.words[i].start_s)
        object.__setattr__(self, "_by_start", tuple(by_start))
        object.__setattr__(
            self, "_starts", tuple(self.words[i].start_s for i in by_start)
        )


@dataclass(frozen=True)
class MtScript:
    """Deterministic word-for-word translator behind the mock MT.

    Beam 1 maps each remaining active source word through ``word_map``
    (unmapped words are uppercased, except one that would uppercase to the
    sentinel, which stays as it is; every value must pass
    ``core.check_word``) and appends the sentinel after
    sentence-final source words. Beams 2..N truncate the tail of that
    continuation by up to ``tail_truncate_max`` tokens and, with
    probability ``tail_perturb_prob``, mark the last token ``X`` left as
    ``X~b`` for beam b, so no two beams share a perturbed token; the
    sentinel is never perturbed. A request that can draw (a noisy script,
    ``beam_size`` > 1, active source left) seeds one RNG from ``seed`` and
    the fields its reply is computed from, ``active_source``,
    ``committed_target`` and ``beam_size`` (not the history, which
    changes no beam), and beams 2..N draw from it in order; a clean
    script seeds none and its beams share beam 1's tuples. Each token's
    source cut is the word it translates (the sentinel's is the
    sentence-final word), so the cuts run down the diagonal.
    """

    word_map: Mapping[str, str] = field(default_factory=dict)
    tail_truncate_max: int = 0
    tail_perturb_prob: float = 0.0
    seed: int = 0
    cost_base_s: float = 0.1
    cost_per_word_s: float = 0.01

    def __post_init__(self) -> None:
        _check_non_negative(self, "tail_truncate_max", "cost_base_s", "cost_per_word_s")
        if not 0 <= self.tail_perturb_prob <= 1:
            raise InvalidArgumentError(
                f"tail_perturb_prob must be in [0, 1], got {self.tail_perturb_prob}"
            )
        for source, target in self.word_map.items():
            check_word(target, f"word_map[{quote(source)}]")

    def map_word(self, word: str) -> str:
        mapped = self.word_map.get(word, word.upper())
        # A word such as ``[sep]`` is no sentinel: it translates to itself.
        return word if mapped == SENTINEL else mapped


def _perturb_word(text: str, rng: random.Random) -> str:
    """Return a variant within raw edit distance 2 of ``text``."""
    kind = rng.randrange(5)
    out = text
    if kind == 0:
        pass
    elif kind == 1:  # case flip on the first character
        out = text[0].swapcase() + text[1:]
    elif kind == 2:  # punctuation toggle at the end
        if text[-1] in ".," and len(text) > 1:
            out = text[:-1]
        else:
            out = text + ","
    elif kind == 3:  # one character substitution
        i = rng.randrange(len(text))
        out = text[:i] + rng.choice("abcdefgh") + text[i + 1 :]
    else:  # two character substitutions
        for _ in range(2):
            i = rng.randrange(len(out))
            out = out[:i] + rng.choice("abcdefgh") + out[i + 1 :]
    if not out or out == SENTINEL:
        return text
    return out


_EXTENT_SLACK_S = 1e-6  # absorbs float accumulation in long traces


def mock_asr_decode(script: AsrScript, request: AsrRequest) -> AsrResponse:
    """Decode a window of the scripted audio, perturbing the unstable tail."""
    start, end = request.window_start_s, request.window_end_s
    if start < 0 or start > end:
        raise InvalidArgumentError(f"window [{start}, {end}] needs 0 <= start <= end")
    if end > script.audio_duration_s + _EXTENT_SLACK_S:
        # A well-formed request the scripted audio cannot answer: the
        # backend fails, as a model server past the end of its audio would.
        raise BackendError(
            f"window [{start}, {end}] outside audio extent "
            f"[0, {script.audio_duration_s}]"
        )
    end = min(end, script.audio_duration_s)
    # No later audio can change the words of a window ending at the audio's end.
    stable_before = end if end == script.audio_duration_s else end - script.stabilization_delay_s
    # Words start no later than they end, so only those starting inside the
    # window can lie in it; sorting their indices restores script order.
    lo = bisect_left(script._starts, start)
    hi = bisect_right(script._starts, end, lo)
    words = []
    rng = None  # seeded at the first unstable word; the rest draw from it in order
    for i in sorted(script._by_start[lo:hi]):
        w = script.words[i]
        if w.end_s > end:
            continue
        if w.end_s > stable_before:
            if rng is None:
                rng = random.Random(f"{script.seed}:asr:{start!r}:{end!r}")
            text = _perturb_word(w.text, rng)
            if text != w.text:
                w = TimedWord(text, w.start_s, w.end_s)
        words.append(w)
    cost = script.cost_base_s + script.cost_per_audio_s * (end - start)
    return AsrResponse(AsrHypothesis(tuple(words)), cost)


def _mt_fingerprint(request: MtRequest) -> str:
    # The fields a reply is computed from, and only those: the history
    # changes no beam, so it does not key the draws.
    return canonical_json([request.active_source, request.committed_target, request.beam_size])


def mock_mt_translate(script: MtScript, request: MtRequest) -> MtResponse:
    """Translate the uncovered active source into a scripted beam set."""
    active = list(request.active_source)
    cost = script.cost_base_s + script.cost_per_word_s * len(active)
    if not cost < math.inf:
        # A well-formed request the script's rates cannot price: the backend
        # fails, as ``mock_asr_decode`` does past the end of its audio.
        raise BackendError(
            f"cost_base_s + cost_per_word_s * {len(active)} active words must be finite, "
            f"got {script.cost_base_s} + {script.cost_per_word_s} * {len(active)}"
        )
    if not active:
        return MtResponse(BeamSet(()), cost)

    full_tokens: list[str] = []
    positions: list[int] = []
    for i, word in enumerate(active):
        full_tokens.append(script.map_word(word))
        positions.append(i)
        if has_terminal_mark(word):
            full_tokens.append(SENTINEL)
            positions.append(i)

    committed = tuple(request.committed_target)
    n_committed = len(committed)
    tokens = committed + tuple(full_tokens[n_committed:])
    # Committed tokens beyond this translation cut at the last active word.
    positions += [len(active) - 1] * (n_committed - len(positions))
    cuts = tuple(positions[: len(tokens)])
    # Beams 2..N of a noisy script draw, in order, from one RNG seeded once
    # per request, and build tuples of their own; the others share beam 1's.
    draws = script.tail_truncate_max > 0 or script.tail_perturb_prob > 0
    if draws and request.beam_size > 1:
        rng = random.Random(f"{script.seed}:mt:{_mt_fingerprint(request)}")

    beams = []
    for b in range(1, request.beam_size + 1):
        beam_tokens, beam_cuts = tokens, cuts
        if b > 1 and draws:
            end = len(tokens)
            if script.tail_truncate_max > 0:
                end -= rng.randint(0, min(script.tail_truncate_max, end - n_committed))
            beam_tokens = tokens[:end]
            beam_cuts = cuts[:end]
            # A beam's own mark, so perturbed beams never vote together; the
            # sentinel stays whole, so a segment still closes. The draw comes
            # first, so a kept sentinel does not shift later beams' draws.
            if (
                end > n_committed
                and rng.random() < script.tail_perturb_prob
                and tokens[end - 1] != SENTINEL
            ):
                beam_tokens = tokens[: end - 1] + (f"{tokens[end - 1]}~{b}",)
        beams.append(BeamHypothesis(beam_tokens, float(1 - b), beam_cuts))
    return MtResponse(BeamSet(tuple(beams)), cost)


class MockAsrBackend:
    """ASR backend contract over a script."""

    def __init__(self, script: AsrScript) -> None:
        self.script = script

    def decode(self, request: AsrRequest) -> AsrResponse:
        return mock_asr_decode(self.script, request)


class MockMtBackend:
    def __init__(self, script: MtScript) -> None:
        self.script = script

    def translate(self, request: MtRequest) -> MtResponse:
        return mock_mt_translate(self.script, request)


@dataclass(frozen=True)
class MockScripts:
    asr: AsrScript
    mt: MtScript


def load_mock_script(path: str | Path) -> MockScripts:
    """Load a mock script pair from a JSON file (layout: ``parse_mock_script``)."""
    return read_json_file(path, parse_mock_script)


def parse_mock_script(data: dict) -> MockScripts:
    """Build a mock script pair from a decoded JSON object.

    Layout: {"seed": int, "asr": {...}, "mt": {...}}. The keys of "asr"
    and "mt" are the fields of ``AsrScript`` and ``MtScript``, each
    optional with the dataclass default, except that a section's "seed"
    defaults to the top-level one. Keys it does not know are ignored; a
    known key of the wrong type is an ``InvalidArgumentError`` naming it.
    """
    seed = json_field(data, "seed", int, default=0)
    asr = json_field(data, "asr", dict, default={})
    mt = json_field(data, "mt", dict, default={})
    asr_seed = json_field(asr, "seed", int, "asr", default=seed)
    mt_seed = json_field(mt, "seed", int, "mt", default=seed)
    return MockScripts(
        asr=read_record(AsrScript, asr, "asr", seed=asr_seed),
        mt=read_record(MtScript, mt, "mt", seed=mt_seed),
    )
