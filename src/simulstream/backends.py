"""Backend contracts and deterministic mock implementations.

A backend is anything that can decode an audio window into timed words
(ASR) or turn a history-plus-active-source request into a beam set (MT).
The mocks here are referentially transparent: the response is a pure
function of (script, request), which makes every pipeline test replayable
byte for byte. Compute cost is *reported* by the backend rather than
measured, so computational-aware latency is deterministic in simulation;
the wire adapters in :mod:`simulstream.wire` can switch to measured host
time when driving real servers.
"""

from __future__ import annotations

import json
import math
import random
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol

from .core import (
    SENTINEL,
    AsrHypothesis,
    BeamHypothesis,
    BeamSet,
    InvalidArgumentError,
    TimedWord,
    quote,
    strict_json_loads,
)
from .textnorm import has_terminal_mark


@dataclass(frozen=True)
class AsrRequest:
    stream_id: str
    window_start_s: float
    window_end_s: float
    beam_size: int


@dataclass(frozen=True)
class AsrResponse:
    hypothesis: AsrHypothesis
    compute_cost_s: float


@dataclass(frozen=True)
class MtRequest:
    history_source: tuple[tuple[str, ...], ...]
    history_target: tuple[tuple[str, ...], ...]
    active_source: tuple[str, ...]
    committed_target: tuple[str, ...]
    beam_size: int
    attention_layer_tag: str


@dataclass(frozen=True)
class MtResponse:
    beams: BeamSet
    compute_cost_s: float


class AsrBackend(Protocol):
    def decode(self, request: AsrRequest) -> AsrResponse: ...


class MtBackend(Protocol):
    def translate(self, request: MtRequest) -> MtResponse: ...


@dataclass(frozen=True)
class AsrScript:
    """Ground truth for the mock ASR: the words that exist in the audio.

    Words ending within ``stabilization_delay_s`` of the window end are
    still "unstable" and come back perturbed (case flip, punctuation
    toggle, or a small character edit, never more than two raw edits);
    earlier words are returned verbatim. Perturbations depend only on
    (seed, window end, word), so identical requests get identical replies.
    """

    words: tuple[TimedWord, ...]
    audio_duration_s: float
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
        if self.audio_duration_s < 0:
            raise InvalidArgumentError("audio_duration_s must be >= 0")
        if self.stabilization_delay_s < 0:
            raise InvalidArgumentError("stabilization_delay_s must be >= 0")
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
    (unmapped words are uppercased) and appends the sentinel after
    sentence-final source words. Beams 2..N truncate and/or perturb the
    tail of that continuation according to the seeded schedule. Each
    token's source cut is the word it translates (the sentinel's is the
    sentence-final word), so the cuts run down the diagonal.
    """

    word_map: Mapping[str, str] = field(default_factory=dict)
    tail_truncate_max: int = 0
    tail_perturb_prob: float = 0.0
    seed: int = 0
    cost_base_s: float = 0.1
    cost_per_word_s: float = 0.01

    def __post_init__(self) -> None:
        if self.tail_truncate_max < 0:
            raise InvalidArgumentError("tail_truncate_max must be >= 0")
        if not 0 <= self.tail_perturb_prob <= 1:
            raise InvalidArgumentError("tail_perturb_prob must be in [0, 1]")

    def map_word(self, word: str) -> str:
        return self.word_map.get(word, word.upper())


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
    if start < 0 or start > end or end > script.audio_duration_s + _EXTENT_SLACK_S:
        raise InvalidArgumentError(
            f"window [{start}, {end}] outside audio extent "
            f"[0, {script.audio_duration_s}]"
        )
    end = min(end, script.audio_duration_s)
    stable_before = end - script.stabilization_delay_s
    # Words start no later than they end, so only those starting inside the
    # window can lie in it; sorting their indices restores script order.
    lo = bisect_left(script._starts, start)
    hi = bisect_right(script._starts, end, lo)
    words = []
    for i in sorted(script._by_start[lo:hi]):
        w = script.words[i]
        if w.end_s > end:
            continue
        text = w.text
        if w.end_s > stable_before:
            rng = random.Random(f"{script.seed}:asr:{end!r}:{i}:{w.text}")
            text = _perturb_word(w.text, rng)
        words.append(TimedWord(text, w.start_s, w.end_s))
    cost = script.cost_base_s + script.cost_per_audio_s * (end - start)
    return AsrResponse(AsrHypothesis(tuple(words), start), cost)


def _mt_fingerprint(request: MtRequest) -> str:
    return json.dumps(
        [
            [list(s) for s in request.history_source],
            [list(s) for s in request.history_target],
            list(request.active_source),
            list(request.committed_target),
            request.beam_size,
            request.attention_layer_tag,
        ],
        ensure_ascii=False,
        separators=(",", ":"),
    )


def mock_mt_translate(script: MtScript, request: MtRequest) -> MtResponse:
    """Translate the uncovered active source into a scripted beam set."""
    active = list(request.active_source)
    cost = script.cost_base_s + script.cost_per_word_s * len(active)
    if not active:
        return MtResponse(BeamSet((), request.beam_size), cost)

    full_tokens: list[str] = []
    positions: list[int] = []
    for i, word in enumerate(active):
        full_tokens.append(script.map_word(word))
        positions.append(i)
        if has_terminal_mark(word):
            full_tokens.append(SENTINEL)
            positions.append(i)

    committed = list(request.committed_target)
    n_committed = len(committed)
    continuation = full_tokens[n_committed:]
    # Committed tokens beyond this translation cut at the last active word.
    positions += [len(active) - 1] * (n_committed - len(positions))
    fingerprint = _mt_fingerprint(request)

    beams = []
    for b in range(1, request.beam_size + 1):
        rng = random.Random(f"{script.seed}:mt:{fingerprint}:{b}")
        tail = list(continuation)
        if b > 1 and script.tail_truncate_max > 0:
            cut = rng.randint(0, min(script.tail_truncate_max, len(tail)))
            if cut:
                tail = tail[:-cut]
        if b > 1 and tail and rng.random() < script.tail_perturb_prob:
            tail[-1] = tail[-1] + "~"
        tokens = committed + tail
        beams.append(
            BeamHypothesis(tuple(tokens), float(-(b - 1)), tuple(positions[: len(tokens)]))
        )
    return MtResponse(BeamSet(tuple(beams), request.beam_size), cost)


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


def _require(mapping: dict, key: str, kind: type, where: str):
    name = f"{where}.{key}" if where else key
    if key not in mapping:
        raise InvalidArgumentError(f"mock script missing field {name}")
    value = mapping[key]
    # A bool is not an int here, and an int too large for a float stays
    # an int and fails.
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise InvalidArgumentError(
            f"mock script field {name} must be {kind.__name__}, got {quote(value)}"
        )
    return value


def _optional(mapping: dict, key: str, kind: type, where: str, default):
    return _require(mapping, key, kind, where) if key in mapping else default


@dataclass(frozen=True)
class MockScripts:
    asr: AsrScript
    mt: MtScript


def load_mock_script(path: str | Path) -> MockScripts:
    """Load a mock script pair from a JSON file (layout: ``parse_mock_script``)."""
    try:
        data = strict_json_loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InvalidArgumentError(f"mock script {path}: invalid JSON: {exc}") from exc
    return parse_mock_script(data)


def parse_mock_script(data: object) -> MockScripts:
    """Build a mock script pair from decoded JSON.

    Layout: {"seed": int, "asr": {"words": [{"text", "start_s", "end_s"}...],
    "audio_duration_s": float, ...}, "mt": {"word_map": {...}, ...}} with all
    perturbation and cost knobs optional. Keys it does not know are
    ignored; a known key of the wrong type is an ``InvalidArgumentError``
    naming it.
    """
    if not isinstance(data, dict):
        raise InvalidArgumentError("mock script must be a JSON object")
    seed = _optional(data, "seed", int, "", 0)
    asr_raw = _optional(data, "asr", dict, "", {})
    mt_raw = _optional(data, "mt", dict, "", {})

    words = []
    for i, item in enumerate(_optional(asr_raw, "words", list, "asr", [])):
        where = f"asr.words[{i}]"
        if not isinstance(item, dict):
            raise InvalidArgumentError(f"mock script field {where} must be object")
        words.append(
            TimedWord(
                _require(item, "text", str, where),
                _require(item, "start_s", float, where),
                _require(item, "end_s", float, where),
            )
        )
    asr = AsrScript(
        words=tuple(words),
        audio_duration_s=_optional(
            asr_raw, "audio_duration_s", float, "asr", words[-1].end_s if words else 0.0
        ),
        stabilization_delay_s=_optional(asr_raw, "stabilization_delay_s", float, "asr", 0.0),
        seed=_optional(asr_raw, "seed", int, "asr", seed),
        cost_base_s=_optional(asr_raw, "cost_base_s", float, "asr", 0.1),
        cost_per_audio_s=_optional(asr_raw, "cost_per_audio_s", float, "asr", 0.01),
    )

    word_map = _optional(mt_raw, "word_map", dict, "mt", {})
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in word_map.items()):
        raise InvalidArgumentError("mock script field mt.word_map must map str to str")
    mt = MtScript(
        word_map=dict(word_map),
        tail_truncate_max=_optional(mt_raw, "tail_truncate_max", int, "mt", 0),
        tail_perturb_prob=_optional(mt_raw, "tail_perturb_prob", float, "mt", 0.0),
        seed=_optional(mt_raw, "seed", int, "mt", seed),
        cost_base_s=_optional(mt_raw, "cost_base_s", float, "mt", 0.1),
        cost_per_word_s=_optional(mt_raw, "cost_per_word_s", float, "mt", 0.01),
    )
    return MockScripts(asr=asr, mt=mt)
