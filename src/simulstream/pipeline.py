"""End-to-end wiring: trace replay through ASR and MT controllers.

A trace is a list of audio-availability events. Each event advances the
shared virtual clock, triggers an ASR step, and feeds whatever words were
committed into the MT step. ``finalize`` drains both controllers at end of
stream. Replaying the same trace with the same configuration and mock
scripts yields a byte-identical emission log.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence, get_type_hints

from .asr_stream import AsrStreamConfig, AsrStreamController
from .backends import AsrBackend, MtBackend
from .core import (
    EmissionRecord,
    InvalidArgumentError,
    VirtualClock,
    finite_field,
    quote,
    strict_json_loads,
)
from .mt_stream import MtStreamConfig, MtStreamController
from .policy import RalcpConfig, WaitKConfig
from .textnorm import MatchConfig

PIPELINE_MODES = ("adapted", "baseline")


@dataclass(frozen=True)
class PipelineConfig:
    asr: AsrStreamConfig
    mt: MtStreamConfig


def preset_config(mode: str) -> PipelineConfig:
    """Inference defaults for the two system variants.

    Shared: 1 s initial wait, 1 s decode chunk, ASR beam 5, wait-k 3,
    agreement ratio 0.5, MT beam 10, attention layer tag "6", 80-word
    buffer. The variants differ only in history eviction: the adapted
    system drops the oldest sentence pair, the baseline drops the oldest
    20 words from each side.
    """
    if mode not in PIPELINE_MODES:
        raise InvalidArgumentError(f"mode must be one of {PIPELINE_MODES}, got {mode!r}")
    asr = AsrStreamConfig(
        max_window_s=30.0,
        min_chunk_s=1.0,
        initial_wait_s=1.0,
        matcher=MatchConfig(levenshtein_threshold=2),
        backend_beam=5,
    )
    mt = MtStreamConfig(
        ralcp=RalcpConfig(agreement_ratio=0.5, beam_size=10),
        waitk=WaitKConfig(k=3),
        max_buffer_words=80,
        history_remove="oldest_sentence_pair" if mode == "adapted" else "word_count",
        history_remove_words=20,
        attention_layer_tag="6",
    )
    return PipelineConfig(asr=asr, mt=mt)


@dataclass(frozen=True)
class TraceEvent:
    t: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise InvalidArgumentError("event duration must be >= 0")
        if self.t < 0:
            raise InvalidArgumentError("event time must be >= 0")


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace of {"t": s, "kind": "audio", "dur": s} events."""
    events = []
    last_t = 0.0
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            obj = strict_json_loads(line)
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        if not isinstance(obj, dict) or obj.get("kind") != "audio":
            raise InvalidArgumentError(
                f"{path}:{lineno}: expected an audio event, got {quote(line)}"
            )
        try:
            event = TraceEvent(
                t=float(finite_field(obj, "t")), duration_s=float(finite_field(obj, "dur"))
            )
        except (KeyError, ValueError) as exc:
            raise InvalidArgumentError(f"{path}:{lineno}: bad event: {exc}") from exc
        if event.t < last_t:
            raise InvalidArgumentError(
                f"{path}:{lineno}: event times must be non-decreasing"
            )
        last_t = event.t
        events.append(event)
    return events


@dataclass
class RunSummary:
    audio_s: float = 0.0
    events: int = 0
    words_committed: int = 0
    segments_closed: int = 0
    tokens_emitted: int = 0
    evictions: int = 0
    budget_overflows: int = 0
    max_buffered_words: int = 0
    asr_calls: int = 0
    mt_calls: int = 0
    sentence_trims: int = 0
    force_trims: int = 0
    final_now_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class Pipeline:
    """One stream: a clock, an ASR controller, and an MT controller."""

    def __init__(
        self,
        config: PipelineConfig,
        asr_backend: AsrBackend,
        mt_backend: MtBackend,
        stream_id: str = "stream0",
    ) -> None:
        self.config = config
        self.clock = VirtualClock()
        self.asr = AsrStreamController(config.asr, asr_backend, self.clock, stream_id)
        self.mt = MtStreamController(config.mt, mt_backend, self.clock)
        self.records: list[EmissionRecord] = []

    def feed_audio(self, duration_s: float) -> list[EmissionRecord]:
        """Advance audio availability and run one controller round."""
        self.clock.advance_audio(duration_s)
        words = self.asr.step()
        emitted = self.mt.step([w.text for w in words])
        self.records.extend(emitted)
        return emitted

    def finalize(self) -> list[EmissionRecord]:
        """Drain both controllers at end of stream."""
        words = self.asr.flush()
        emitted = self.mt.step([w.text for w in words])
        emitted += self.mt.flush()
        self.records.extend(emitted)
        return emitted

    def run_trace(
        self, events: Sequence[TraceEvent]
    ) -> tuple[list[EmissionRecord], RunSummary]:
        for event in events:
            self.feed_audio(event.duration_s)
        self.finalize()
        summary = RunSummary(
            audio_s=self.clock.audio_available_s,
            events=len(events),
            words_committed=len(self.asr.state.committed),
            segments_closed=self.mt.segment_ordinal,
            tokens_emitted=len(self.records),
            evictions=self.mt.evictions,
            budget_overflows=self.mt.budget_overflows,
            max_buffered_words=self.mt.max_buffered_words,
            asr_calls=self.asr.decodes,
            mt_calls=self.mt.translate_calls,
            sentence_trims=self.asr.sentence_trims,
            force_trims=self.asr.force_trims,
            final_now_s=self.clock.now_s,
        )
        return list(self.records), summary


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def override_keys(section_config) -> dict[str, type]:
    """The keys an override section may set, with their declared types.

    A field holding another config is set through its own section instead.
    """
    hints = get_type_hints(type(section_config))
    return {
        f.name: hints[f.name]
        for f in fields(section_config)
        if hints[f.name] in _TYPE_NAMES
    }


def _override(section_config, section: str, values: dict):
    keys = override_keys(section_config)
    checked = {}
    for key, value in values.items():
        if key not in keys:
            raise InvalidArgumentError(
                f"unknown override key {quote(key)} in section {section!r}"
            )
        kind = keys[key]
        if kind is float:
            # JSON writes 2.0 as 2, so a float field takes an int.
            try:
                value = float(finite_field(values, key))
            except ValueError as exc:
                raise InvalidArgumentError(f"override {section}.{exc}") from None
        elif type(value) is not kind:  # an int field takes no float or bool
            raise InvalidArgumentError(
                f"override {section}.{key} must be {_TYPE_NAMES[kind]}, "
                f"got {quote(value)}"
            )
        checked[key] = value
    return replace(section_config, **checked)


def apply_overrides(config: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Apply a nested override dict from a config file onto the preset.

    Recognized sections: "asr", "mt", "ralcp", "waitk" and "matcher" (the
    ASR word matcher); ``override_keys`` lists each section's keys. Unknown
    sections and keys, and values of the wrong type, are rejected so typos
    cannot silently run with defaults.
    """
    if not isinstance(overrides, dict):
        raise InvalidArgumentError("overrides must be an object")
    asr = config.asr
    mt = config.mt
    for section, values in overrides.items():
        if not isinstance(values, dict):
            raise InvalidArgumentError(
                f"override section {quote(section)} must be an object"
            )
        if section == "asr":
            asr = _override(asr, section, values)
        elif section == "mt":
            mt = _override(mt, section, values)
        elif section == "ralcp":
            mt = replace(mt, ralcp=_override(mt.ralcp, section, values))
        elif section == "waitk":
            mt = replace(mt, waitk=_override(mt.waitk, section, values))
        elif section == "matcher":
            asr = replace(asr, matcher=_override(asr.matcher, section, values))
        else:
            raise InvalidArgumentError(f"unknown override section {quote(section)}")
    return PipelineConfig(asr=asr, mt=mt)
