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
    json_field,
    must_be,
    quote,
    read_jsonl,
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
        raise InvalidArgumentError(
            f"mode must be one of {PIPELINE_MODES}, got {quote(mode)}"
        )
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
    last_t = 0.0

    def audio_event(obj: dict) -> TraceEvent:
        nonlocal last_t
        kind = json_field(obj, "kind", str)
        if kind != "audio":
            raise InvalidArgumentError(must_be("kind", "'audio'", kind))
        event = TraceEvent(
            t=json_field(obj, "t", float), duration_s=json_field(obj, "dur", float)
        )
        if event.t < last_t:
            raise InvalidArgumentError("event times must be non-decreasing")
        last_t = event.t
        return event

    return read_jsonl(path, audio_event)


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


def override_keys(section_config) -> dict[str, type]:
    """The keys an override section may set, with their declared types.

    A field holding another config is set through its own section instead.
    """
    hints = get_type_hints(type(section_config))
    return {
        f.name: hints[f.name]
        for f in fields(section_config)
        if hints[f.name] in (int, float, str)
    }


def _override(section_config, section: str, values: dict):
    keys = override_keys(section_config)
    checked = {}
    for key in values:
        if key not in keys:
            raise InvalidArgumentError(
                f"unknown override key {quote(key)} in section {section!r}"
            )
        checked[key] = json_field(values, key, keys[key], f"overrides.{section}")
    return replace(section_config, **checked)


def apply_overrides(config: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Apply a nested override dict from a config file onto the preset.

    Recognized sections: "asr", "mt", "ralcp", "waitk" and "matcher" (the
    ASR word matcher); ``override_keys`` lists each section's keys. Unknown
    sections and keys, and values of the wrong type, are rejected so typos
    cannot silently run with defaults.
    """
    if not isinstance(overrides, dict):
        raise InvalidArgumentError(must_be("overrides", "an object", overrides))
    asr = config.asr
    mt = config.mt
    for section in overrides:
        values = json_field(overrides, section, dict, "overrides")
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
