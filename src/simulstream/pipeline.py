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
from typing import Sequence

from .asr_stream import AsrStreamConfig, AsrStreamController
from .backends import AsrBackend, MtBackend
from .core import (
    EmissionRecord,
    InvalidArgumentError,
    VirtualClock,
    _clock_step,
    json_field,
    must_be,
    quote,
    read_jsonl,
    read_record,
    record_fields,
)
from .mt_stream import MtStreamConfig, MtStreamController

PIPELINE_MODES = ("adapted", "baseline")


@dataclass(frozen=True)
class PipelineConfig:
    asr: AsrStreamConfig
    mt: MtStreamConfig


def preset_config(mode: str) -> PipelineConfig:
    """Inference settings for the two system variants.

    "adapted" is the config classes' defaults. "baseline" differs only in
    history eviction: it drops the oldest ``history_remove_words`` words
    from each side instead of the oldest sentence pair.
    """
    if mode not in PIPELINE_MODES:
        raise InvalidArgumentError(
            f"mode must be one of {PIPELINE_MODES}, got {quote(mode)}"
        )
    mt = MtStreamConfig()
    if mode == "baseline":
        mt = replace(mt, history_remove="word_count")
    return PipelineConfig(asr=AsrStreamConfig(), mt=mt)


@dataclass(frozen=True)
class TraceEvent:
    """``duration_s`` more seconds of audio; the audio front is their sum."""

    duration_s: float


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace of {"kind": "audio", "dur": s} events.

    Any other key on a line, such as an event time ``t``, is ignored. The
    clock's rule for an audio delta (``VirtualClock.advance_audio``) holds
    at each line: ``dur`` must be >= 0 and keep the audio front, their
    running sum, finite. The first line that breaks it is refused.
    """
    front = 0.0

    def checked_event(obj: dict) -> TraceEvent:
        nonlocal front
        kind = json_field(obj, "kind", str)
        if kind != "audio":
            raise InvalidArgumentError(must_be("kind", "'audio'", kind))
        dur = json_field(obj, "dur", float)
        front = _clock_step(front, dur, "field 'dur'", InvalidArgumentError)
        return TraceEvent(dur)

    return read_jsonl(path, checked_event)


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
    ) -> None:
        self.config = config
        self.clock = VirtualClock()
        self.asr = AsrStreamController(config.asr, asr_backend, self.clock)
        self.mt = MtStreamController(config.mt, mt_backend, self.clock)
        self.records: list[EmissionRecord] = []
        # Committed words that a failed ``mt.step`` left for the next round.
        self._unsent: list[str] = []

    def feed_audio(self, duration_s: float) -> list[EmissionRecord]:
        """Advance audio availability and run one controller round; a
        failed round is retried with ``feed_audio(0.0)``."""
        self.clock.advance_audio(duration_s)
        return self._translate(self.asr.step())

    def finalize(self) -> list[EmissionRecord]:
        """Drain both controllers at end of stream; a failed call is
        retried by calling it again."""
        emitted = self._translate(self.asr.flush())
        flushed = self.mt.flush()
        self.records.extend(flushed)
        return emitted + flushed

    def _translate(self, words) -> list[EmissionRecord]:
        self._unsent += [w.text for w in words]
        emitted = self.mt.step(self._unsent)
        self._unsent = []
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


def apply_overrides(config: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Apply a nested override dict from a config file onto the preset.

    Each section is a field of ``PipelineConfig`` ("asr", "mt"), read as
    a record over the preset's values. Unknown sections and keys, and
    values of the wrong type, are rejected so typos cannot silently run
    with defaults.
    """
    if not isinstance(overrides, dict):
        raise InvalidArgumentError(must_be("overrides", "an object", overrides))
    sections = {f.name: getattr(config, f.name) for f in fields(config)}
    for section in overrides:
        if section not in sections:
            raise InvalidArgumentError(f"unknown override section {quote(section)}")
        values = json_field(overrides, section, dict, "overrides")
        preset = record_fields(sections[section])
        for key in values:
            if key not in preset:
                raise InvalidArgumentError(
                    f"unknown override key {quote(key)} in section {section!r}"
                )
        kept = {key: value for key, value in preset.items() if key not in values}
        sections[section] = read_record(
            type(sections[section]), values, f"overrides.{section}", **kept
        )
    return PipelineConfig(**sections)
