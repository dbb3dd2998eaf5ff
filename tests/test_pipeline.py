from __future__ import annotations

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import DEEP_JSON, build_scripts, chunked_trace, offline_translation, synth_sentences
from simulstream.asr_stream import AsrStreamConfig
from simulstream.backends import MockAsrBackend, MockMtBackend, load_mock_script
from simulstream.core import (
    InvalidArgumentError,
    check_emission_log,
    read_json_file,
    record_fields,
)
from simulstream.metrics import strip_sentinels
from simulstream.mt_stream import MtStreamConfig
from simulstream.pipeline import (
    Pipeline,
    PipelineConfig,
    TraceEvent,
    apply_overrides,
    preset_config,
    read_trace,
)
from simulstream.textnorm import has_terminal_mark


def _run(sentences, mode="adapted", seed=0, **script_kwargs):
    asr_script, mt_script, duration = build_scripts(sentences, seed=seed, **script_kwargs)
    pipeline = Pipeline(
        preset_config(mode), MockAsrBackend(asr_script), MockMtBackend(mt_script)
    )
    records, summary = pipeline.run_trace(chunked_trace(duration))
    return pipeline, records, summary


def test_preset_matches_inference_defaults() -> None:
    adapted = preset_config("adapted")
    assert adapted.asr.initial_wait_s == 1.0
    assert adapted.asr.min_chunk_s == 1.0
    assert adapted.asr.max_window_s == 30.0
    assert adapted.asr.backend_beam == 5
    assert adapted.asr.levenshtein_threshold == 2
    assert adapted.mt.wait_k == 3
    assert adapted.mt.agreement_ratio == 0.5
    assert adapted.mt.beam_size == 10
    assert adapted.mt.attention_layer_tag == "6"
    assert adapted.mt.max_buffer_words == 80
    assert adapted.mt.history_remove == "oldest_sentence_pair"

    baseline = preset_config("baseline")
    assert baseline.mt.history_remove == "word_count"
    assert baseline.mt.history_remove_words == 20
    # everything else is shared between the two columns
    assert baseline.asr == adapted.asr
    assert baseline.mt == replace(adapted.mt, history_remove="word_count")


def test_adapted_preset_is_the_config_defaults() -> None:
    assert preset_config("adapted") == PipelineConfig(AsrStreamConfig(), MtStreamConfig())


def test_adapted_with_word_count_eviction_is_the_baseline() -> None:
    overridden = apply_overrides(
        preset_config("adapted"), {"mt": {"history_remove": "word_count"}}
    )
    assert overridden == preset_config("baseline")


def test_streaming_equals_offline_with_prefix_stable_mocks() -> None:
    rng = random.Random(101)
    sentences = synth_sentences(rng, 4)
    pipeline, records, summary = _run(sentences)
    streamed = strip_sentinels([r.token for r in records])
    transcript = pipeline.asr.transcript()
    mt_script = pipeline.mt.backend.script
    assert streamed == offline_translation(mt_script, transcript)
    assert summary.words_committed == len(transcript)
    assert summary.segments_closed == 4


def test_emission_log_is_monotone_and_ca_dominates() -> None:
    rng = random.Random(103)
    pipeline, records, _ = _run(synth_sentences(rng, 3))
    check_emission_log(records)
    for r in records:
        assert r.nca_time_s <= r.ca_time_s


def test_same_seed_same_trace_is_deterministic() -> None:
    rng = random.Random(107)
    sentences = synth_sentences(rng, 3)
    _, first, s1 = _run(sentences, seed=5, stabilization_delay_s=1.0)
    _, second, s2 = _run(sentences, seed=5, stabilization_delay_s=1.0)
    assert first == second
    assert s1 == s2


def test_empty_trace_produces_empty_log() -> None:
    asr_script, mt_script, _ = build_scripts([["one."]])
    pipeline = Pipeline(
        preset_config("adapted"), MockAsrBackend(asr_script), MockMtBackend(mt_script)
    )
    records, summary = pipeline.run_trace([])
    assert records == []
    assert summary.words_committed == 0
    assert summary.segments_closed == 0
    assert summary.asr_calls == 0


def test_baseline_mode_runs_end_to_end() -> None:
    rng = random.Random(109)
    pipeline, records, summary = _run(synth_sentences(rng, 6), mode="baseline")
    assert summary.segments_closed >= 1
    streamed = strip_sentinels([r.token for r in records])
    assert streamed == offline_translation(
        pipeline.mt.backend.script, pipeline.asr.transcript()
    )


NOISY = dict(stabilization_delay_s=0.6, tail_truncate_max=2, tail_perturb_prob=0.3)


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
@pytest.mark.parametrize("mode", ["adapted", "baseline"])
def test_long_stream_invariants_hold_after_every_step(mode, noisy) -> None:
    sentences = synth_sentences(random.Random(113), 200)
    asr_script, mt_script, duration = build_scripts(
        sentences, seed=3, **(NOISY if noisy else {})
    )
    pipeline = Pipeline(
        preset_config(mode), MockAsrBackend(asr_script), MockMtBackend(mt_script)
    )
    tokens: list[str] = []
    transcript: list[str] = []
    for event in chunked_trace(duration):
        emitted = pipeline.feed_audio(event.duration_s)
        assert pipeline.mt.history.buffered_source_words() <= 80
        assert pipeline.asr.window_length_s <= 30.0
        committed = pipeline.asr.transcript()
        assert committed[: len(transcript)] == transcript
        transcript = committed
        tokens += [r.token for r in emitted]
        assert [r.token for r in pipeline.records] == tokens
        segment = pipeline.mt.history.active_target_committed
        assert tokens[len(tokens) - len(segment) :] == segment
        if not noisy:
            # Every ready segment closed within the step that made it ready.
            assert not any(has_terminal_mark(w) for w in pipeline.mt.history.active_source)
    pipeline.finalize()
    check_emission_log(pipeline.records)
    assert [r.token for r in pipeline.records][: len(tokens)] == tokens
    assert pipeline.mt.evictions > 0
    assert pipeline.mt.max_buffered_words <= 80
    assert pipeline.mt.budget_overflows == 0
    if not noisy:
        streamed = strip_sentinels([r.token for r in pipeline.records])
        assert streamed == offline_translation(mt_script, pipeline.asr.transcript())
        assert pipeline.mt.segment_ordinal == len(sentences)


def test_noisy_flush_streams_the_whole_translation() -> None:
    # Unstable ASR tails and disagreeing beams stall the final vote; the
    # flush must still emit every word of the committed transcript.
    short = []
    for seed in range(30):
        sentences = synth_sentences(random.Random(seed), 24)
        pipeline, records, _ = _run(sentences, seed=seed, **NOISY)
        check_emission_log(records)
        streamed = strip_sentinels([r.token for r in records])
        if streamed != offline_translation(
            pipeline.mt.backend.script, pipeline.asr.transcript()
        ):
            short.append(seed)
    assert short == []


def test_read_trace_validates(tmp_path) -> None:
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"t": 1.0, "kind": "audio", "dur": 1.0}\n{"t": 2.0, "kind": "audio", "dur": 0.5}\n',
        encoding="utf-8",
    )
    events = read_trace(path)
    assert events == [TraceEvent(1.0, 1.0), TraceEvent(2.0, 0.5)]
    path.write_text('{"t": 1.0, "kind": "video", "dur": 1.0}\n', encoding="utf-8")
    with pytest.raises(InvalidArgumentError):
        read_trace(path)
    path.write_text(
        '{"t": 2.0, "kind": "audio", "dur": 1.0}\n{"t": 1.0, "kind": "audio", "dur": 1.0}\n',
        encoding="utf-8",
    )
    with pytest.raises(InvalidArgumentError):
        read_trace(path)


@pytest.mark.parametrize(
    "line, match",
    [
        ('{"t": 1.0, "kind": "audio", "dur": NaN}', "NaN"),
        ('{"t": 1.0, "kind": "audio", "dur": "1.0"}', "field 'dur' must be a number"),
        ('{"t": 1.0, "kind": "audio", "dur": 1e999}', "field 'dur' must be a number"),
        ('{"t": true, "kind": "audio", "dur": 1.0}', "field 't' must be a number"),
        ('{"t": 1.0, "kind": "audio"}', "'dur'"),
        (DEEP_JSON, "nested too deeply"),
    ],
    ids=["nan", "string", "overflow", "bool", "missing", "deep"],
)
def test_read_trace_rejects_bad_numbers_naming_the_line(tmp_path, line, match) -> None:
    path = tmp_path / "trace.jsonl"
    path.write_text('{"t": 0.5, "kind": "audio", "dur": 0.5}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError, match=rf"trace\.jsonl:2: .*{match}"):
        read_trace(path)


@pytest.mark.parametrize(
    "line, named",
    [
        ('{"t": 1.0, "kind": "video", "pad": "' + "x" * 200_000 + '"}', "field 'kind' must be 'audio', got 'video'"),
        ('{"t": 1.0, "kind": "audio", "dur": "' + "1" * 200_000 + '"}', "field 'dur' must be a number"),
    ],
    ids=["not_audio", "bad_number"],
)
def test_read_trace_quotes_only_an_excerpt_of_a_huge_line(tmp_path, line, named) -> None:
    path = tmp_path / "trace.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError) as info:
        read_trace(path)
    message = str(info.value)
    assert "trace.jsonl:1: " in message and named in message
    assert len(message) < 500


def test_apply_overrides_nested_sections() -> None:
    config = preset_config("adapted")
    updated = apply_overrides(
        config,
        {
            "asr": {"min_chunk_s": 2.0, "levenshtein_threshold": 1},
            "mt": {"max_buffer_words": 40, "agreement_ratio": 0.7, "wait_k": 5},
        },
    )
    assert updated.asr.min_chunk_s == 2.0
    assert updated.asr.levenshtein_threshold == 1
    assert updated.mt.agreement_ratio == 0.7
    assert updated.mt.wait_k == 5
    assert updated.mt.max_buffer_words == 40
    with pytest.raises(InvalidArgumentError):
        apply_overrides(config, {"typo_section": {}})
    with pytest.raises(InvalidArgumentError):
        apply_overrides(config, {"asr": {"not_a_field": 1}})
    with pytest.raises(InvalidArgumentError, match="seed"):
        apply_overrides(config, {"seed": 9})
    with pytest.raises(InvalidArgumentError, match="overrides"):
        apply_overrides(config, [1])


# Every key a config file may set under "overrides", by section. Adding a
# knob means editing this table and README's simulate section on purpose.
OVERRIDE_KEYS = {
    "asr": ["max_window_s", "min_chunk_s", "initial_wait_s", "levenshtein_threshold", "backend_beam"],
    "mt": [
        "agreement_ratio", "beam_size", "wait_k", "max_buffer_words",
        "history_remove", "history_remove_words", "attention_layer_tag",
    ],
}


def test_override_keys_match_the_config_dataclasses_and_the_readme() -> None:
    config = preset_config("adapted")
    sections = {"asr": config.asr, "mt": config.mt}
    assert {name: list(record_fields(c)) for name, c in sections.items()} == OVERRIDE_KEYS
    for name, section_config in sections.items():
        for key in OVERRIDE_KEYS[name]:
            same = {name: {key: getattr(section_config, key)}}
            assert apply_overrides(config, same) == config
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    simulate = readme.split("\n### simulate\n", 1)[1].split("\n### ", 1)[0]
    documented = {
        match[1]: re.findall(r"`(\w+)`", match[2])
        for match in re.finditer(r"^ *- `(\w+)`: (.+)$", simulate, re.MULTILINE)
    }
    assert documented == OVERRIDE_KEYS


def test_readme_simulate_config_example_runs(tmp_path) -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    simulate = readme.split("\n### simulate\n", 1)[1].split("\n### ", 1)[0]
    block = re.search(r"```json\n(.*?)```", simulate, re.DOTALL)[1]
    data = Path(__file__).parent / "data"
    config_path = tmp_path / "config.json"
    config_path.write_text(block, encoding="utf-8")
    raw = read_json_file(config_path)
    config = apply_overrides(preset_config(raw["table3"]), raw["overrides"])
    assert config != preset_config(raw["table3"])
    scripts = load_mock_script(data / "mock_script_60s.json")
    pipeline = Pipeline(config, MockAsrBackend(scripts.asr), MockMtBackend(scripts.mt))
    records, summary = pipeline.run_trace(read_trace(data / "trace_60s.jsonl"))
    check_emission_log(records)
    assert summary.tokens_emitted > 0
    assert summary.max_buffered_words <= config.mt.max_buffer_words
