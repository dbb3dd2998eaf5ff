from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest

from helpers import (
    DEEP_JSON,
    build_scripts,
    chunked_trace,
    offline_translation,
    oracle_levenshtein,
    oracle_resegment,
    reach_passes,
    synth_sentences,
)
from simulstream import metrics
from simulstream.asr_stream import AsrStreamConfig
from simulstream.backends import MockAsrBackend, MockMtBackend, load_mock_script
from simulstream.core import (
    SENTINEL,
    BackendError,
    InvalidArgumentError,
    canonical_json,
    check_emission_log,
    dump_jsonl,
    read_json_file,
    record_fields,
)
from simulstream.metrics import ReferenceSegment, strip_sentinels
from simulstream.mt_stream import MtStreamConfig
from simulstream.pipeline import (
    Pipeline,
    PipelineConfig,
    TraceEvent,
    apply_overrides,
    preset_config,
    read_trace,
)
from simulstream.wire import decode_request, encode_mt_request
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


def test_a_source_word_that_uppercases_to_the_sentinel_streams_as_a_word() -> None:
    sentences = [["we", "read", "[sep]", "aloud", "today."], ["then", "we", "stop."]]
    pipeline, records, summary = _run(sentences)
    tokens = [r.token for r in records]
    transcript = pipeline.asr.transcript()
    assert transcript == [w for s in sentences for w in s]
    assert strip_sentinels(tokens) == offline_translation(pipeline.mt.backend.script, transcript)
    assert "[sep]" in tokens
    assert tokens.count(SENTINEL) == summary.segments_closed == len(sentences)


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


def test_presets_write_the_same_log_on_a_noisy_talk() -> None:
    # The presets differ only in the history they evict, and no mock reply
    # reads the history: the logs match byte for byte, noise and all.
    sentences = synth_sentences(random.Random(233), 200)
    logs, histories = {}, {}
    for mode in ("adapted", "baseline"):
        pipeline, records, _ = _run(sentences, mode, seed=233, **NOISY)
        assert pipeline.mt.evictions > 0
        logs[mode] = dump_jsonl(records)
        histories[mode] = pipeline.mt.history.history_source
    assert histories["adapted"] != histories["baseline"]
    assert logs["adapted"] == logs["baseline"]
    # The noise reaches the log: the clean talk's differs.
    assert dump_jsonl(_run(sentences, "adapted", seed=233)[1]) != logs["adapted"]


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
@pytest.mark.parametrize("mode", ["adapted", "baseline"])
def test_flush_ends_an_unterminated_last_sentence_at_the_first_silent_round(
    monkeypatch, mode, noisy
) -> None:
    # Long-form speech often ends without a terminal mark: the last segment
    # never closes, so flush stops on a round that emits nothing, not on
    # an empty active chunk.
    sentences = synth_sentences(random.Random(127), 6)
    sentences[-1][-1] = sentences[-1][-1].rstrip(".")
    asr_script, mt_script, duration = build_scripts(
        sentences, seed=7, **(NOISY if noisy else {})
    )
    pipeline = Pipeline(
        preset_config(mode), MockAsrBackend(asr_script), MockMtBackend(mt_script)
    )
    rounds: list[int] = []  # tokens emitted by each flush round
    translate_and_emit = pipeline.mt._translate_and_emit

    def spy(flushing: bool = False):
        emitted = translate_and_emit(flushing)
        if flushing:
            rounds.append(len(emitted))
        return emitted

    monkeypatch.setattr(pipeline.mt, "_translate_and_emit", spy)
    tokens: list[str] = []
    for event in chunked_trace(duration):
        pipeline.feed_audio(event.duration_s)
        now = [r.token for r in pipeline.records]
        assert now[: len(tokens)] == tokens
        tokens = now
    pipeline.finalize()
    final = [r.token for r in pipeline.records]
    assert final[: len(tokens)] == tokens
    assert final[-1] != SENTINEL
    assert rounds and rounds[-1] == 0 and all(rounds[:-1])
    assert pipeline.mt.history.active_source  # the open segment never closed
    assert pipeline.mt.segment_ordinal == len(sentences) - 1
    assert pipeline.asr.transcript() == [w for sentence in sentences for w in sentence]
    # Noisy talks too: the flush streams the whole translation.
    assert strip_sentinels(final) == offline_translation(mt_script, pipeline.asr.transcript())


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
@pytest.mark.parametrize("mode", ["adapted", "baseline"])
def test_long_stream_invariants_hold_after_every_step(mode, noisy) -> None:
    # Talks of about 0.6, 5.4 and 44 minutes.
    for count in (24, 200, 1600):
        _check_invariants_after_every_step(mode, noisy, count)


def _check_invariants_after_every_step(mode: str, noisy: bool, count: int) -> None:
    sentences = synth_sentences(random.Random(113), count)
    asr_script, mt_script, duration = build_scripts(
        sentences, seed=3, **(NOISY if noisy else {})
    )
    pipeline = Pipeline(
        preset_config(mode), MockAsrBackend(asr_script), MockMtBackend(mt_script)
    )
    records, committed = pipeline.records, pipeline.asr.state.committed
    tokens: list[str] = []
    transcript: list[str] = []
    # Each step is checked by what it added, so the checks stay linear in
    # the talk's length; the whole output is compared once at the end.
    for event in chunked_trace(duration):
        before, last = len(records), records[-1] if records else None
        last_word = committed[-1] if committed else None
        emitted = pipeline.feed_audio(event.duration_s)
        assert pipeline.mt.history.buffered_source_words() <= 80
        assert pipeline.asr.window_length_s <= 30.0
        assert len(committed) >= len(transcript)
        assert not transcript or committed[len(transcript) - 1] is last_word
        transcript += [w.text for w in committed[len(transcript) :]]
        assert records[before:] == emitted
        assert not before or records[before - 1] is last
        tokens += [r.token for r in emitted]
        segment = pipeline.mt.history.committed_target
        assert tuple(tokens[len(tokens) - len(segment) :]) == segment
        if not noisy:
            # Every ready segment closed within the step that made it ready.
            assert not any(has_terminal_mark(w) for w in pipeline.mt.history.active_source)
    pipeline.finalize()
    check_emission_log(pipeline.records)
    assert [r.token for r in pipeline.records][: len(tokens)] == tokens
    assert pipeline.asr.transcript()[: len(transcript)] == transcript
    assert pipeline.mt.evictions > 0
    assert pipeline.mt.max_buffered_words <= 80
    assert pipeline.mt.budget_overflows == 0
    # Noisy talks too: the flush streams the whole translation.
    streamed = strip_sentinels([r.token for r in pipeline.records])
    assert streamed == offline_translation(mt_script, pipeline.asr.transcript())
    assert pipeline.mt.segment_ordinal == len(sentences)


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
@pytest.mark.parametrize("mode", ["adapted", "baseline"])
def test_the_mt_buffer_holds_the_budget_or_only_the_open_segment(mode, noisy) -> None:
    # Eviction removes only history, so a sentence longer than the budget
    # overflows it by the open segment's own words, and no more: in every
    # request, and in the state after every step.
    for sentences in _over_budget_talks():
        _check_buffer_after_every_step(mode, noisy, sentences)
    # Sentences of 20-40 words fit the budget: eviction never runs short.
    pipeline = _check_buffer_after_every_step(
        mode, noisy, synth_sentences(random.Random(20), 20, 20, 40)
    )
    assert pipeline.mt.evictions > 0
    assert pipeline.mt.budget_overflows == 0


def _over_budget_talks() -> list[list[list[str]]]:
    """Run-on talks of 40, 200 and 800 words, and 20 sentences of 60-100 words."""
    talks = [synth_sentences(random.Random(n), 1, n, n) for n in (40, 200, 800)]
    talks.append(synth_sentences(random.Random(60), 20, 60, 100))
    return talks


@pytest.mark.parametrize(
    "noisy, overflows",
    [(False, [0, 34, 208, 23]), (True, [0, 34, 208, 24])],
    ids=["clean", "noisy"],
)
def test_every_history_pair_keeps_a_source_word_after_every_step(noisy, overflows) -> None:
    # Eviction stops at one test, for both modes: the history holds no
    # source word. Under oldest_sentence_pair that means it holds no pair,
    # since each segment closure moves at least one source word.
    counted = []
    for sentences in _over_budget_talks():
        asr_script, mt_script, duration = build_scripts(
            sentences, seed=3, **(NOISY if noisy else {})
        )
        pipeline = Pipeline(
            preset_config("adapted"), MockAsrBackend(asr_script), MockMtBackend(mt_script)
        )
        for event in chunked_trace(duration):
            pipeline.feed_audio(event.duration_s)
            assert all(pipeline.mt.history.history_source)
        pipeline.finalize()
        assert all(pipeline.mt.history.history_source)
        counted.append(pipeline.mt.budget_overflows)
    assert counted == overflows


def _check_buffer_after_every_step(mode: str, noisy: bool, sentences) -> Pipeline:
    asr_script, mt_script, duration = build_scripts(
        sentences, seed=3, **(NOISY if noisy else {})
    )
    budget = preset_config(mode).mt.max_buffer_words

    class Checked(MockMtBackend):
        def translate(self, request):
            assert request.buffered_source_words() <= max(budget, len(request.active_source))
            return super().translate(request)

    pipeline = Pipeline(preset_config(mode), MockAsrBackend(asr_script), Checked(mt_script))
    for event in chunked_trace(duration):
        pipeline.feed_audio(event.duration_s)
        history = pipeline.mt.history
        assert history.buffered_source_words() <= max(budget, len(history.active_source))
    assert pipeline.mt.translate_calls > 0
    return pipeline


@pytest.mark.parametrize("mode", ["adapted", "baseline"])
def test_the_mt_state_round_trips_through_the_wire_after_every_step(mode) -> None:
    # The controller's state is the request it sends next, so the wire codec
    # writes and reads it whole, after evictions too.
    for seed in range(3):
        sentences = synth_sentences(random.Random(400 + seed), 60)
        asr_script, mt_script, duration = build_scripts(sentences, seed=seed, **NOISY)
        pipeline = Pipeline(
            preset_config(mode), MockAsrBackend(asr_script), MockMtBackend(mt_script)
        )
        for event in chunked_trace(duration):
            pipeline.feed_audio(event.duration_s)
            history = pipeline.mt.history
            assert decode_request(encode_mt_request(history)) == history
        assert pipeline.mt.evictions > 0


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
        assert pipeline.mt.segment_ordinal == len(sentences)  # one segment per sentence
    assert short == []


@pytest.mark.parametrize("mode", ["adapted", "baseline"])
def test_noisy_long_talks_stream_the_whole_translation(mode) -> None:
    # The same property over 200-sentence talks, where several beams cut to
    # one length must never outvote the clean beams with one perturbed token.
    short = []
    for seed in range(10):
        sentences = synth_sentences(random.Random(seed), 200)
        pipeline, records, _ = _run(sentences, mode=mode, seed=seed, **NOISY)
        check_emission_log(records)
        streamed = strip_sentinels([r.token for r in records])
        transcript = pipeline.asr.transcript()
        if streamed != offline_translation(pipeline.mt.backend.script, transcript):
            short.append(seed)
        # Every sentence closed its segment: the last words settle too.
        assert pipeline.mt.segment_ordinal == len(sentences)
    assert short == []


@pytest.mark.parametrize("mode", ["adapted", "baseline"])
def test_noisy_talk_reports_match_the_full_table_resegmentation(mode, monkeypatch) -> None:
    # The halving split against the full table and forward walk on real
    # streams: once against the mapped source sentences, once against copies
    # with about a fifth of their tokens replaced by zero, one or two others,
    # which takes the edit distance off zero and leaves optimal boundaries
    # to tie.
    passes = reach_passes(monkeypatch)
    for seed in range(4):
        sentences = synth_sentences(random.Random(seed), 24)
        pipeline, records, _ = _run(sentences, mode=mode, seed=seed, **NOISY)
        words = iter(pipeline.asr.backend.script.words)
        mapped = []
        for sentence in sentences:
            segment = [next(words) for _ in sentence]
            mapped.append(ReferenceSegment(
                tuple(pipeline.mt.backend.script.map_word(w.text) for w in segment),
                segment[0].start_s,
                segment[-1].end_s,
            ))
        rng = random.Random(seed)
        edited = [
            replace(r, tokens=tuple(chain.from_iterable(
                [f"x{rng.randrange(50)}"] * rng.randrange(3) if rng.random() < 0.2 else [t]
                for t in r.tokens
            )))
            for r in mapped
        ]
        hyp = strip_sentinels([r.token for r in records])
        for refs in (mapped, edited):
            flat = [t for r in refs for t in r.tokens]
            passes.clear()
            report = canonical_json(metrics.evaluate(records, refs))
            # One pass each way per split box, at one edit distance and one
            # entry per diagonal; a stream equal to its references runs none.
            forward, backward = passes[::2], passes[1::2]
            assert [p[3:] for p in forward] == [p[3:] for p in backward]
            assert all(entries == len(a) + len(b) + 3 for a, b, _, _, entries in passes)
            if hyp == flat:
                assert passes == []
            else:
                assert forward[0][:2] == (hyp, flat)
                assert forward[0][3] == oracle_levenshtein(hyp, flat) > 0
            if refs is edited:
                assert passes
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "resegment", oracle_resegment)
                assert report == canonical_json(metrics.evaluate(records, refs))


class _FailsOnce:
    """A mock MT backend whose call ``n`` raises a ``BackendError``, once."""

    def __init__(self, inner: MockMtBackend, n: int) -> None:
        self.inner, self.n, self.calls = inner, n, 0

    def translate(self, request):
        self.calls += 1
        if self.calls == self.n:
            raise BackendError("unavailable")
        return self.inner.translate(request)


@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
@pytest.mark.parametrize("call", [3, 17, 40, "last"])
def test_a_round_retried_after_a_failed_mt_call_streams_as_an_unbroken_run(
    call, noisy
) -> None:
    # A failed round is retried with ``feed_audio(0.0)``, a failed
    # ``finalize`` by calling it again. No committed word or emitted token is
    # lost, and NCA times are those of the unbroken run; CA times may come
    # later, since the retry re-makes calls the clock has already charged.
    noise = NOISY if noisy else {}
    failed_in_finalize = 0
    for seed in range(10):
        sentences = synth_sentences(random.Random(seed), 24)
        asr_script, mt_script, duration = build_scripts(sentences, seed=seed, **noise)
        unbroken, expected, _ = _run(sentences, seed=seed, **noise)
        n = unbroken.mt.translate_calls if call == "last" else call
        flaky = _FailsOnce(MockMtBackend(mt_script), n)
        pipeline = Pipeline(preset_config("adapted"), MockAsrBackend(asr_script), flaky)
        for event in chunked_trace(duration):
            try:
                pipeline.feed_audio(event.duration_s)
            except BackendError:
                pipeline.feed_audio(0.0)
        try:
            pipeline.finalize()
        except BackendError:
            failed_in_finalize += 1
            pipeline.finalize()
        assert (flaky.calls > n) == (n <= unbroken.mt.translate_calls)  # it failed if it could
        assert [(r.token, r.nca_time_s) for r in pipeline.records] == [
            (r.token, r.nca_time_s) for r in expected
        ]
        check_emission_log(pipeline.records)
    if call == "last":
        assert failed_in_finalize == 10


def test_read_trace_validates(tmp_path) -> None:
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"kind": "audio", "dur": 1.0}\n{"kind": "audio", "dur": 0.5}\n', encoding="utf-8"
    )
    assert read_trace(path) == [TraceEvent(1.0), TraceEvent(0.5)]
    path.write_text('{"kind": "video", "dur": 1.0}\n', encoding="utf-8")
    with pytest.raises(InvalidArgumentError):
        read_trace(path)


def test_read_trace_ignores_event_times(tmp_path) -> None:
    durations = [0.5, 1.25, 0.0, 2.0]
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    lines, t = [], 0.0
    for dur in durations:  # as perfbench/gen.py writes a trace
        t += dur
        lines.append(json.dumps({"t": t, "kind": "audio", "dur": dur}))
    old.write_text("\n".join(lines) + "\n", encoding="utf-8")
    new.write_text(
        "".join(json.dumps({"kind": "audio", "dur": dur}) + "\n" for dur in durations),
        encoding="utf-8",
    )
    assert read_trace(old) == read_trace(new) == [TraceEvent(dur) for dur in durations]


@pytest.mark.parametrize(
    "line, match",
    [
        ('{"kind": "audio", "dur": NaN}', "NaN"),
        ('{"kind": "audio", "dur": "1.0"}', "field 'dur' must be a number"),
        ('{"kind": "audio", "dur": 1e999}', "field 'dur' must be a number"),
        ('{"kind": "audio", "dur": true}', "field 'dur' must be a number"),
        ('{"kind": "audio"}', "'dur'"),
        (DEEP_JSON, "nested too deeply"),
        ('{"kind": "audio", "dur": -1.0}', r"field 'dur' must be >= 0 .*, got 0\.5 \+ -1\.0"),
    ],
    ids=["nan", "string", "overflow", "bool", "missing", "deep", "negative"],
)
def test_read_trace_rejects_bad_numbers_naming_the_line(tmp_path, line, match) -> None:
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind": "audio", "dur": 0.5}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError, match=rf"trace\.jsonl:2: .*{match}"):
        read_trace(path)


@pytest.mark.parametrize(
    "line, named",
    [
        ('{"kind": "video", "pad": "' + "x" * 200_000 + '"}', "field 'kind' must be 'audio', got 'video'"),
        ('{"kind": "audio", "dur": "' + "1" * 200_000 + '"}', "field 'dur' must be a number"),
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
        "history_remove", "history_remove_words",
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
