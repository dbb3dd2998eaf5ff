"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every expected value here is either derived by an independent oracle
implemented in tests/helpers.py, hand-computed, or a committed golden.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import sys
import time
from pathlib import Path

import pytest

from helpers import (
    build_scripts,
    chunked_trace,
    offline_translation,
    oracle_laal,
    oracle_levenshtein,
    oracle_ralcp,
    oracle_resegment_cost,
    segment_source,
    synth_sentences,
)
from simulstream.backends import MockAsrBackend, MockMtBackend
from simulstream.cli import main as cli_main
from simulstream.core import SENTINEL, BeamHypothesis, BeamSet, EmissionRecord
from simulstream.metrics import (
    ReferenceSegment,
    corpus_bleu,
    evaluate,
    latency_stats,
    resegment,
    strip_sentinels,
    stream_laal,
)
from simulstream.datagen import Document, GenConfig, generate_samples, write_samples
from simulstream.pipeline import Pipeline, preset_config
from simulstream.policy import ralcp_emit
from simulstream.textnorm import normalize_word, words_match
from simulstream.wire import (
    decode_asr_request,
    decode_asr_response,
    decode_mt_request,
    decode_mt_response,
    encode_asr_request,
    encode_asr_response,
    encode_mt_request,
    encode_mt_response,
)

DATA = Path(__file__).parent / "data"
WINDOW_SLACK_S = 1e-9  # float subtraction noise, far below any audio scale


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def _build_pipeline(sentences, seed, mode="adapted", **script_kwargs):
    asr_script, mt_script, duration = build_scripts(sentences, seed=seed, **script_kwargs)
    pipeline = Pipeline(
        preset_config(mode),
        MockAsrBackend(asr_script),
        MockMtBackend(mt_script),
    )
    return pipeline, duration


def _sentence_references(pipeline, sentences):
    words = pipeline.asr.backend.script.words
    mt_script = pipeline.mt.backend.script
    refs = []
    cursor = 0
    for sentence in sentences:
        segment = words[cursor : cursor + len(sentence)]
        cursor += len(sentence)
        refs.append(
            ReferenceSegment(
                tokens=tuple(mt_script.map_word(w.text) for w in segment),
                source_start_s=segment[0].start_s,
                source_end_s=segment[-1].end_s,
            )
        )
    return refs


def test_c01_streaming_equals_offline() -> None:
    started = time.perf_counter()
    for seed in range(100):
        rng = random.Random(1000 + seed)
        sentences = synth_sentences(rng, rng.randint(2, 4))
        pipeline, duration = _build_pipeline(sentences, seed)
        records, _ = pipeline.run_trace(chunked_trace(duration))
        transcript = pipeline.asr.transcript()
        truth = [w.text for w in pipeline.asr.backend.script.words]
        assert transcript == truth
        streamed = strip_sentinels([r.token for r in records])
        offline = offline_translation(pipeline.mt.backend.script, transcript)
        assert streamed == offline, f"seed {seed}: stream diverged from offline"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion requires < 30 s, took {elapsed:.1f} s"
    _passed(1, "streaming-equals-offline (100 documents)")


def _randomized_run(seed: int) -> dict:
    rng = random.Random(seed)
    long_run = seed % 25 == 0
    sentences = synth_sentences(
        rng,
        rng.randint(18, 24) if long_run else rng.randint(1, 3),
        min_words=4 if long_run else 3,
        max_words=9 if long_run else 8,
    )
    pipeline, duration = _build_pipeline(
        sentences,
        seed,
        mode="adapted" if rng.random() < 0.7 else "baseline",
        stabilization_delay_s=rng.choice([0.0, 0.8, 2.0]),
        tail_truncate_max=rng.choice([0, 1, 2]),
        tail_perturb_prob=rng.choice([0.0, 0.3, 0.6]),
    )
    max_window = pipeline.config.asr.max_window_s
    max_buffer = pipeline.config.mt.max_buffer_words
    adapted = pipeline.config.mt.history_remove == "oldest_sentence_pair"

    transcript_before: list[str] = []
    tokens_before: list[str] = []
    for event in chunked_trace(duration, rng.choice([0.6, 1.0, 1.6])):
        decodes_before = pipeline.asr.decodes
        pipeline.feed_audio(event.duration_s)
        if pipeline.asr.decodes > decodes_before:
            # The window bound holds at step completion; between decodes it
            # may transiently carry the undecoded sub-chunk tail.
            assert pipeline.asr.window_length_s <= max_window + WINDOW_SLACK_S
        else:
            pending_s = pipeline.clock.audio_available_s - pipeline.asr.state.decoded_upto_s
            assert pipeline.asr.window_length_s <= max_window + pending_s + WINDOW_SLACK_S
        if adapted:
            assert pipeline.mt.history.buffered_source_words() <= max_buffer
        transcript = pipeline.asr.transcript()
        assert transcript[: len(transcript_before)] == transcript_before
        transcript_before = transcript
        tokens = [r.token for r in pipeline.records]
        assert tokens[: len(tokens_before)] == tokens_before
        tokens_before = tokens
    pipeline.finalize()
    assert pipeline.asr.transcript()[: len(transcript_before)] == transcript_before
    assert [r.token for r in pipeline.records][: len(tokens_before)] == tokens_before
    if adapted:
        assert pipeline.mt.history.buffered_source_words() <= max_buffer
    return {
        "evictions": pipeline.mt.evictions,
        "force_trims": pipeline.asr.force_trims,
        "tokens": len(pipeline.records),
    }


def test_c02_c03_append_only_and_buffer_bounds() -> None:
    evictions = 0
    force_trims = 0
    tokens = 0
    for seed in range(1000):
        stats = _randomized_run(seed)
        evictions += stats["evictions"]
        force_trims += stats["force_trims"]
        tokens += stats["tokens"]
    assert tokens > 0
    assert evictions > 0, "randomized suite never exercised eviction"
    _passed(2, "append-only output (1000 randomized traces)")
    _passed(3, "buffer bounds: ASR window <= 30 s, MT buffer <= 80 words")


def _random_wordlike(rng: random.Random) -> str:
    letters = "abcde"
    word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
    if rng.random() < 0.4:
        word = word.capitalize()
    if rng.random() < 0.3:
        word += rng.choice(".,!?")
    return word


def test_c04_relaxed_match_agrees_with_recursive_oracle() -> None:
    assert words_match("Hello,", "hello", 2)
    rng = random.Random(4242)
    mismatches = 0
    for i in range(10_000):
        a = _random_wordlike(rng)
        if rng.random() < 0.5:
            b = _random_wordlike(rng)
        else:
            # nearby variant: edit a couple of characters
            chars = list(a)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice("abcde.")
            b = "".join(chars) or "a"
        expected = oracle_levenshtein(normalize_word(a), normalize_word(b)) <= 2
        if words_match(a, b, 2) != expected:
            mismatches += 1
    assert mismatches == 0
    _passed(4, "relaxed-match semantics (10,000 pairs, zero mismatches)")


def _token_sequences(alphabet, max_len):
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=length))
    return out


def _tiny_beam_set(token_lists):
    beams = tuple(
        BeamHypothesis(tokens, float(-i), (0,) * len(tokens))
        for i, tokens in enumerate(token_lists)
    )
    return BeamSet(beams)


def test_c05_ralcp_matches_brute_force_voting() -> None:
    alphabet = ("x", "y", SENTINEL)
    checked = 0

    def check(token_lists, requested, committed, ratio):
        nonlocal checked
        beams = _tiny_beam_set(token_lists)
        assert ralcp_emit(beams, committed, ratio, requested) == oracle_ralcp(
            beams, committed, ratio, requested
        )
        checked += 1

    seqs4 = _token_sequences(alphabet, 4)  # 121 sequences
    seqs3 = _token_sequences(alphabet, 3)  # 40
    seqs2 = _token_sequences(alphabet, 2)  # 13

    # The full cross product out to N=4 beams of length 4 is ~2e8 beam sets,
    # beyond desk scale; nested exhaustive envelopes cover every regime and
    # a large seeded sample covers the rest of the space.
    for tokens in seqs4:  # N = 1
        for committed in (0, 1):
            for ratio in (0.5, 1.0):
                check([tokens], 1, committed, ratio)
    for pair in itertools.product(seqs4, repeat=2):  # N = 2, incl. empties
        check(list(pair), 2, 0, 0.5)
        check(list(pair), 4, 0, 0.5)  # preserved bar vs a larger request
    for triple in itertools.product(seqs3, repeat=3):  # N = 3
        check(list(triple), 3, 0, 0.5)
    for quad in itertools.product(seqs2, repeat=4):  # N = 4
        check(list(quad), 4, 0, 0.5)

    rng = random.Random(909)
    for _ in range(30_000):
        n = rng.randint(1, 4)
        token_lists = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            for _ in range(n)
        ]
        check(token_lists, rng.randint(n, 6), rng.randint(0, 2),
              rng.choice([0.3, 0.5, 0.7, 1.0]))
    assert checked > 150_000
    _passed(5, f"RALCP vote oracle ({checked} beam sets, exact)")


def test_c06_attention_argmax_segmentation() -> None:
    rng = random.Random(606)
    for _ in range(1000):
        length = rng.randint(1, 60)
        hot = rng.randrange(length)
        row = [0.0] * length
        row[hot] = 1.0
        assert segment_source(row) == hot
    for length in range(1, 50):
        assert segment_source([1.0 / length] * length) == length - 1
    closures_seen = 0
    for seed in range(15):
        rng = random.Random(7000 + seed)
        sentences = synth_sentences(rng, rng.randint(2, 5))
        pipeline, duration = _build_pipeline(sentences, seed)
        pipeline.run_trace(chunked_trace(duration))
        history = pipeline.mt.history
        # These talks never evict, so the history holds every closed pair.
        assert pipeline.mt.evictions == 0
        assert len(history.history_source) == pipeline.mt.segment_ordinal
        for source, target in zip(history.history_source, history.history_target):
            # 1:1 word map: moved source length == target tokens before [SEP]
            assert len(source) == len(target)
            closures_seen += 1
    assert closures_seen >= 15
    _passed(6, "attention-argmax source segmentation (one-hot, ties, diagonal)")


def test_c07_resegmentation_matches_exhaustive_boundaries() -> None:
    rng = random.Random(707)
    cases = 0
    for n in range(0, 13):
        for m in (1, 2, 3):
            for _ in range(8):
                hyp = [rng.choice("abc") for _ in range(n)]
                token_lists = [
                    tuple(rng.choice("abc") for _ in range(rng.randint(0, 5)))
                    for _ in range(m)
                ]
                starts = [float(i) for i in range(m + 1)]
                refs = [
                    ReferenceSegment(t, starts[i], starts[i + 1])
                    for i, t in enumerate(token_lists)
                ]
                slices = resegment(hyp, refs)
                got_cost = sum(
                    oracle_levenshtein(s, t) for s, t in zip(slices, token_lists)
                )
                best_cost, best_cuts = oracle_resegment_cost(hyp, token_lists)
                assert got_cost == best_cost
                # Boundaries are free: the optimum is the plain edit distance.
                assert best_cost == oracle_levenshtein(hyp, [t for r in token_lists for t in r])
                cuts = [0]
                for s in slices:
                    cuts.append(cuts[-1] + len(s))
                assert cuts == best_cuts
                cases += 1
    assert cases == 13 * 3 * 8
    _passed(7, "resegmentation optimality (exhaustive boundary enumeration)")


def test_c08_bleu_goldens() -> None:
    segments = [["the", "cat"], ["sat", "down", "today"]]
    assert corpus_bleu(segments, segments) == pytest.approx(100.0, abs=1e-9)
    # Hand-computed: p1..p3 = 1, no 4-gram possible, BP = exp(1 - 4/3).
    value = corpus_bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    assert value == pytest.approx(71.65313105737893, abs=1e-9)
    assert corpus_bleu([[], []], [["a"], ["b", "c"]]) == 0.0
    _passed(8, "BLEU goldens (perfect / hand-computed / empty)")


def test_c09_stream_laal_oracle() -> None:
    refs = [ReferenceSegment(("t1", "t2", "t3", "t4"), 0.0, 4.0)]
    log = [EmissionRecord(f"t{i}", float(i), float(i)) for i in range(1, 5)]
    report, _ = stream_laal(log, refs, [["t1", "t2", "t3", "t4"]])
    assert report.mean_s == pytest.approx(1.0, abs=1e-12)

    rng = random.Random(910)
    for _ in range(200):
        m = rng.randint(1, 6)
        refs = []
        t = 0.0
        for _ in range(m):
            span = rng.uniform(0.4, 6.0)
            tokens = tuple(f"r{rng.randrange(4)}" for _ in range(rng.randint(1, 5)))
            refs.append(ReferenceSegment(tokens, t, t + span))
            t += span
        segments, log = [], []
        for i, ref in enumerate(refs):
            y = rng.randint(0, 5)
            times = sorted(
                rng.uniform(ref.source_start_s, ref.source_start_s + 9.0)
                for _ in range(y)
            )
            tokens = [f"h{i}_{j}" for j in range(y)]
            segments.append(tokens)
            for tok, when in zip(tokens, times):
                log.append(EmissionRecord(tok, when, when + rng.uniform(0, 2)))
        for mode, report in zip(("nca", "ca"), stream_laal(log, refs, segments)):
            cursor = 0
            for i, (ref, seg) in enumerate(zip(refs, segments)):
                delays = [
                    (log[cursor + j].nca_time_s if mode == "nca" else log[cursor + j].ca_time_s)
                    - ref.source_start_s
                    for j in range(len(seg))
                ]
                cursor += len(seg)
                expected = oracle_laal(delays, ref.duration_s, len(ref.tokens))
                assert report.per_segment[i] == pytest.approx(expected, abs=1e-9)

    # CA mean dominates NCA mean on pipeline logs with nonzero compute cost.
    for seed in range(25):
        rng = random.Random(1200 + seed)
        sentences = synth_sentences(rng, rng.randint(2, 5))
        pipeline, duration = _build_pipeline(
            sentences, seed, stabilization_delay_s=rng.choice([0.0, 1.0])
        )
        records, _ = pipeline.run_trace(chunked_trace(duration))
        refs = _sentence_references(pipeline, sentences)
        report = evaluate(records, refs)
        assert report["ca"]["mean_s"] >= report["nca"]["mean_s"]
    _passed(9, "StreamLAAL oracle (hand case, 200 random logs, CA >= NCA)")


def test_c10_latency_stats() -> None:
    stats = latency_stats([float(v) for v in range(1, 101)])
    assert stats.mean_s == pytest.approx(50.5)
    assert (stats.median_s, stats.p90_s, stats.p95_s, stats.p99_s, stats.max_s) == (
        50.0,
        90.0,
        95.0,
        99.0,
        100.0,
    )
    rng = random.Random(1010)
    for _ in range(1000):
        n = rng.randint(1, 80)
        values = [rng.uniform(-3, 30) for _ in range(n)]
        got = latency_stats(values)
        ordered = sorted(values)

        def rank(p: int) -> float:
            position = (p * n + 99) // 100  # integer ceil(p*n/100)
            return ordered[position - 1]

        assert got.mean_s == math.fsum(ordered) / n
        assert got.median_s == ordered[(n - 1) // 2]
        assert (got.p90_s, got.p95_s, got.p99_s) == (rank(90), rank(95), rank(99))
        assert got.max_s == ordered[-1]
    _passed(10, "latency stats (nearest-rank, 1000 random lists, exact)")


def test_c11_datagen_statistics(tmp_path) -> None:
    rng = random.Random(1111)
    documents = []
    for d in range(5):
        pairs = []
        for i in range(rng.randint(12, 15)):
            src = tuple(f"d{d}s{i}w{j}" for j in range(rng.randint(3, 6)))
            tgt = tuple(f"d{d}t{i}w{j}" for j in range(rng.randint(3, 6)))
            pairs.append((src, tgt))
        documents.append(Document(pairs=tuple(pairs), doc_id=f"doc{d}"))
    config = GenConfig(prefix_rate=0.5, seed=2025)
    samples, stats = generate_samples(documents, config, 10_000)
    fraction = stats.prefixed / stats.samples
    assert 0.47 <= fraction <= 0.53
    for source, target in samples:
        n_src = source.split().count(SENTINEL)
        n_tgt = target.split().count(SENTINEL)
        assert n_src == n_tgt
        assert 1 <= n_src <= 10
    first = write_samples(samples, stats, tmp_path / "gen_a")
    again, stats_again = generate_samples(documents, config, 10_000)
    second = write_samples(again, stats_again, tmp_path / "gen_b")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    _passed(11, "datagen statistics (10,000 samples, byte-identical regeneration)")


def test_c12_wire_protocol(tmp_path) -> None:
    request_lines = (DATA / "wire_requests.jsonl").read_text(encoding="utf-8").splitlines()
    response_lines = (DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()
    assert encode_asr_request(decode_asr_request(request_lines[0])) == request_lines[0]
    assert encode_mt_request(decode_mt_request(request_lines[1])) == request_lines[1]
    assert encode_asr_response(decode_asr_response(response_lines[0])) == response_lines[0]
    assert encode_mt_response(decode_mt_response(response_lines[1])) == response_lines[1]

    from simulstream.core import ProtocolError

    broken = json.loads(response_lines[0])
    del broken["words"][0]["end_s"]
    with pytest.raises(ProtocolError, match=r"words\[0\]\.end_s"):
        decode_asr_response(json.dumps(broken))

    # The scripted echo server must drive cmd_simulate to the same golden
    # log as the in-process mock.
    shutil.copy(DATA / "config_adapted.json", tmp_path / "config_adapted.json")
    shutil.copy(DATA / "mock_script_60s.json", tmp_path / "mock_script_60s.json")
    mock_out = tmp_path / "mock.jsonl"
    assert (
        cli_main(
            ["simulate", str(DATA / "trace_60s.jsonl"),
             str(tmp_path / "config_adapted.json"), str(mock_out)]
        )
        == 0
    )
    wire_config = json.loads((tmp_path / "config_adapted.json").read_text())
    wire_config["backend"] = {
        "kind": "wire",
        "command": [
            sys.executable, "-m", "simulstream.wire_server",
            str(tmp_path / "mock_script_60s.json"),
        ],
        "timeout_s": 30,
    }
    (tmp_path / "config_wire.json").write_text(json.dumps(wire_config), encoding="utf-8")
    wire_out = tmp_path / "wire.jsonl"
    assert (
        cli_main(
            ["simulate", str(DATA / "trace_60s.jsonl"),
             str(tmp_path / "config_wire.json"), str(wire_out)]
        )
        == 0
    )
    golden = (DATA / "golden_log_60s.jsonl").read_bytes()
    assert mock_out.read_bytes() == golden
    assert wire_out.read_bytes() == golden
    _passed(12, "wire protocol (goldens, field errors, echo-server simulate)")
