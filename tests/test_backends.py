from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import (
    DEEP_JSON,
    build_scripts,
    chunked_trace,
    oracle_asr_decode,
    oracle_canonical_json,
    oracle_levenshtein,
    oracle_mt_rows,
    oracle_mt_translate,
    segment_source,
    synth_sentences,
    timed_words,
)
from simulstream import backends
from simulstream.backends import (
    AsrRequest,
    AsrResponse,
    AsrScript,
    MockAsrBackend,
    MockMtBackend,
    MockScripts,
    MtRequest,
    MtScript,
    load_mock_script,
    mock_asr_decode,
    mock_mt_translate,
    parse_mock_script,
)
from simulstream.core import (
    SENTINEL,
    BackendError,
    InvalidArgumentError,
    TimedWord,
    canonical_json,
)
from simulstream.pipeline import Pipeline, preset_config, read_trace
from simulstream.textnorm import has_terminal_mark, normalize_word

DATA = Path(__file__).parent / "data"


def _asr_script(delay: float = 0.0, seed: int = 0) -> AsrScript:
    words, duration = timed_words(synth_sentences(random.Random(1), 3), 0.4)
    return AsrScript(
        words=words, audio_duration_s=duration, stabilization_delay_s=delay, seed=seed
    )


def test_asr_decode_without_delay_is_ground_truth() -> None:
    script = _asr_script(delay=0.0)
    request = AsrRequest("s", 0.0, script.audio_duration_s, 5)
    response = mock_asr_decode(script, request)
    assert response.hypothesis.words == script.words
    assert response.compute_cost_s == pytest.approx(
        0.1 + 0.01 * script.audio_duration_s
    )


def test_asr_decode_is_deterministic() -> None:
    script = _asr_script(delay=2.0, seed=9)
    request = AsrRequest("s", 0.0, 4.0, 5)
    first = mock_asr_decode(script, request)
    second = mock_asr_decode(script, request)
    assert first == second


def test_asr_decode_window_restricts_words() -> None:
    script = _asr_script()
    response = mock_asr_decode(script, AsrRequest("s", 0.8, 2.0, 5))
    for w in response.hypothesis.words:
        assert w.start_s >= 0.8
        assert w.end_s <= 2.0


def test_asr_decode_perturbations_stay_within_two_edits() -> None:
    for seed in range(20):
        script = _asr_script(delay=2.0, seed=seed)
        end = min(script.audio_duration_s, 10.0)
        response = mock_asr_decode(script, AsrRequest("s", 0.0, end, 5))
        truth = {(w.start_s, w.end_s): w.text for w in script.words}
        for w in response.hypothesis.words:
            original = truth[(w.start_s, w.end_s)]
            if w.end_s <= end - 2.0:
                assert w.text == original
            else:
                assert oracle_levenshtein(w.text, original) <= 2


def test_asr_decode_outside_extent_is_rejected() -> None:
    # A window past the scripted audio is a backend failure; a malformed
    # window is the caller's fault.
    script = _asr_script()
    with pytest.raises(BackendError, match="outside audio extent"):
        mock_asr_decode(script, AsrRequest("s", 0.0, script.audio_duration_s + 1, 5))
    with pytest.raises(InvalidArgumentError):
        mock_asr_decode(script, AsrRequest("s", -1.0, 1.0, 5))


def _random_asr_script(rng: random.Random) -> AsrScript:
    """Words on a quarter-second grid (so start times tie and overlap), in
    end-time order or shuffled outright."""
    words = []
    for _ in range(rng.randint(0, 30)):
        start = rng.randrange(40) * 0.25
        end = start + rng.choice([0.0, 0.25, 0.5, 1.0, 2.5])
        text = rng.choice(["ja", "nein", "Haus", "geht."]) + "x" * rng.randrange(3)
        words.append(TimedWord(text, start, end))
    if rng.random() < 0.5:
        words.sort(key=lambda w: w.end_s)
    else:
        rng.shuffle(words)
    duration = max((w.end_s for w in words), default=0.0) + rng.choice([0.0, 0.5])
    return AsrScript(
        words=tuple(words),
        audio_duration_s=duration,
        stabilization_delay_s=rng.choice([0.0, 0.6, 2.0]),
        seed=rng.randrange(100),
    )


def _random_window(rng: random.Random, script: AsrScript) -> tuple[float, float]:
    duration = script.audio_duration_s
    points = [0.0, duration, duration + 5e-7, duration + 1.0, -0.25]
    points += [w.start_s for w in script.words] + [w.end_s for w in script.words]
    start = rng.choice(points + [rng.uniform(0, duration)])
    end = rng.choice([start, *points, rng.uniform(start, duration + 0.1)])
    return start, end


def _decode_outcome(decode, script: AsrScript, request: AsrRequest):
    try:
        return decode(script, request)
    except (BackendError, InvalidArgumentError) as exc:
        return type(exc).__name__, str(exc)


def test_asr_decode_matches_the_linear_scan_oracle() -> None:
    rng = random.Random(2718)
    decoded_words = 0
    for _ in range(400):
        script = _random_asr_script(rng)
        for _ in range(20):
            start, end = _random_window(rng, script)
            request = AsrRequest("s", start, end, 5)
            expected = _decode_outcome(oracle_asr_decode, script, request)
            assert _decode_outcome(mock_asr_decode, script, request) == expected
            if isinstance(expected, AsrResponse):
                decoded_words += len(expected.hypothesis.words)
    assert decoded_words > 5_000


def test_asr_script_rejects_non_finite_word_times() -> None:
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        AsrScript(words=(TimedWord("x", float("nan"), float("nan")),), audio_duration_s=1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: AsrScript(words=(TimedWord("x", 0.5, 1.5),), audio_duration_s=1.0),
            "word 'x' ends at 1.5 beyond audio duration 1.0",
        ),
        (lambda: MtScript(tail_perturb_prob=-0.1), "tail_perturb_prob must be in [0, 1], got -0.1"),
        (lambda: MtScript(tail_perturb_prob=1.5), "tail_perturb_prob must be in [0, 1], got 1.5"),
    ],
    ids=["asr_word_past_the_audio", "mt_perturb_below_0", "mt_perturb_above_1"],
)
def test_mock_scripts_refuse_values_out_of_range(build, message) -> None:
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        build()


def test_mt_translate_uppercase_map_with_sentinel_and_diagonal_attention() -> None:
    script = MtScript()
    request = MtRequest((), (), ("a", "b."), (), 2, "6")
    response = mock_mt_translate(script, request)
    top = response.beams.beams[0]
    assert top.tokens == ("A", "B.", SENTINEL)
    assert top.cuts == (0, 1, 1)


def test_mt_translate_cuts_surplus_committed_tokens_at_the_last_word() -> None:
    request = MtRequest((), (), ("a", "b."), ("A", "B.", SENTINEL, "X", "Y"), 2, "6")
    for beam in mock_mt_translate(MtScript(), request).beams.beams:
        assert beam.tokens == request.committed_target
        assert beam.cuts == (0, 1, 1, 1, 1)


_BLURS = (0.0, 0.05, 0.1, 0.2, 0.5, 0.9, 0.999)


def _translation(script: MtScript, active) -> list[str]:
    translation = []
    for word in active:
        translation.append(script.map_word(word))
        if has_terminal_mark(word):
            translation.append(SENTINEL)
    return translation


def _random_mt_request(rng: random.Random, script: MtScript) -> MtRequest:
    words = [w for s in synth_sentences(rng, rng.randint(1, 3), 1, 5) for w in s]
    active = tuple(words[: rng.randint(1, len(words))])
    translation = _translation(script, active)
    kind = rng.randrange(3)
    if kind == 0:  # the controller's case: a prefix of the translation
        committed = translation[: rng.randint(0, len(translation))]
    elif kind == 1:  # more committed tokens than the translation has
        committed = translation + ["EXTRA"] * rng.randint(1, 3)
    else:  # tokens of another sentence
        committed = [script.map_word(w) for w in synth_sentences(rng, 1)[0]]
    history = tuple(tuple(s) for s in synth_sentences(rng, rng.randint(0, 2)))
    return MtRequest(
        history,
        tuple(tuple(w.upper() for w in s) for s in history),
        active,
        tuple(committed),
        rng.randint(1, 8),
        rng.choice(("6", "4")),
    )


def test_mock_cuts_are_the_argmax_of_the_dense_rows_it_used_to_build() -> None:
    rng = random.Random(2305)
    requests = 0
    cuts_checked = 0
    for blur in _BLURS:
        for _ in range(750):
            script = MtScript(
                tail_truncate_max=rng.choice((0, 1, 2, 3)),
                tail_perturb_prob=rng.choice((0.0, 0.3, 1.0)),
                seed=rng.randrange(1000),
            )
            request = _random_mt_request(rng, script)
            beams = mock_mt_translate(script, request).beams.beams
            oracle = oracle_mt_rows(script, request, blur)
            # The rows draw from an RNG of their own, so the tokens are the mock's.
            assert [b.tokens for b in beams] == [tokens for tokens, _ in oracle]
            for beam, (_, rows) in zip(beams, oracle):
                assert beam.cuts == tuple(segment_source(row) for row in rows)
                for cut, row in zip(beam.cuts, rows):
                    # A row tying every position up to the cut still cuts
                    # there: ties go to the largest index.
                    tied = [max(row)] * (cut + 1) + list(row[cut + 1 :])
                    assert segment_source(tied) == cut
                cuts_checked += len(rows)
            requests += 1
    assert requests >= 5000
    assert cuts_checked > 50_000


def test_mock_mt_matches_the_eager_oracle_byte_for_byte() -> None:
    # The mock seeds its RNG only for a request that can draw and lets clean
    # beams share beam 1's tuples; the oracle seeds every request and builds
    # every beam. Replies must not differ by a byte.
    rng = random.Random(4099)
    kinds = dict.fromkeys(("empty", "prefix", "longer", "foreign", "noisy_beams"), 0)
    for truncate in (0, 1, 2, 3):
        for perturb in (0.0, 0.3, 1.0):
            for beam_size in (1, 2, 10, 64):
                for _ in range(25):
                    script = MtScript(
                        tail_truncate_max=truncate,
                        tail_perturb_prob=perturb,
                        seed=rng.randrange(1000),
                    )
                    request = replace(_random_mt_request(rng, script), beam_size=beam_size)
                    if rng.random() < 0.2:
                        request = replace(request, active_source=())
                    expected = oracle_mt_translate(script, request)
                    got = mock_mt_translate(script, request)
                    assert got == expected
                    assert canonical_json(got) == canonical_json(expected)
                    translation = tuple(_translation(script, request.active_source))
                    committed = request.committed_target
                    if not request.active_source:
                        kinds["empty"] += 1
                    elif len(committed) > len(translation):
                        kinds["longer"] += 1
                    elif translation[: len(committed)] == committed:
                        kinds["prefix"] += 1
                    else:
                        kinds["foreign"] += 1
                    if len({b.tokens for b in got.beams.beams}) > 1:
                        kinds["noisy_beams"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_noisy_mock_mt_marks_each_perturbed_token_with_its_own_beam() -> None:
    # RALCP votes the beams, so noise that several beams share could win the
    # vote: each lower beam is beam 1 cut short, with at most its last token
    # marked for that beam alone, and the sentinel is never marked.
    rng = random.Random(2417)
    seen = dict.fromkeys(("truncated", "perturbed", "sentinel_kept"), 0)
    for _ in range(3000):
        script = MtScript(
            tail_truncate_max=rng.choice((0, 1, 2, 3)),
            tail_perturb_prob=rng.choice((0.3, 1.0)),
            seed=rng.randrange(1000),
        )
        request = replace(_random_mt_request(rng, script), beam_size=rng.randint(2, 16))
        top, *lower = mock_mt_translate(script, request).beams.beams
        n_committed = len(request.committed_target)
        for b, beam in enumerate(lower, start=2):
            head, last = beam.tokens[:-1], beam.tokens[-1:]
            assert top.tokens[: len(head)] == head
            assert beam.cuts == top.cuts[: len(beam.tokens)]
            seen["truncated"] += len(beam.tokens) < len(top.tokens)
            if last and last[0] != top.tokens[len(head)]:
                assert len(beam.tokens) > n_committed  # only the tail is noisy
                original = top.tokens[len(head)]
                assert last[0] == f"{original}~{b}"
                assert original != SENTINEL
                holders = [c for c in (top, *lower) if last[0] in c.tokens]
                assert holders == [beam]
                seen["perturbed"] += 1
            elif (
                script.tail_perturb_prob == 1.0
                and len(beam.tokens) > n_committed
                and last == (SENTINEL,)
            ):
                seen["sentinel_kept"] += 1
    assert min(seen.values()) >= 200, seen


def _count_seeds(monkeypatch) -> tuple[list, list]:
    """Record every RNG the mocks seed, per backend call.

    Returns (asr_calls, mt_calls), each a list of (request, reply, seeds)
    filled in as the mocks run.
    """
    seeds: list[str] = []

    def counting_random(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(backends, "random", SimpleNamespace(Random=counting_random))
    asr_calls: list = []
    mt_calls: list = []
    for name, calls in (("mock_asr_decode", asr_calls), ("mock_mt_translate", mt_calls)):
        original = getattr(backends, name)

        def counted(script, request, original=original, calls=calls):
            before = len(seeds)
            reply = original(script, request)
            calls.append((request, reply, seeds[before:]))
            return reply

        monkeypatch.setattr(backends, name, counted)
    return asr_calls, mt_calls


def _check_asr_seeds(script: AsrScript, asr_calls: list) -> int:
    """A decode that returns an unstable word seeds one RNG, from the seed
    and its window, and any other decode (one whose window ends at the
    audio's end among them) none; return the number of seeds."""
    total = 0
    for request, reply, seeds in asr_calls:
        start = request.window_start_s
        end = min(request.window_end_s, script.audio_duration_s)
        at_end = end == script.audio_duration_s
        stable_before = end if at_end else end - script.stabilization_delay_s
        unstable = any(w.end_s > stable_before for w in reply.hypothesis.words)
        assert seeds == ([f"{script.seed}:asr:{start!r}:{end!r}"] if unstable else [])
        total += len(seeds)
    return total


def test_mocks_seed_no_rng_on_the_golden_talk(monkeypatch) -> None:
    asr_calls, mt_calls = _count_seeds(monkeypatch)
    scripts = load_mock_script(DATA / "mock_script_60s.json")
    pipeline = Pipeline(
        preset_config("adapted"), MockAsrBackend(scripts.asr), MockMtBackend(scripts.mt)
    )
    pipeline.run_trace(read_trace(DATA / "trace_60s.jsonl"))
    assert len(mt_calls) == pipeline.mt.translate_calls > 0
    assert [seeds for _, _, seeds in mt_calls if seeds] == []
    assert len(asr_calls) == pipeline.asr.decodes > 0
    assert _check_asr_seeds(scripts.asr, asr_calls) == 0  # no stabilization delay


def _mt_seeds(script: MtScript, request: MtRequest) -> list[str]:
    """The one seed of a request that can draw, or none: the script seed
    and the fields the reply is computed from."""
    noisy = script.tail_truncate_max > 0 or script.tail_perturb_prob > 0
    if noisy and request.beam_size > 1 and request.active_source:
        keyed_by = [request.active_source, request.committed_target, request.beam_size]
        return [f"{script.seed}:mt:{oracle_canonical_json(keyed_by)}"]
    return []


def test_noisy_mock_mt_seeds_one_rng_per_request_that_can_draw(monkeypatch) -> None:
    asr_calls, mt_calls = _count_seeds(monkeypatch)
    asr_script, mt_script, duration = build_scripts(
        synth_sentences(random.Random(8), 24), seed=8, stabilization_delay_s=0.6,
        tail_truncate_max=2, tail_perturb_prob=0.3,
    )
    pipeline = Pipeline(
        preset_config("adapted"), MockAsrBackend(asr_script), MockMtBackend(mt_script)
    )
    pipeline.run_trace(chunked_trace(duration))
    assert len(mt_calls) == pipeline.mt.translate_calls > 20
    assert sum(bool(request.active_source) for request, _, _ in mt_calls) > 20
    for request, _, seeds in mt_calls:
        assert seeds == _mt_seeds(mt_script, request)
    # Nearly every decode ends inside the talk, with an unstable tail.
    assert _check_asr_seeds(asr_script, asr_calls) >= len(asr_calls) - 1 > 30

    # Off the pipeline's path: one beam, an empty source or a clean script
    # seeds nothing.
    seeded = 0
    for script in (MtScript(tail_truncate_max=1), MtScript(tail_perturb_prob=0.5), MtScript()):
        for beam_size in (1, 4):
            for active in (("one", "two."), ()):
                mt_calls.clear()
                request = MtRequest((), (), active, (), beam_size, "6")
                backends.mock_mt_translate(script, request)
                [(_, _, seeds)] = mt_calls
                assert seeds == _mt_seeds(script, request)
                seeded += len(seeds)
    assert seeded == 2  # the two noisy scripts, four beams, a source left


def test_noisy_mt_reply_ignores_the_history_and_the_layer_tag() -> None:
    # The draws are keyed by the fields the reply is computed from, so a
    # request that differs only in fields the mock never reads gets the
    # same reply, noise and all.
    rng = random.Random(3303)
    noisy_replies = 0
    for _ in range(600):
        script = MtScript(
            tail_truncate_max=rng.choice((0, 1, 3)),
            tail_perturb_prob=rng.choice((0.3, 1.0)),
            seed=rng.randrange(1000),
        )
        request = replace(_random_mt_request(rng, script), beam_size=rng.randint(2, 8))
        reply = mock_mt_translate(script, request)
        beams = reply.beams.beams
        noisy_replies += any(b.tokens != beams[0].tokens for b in beams)
        n = len(request.history_source)
        other = [tuple(tuple(s) for s in synth_sentences(rng, k)) for k in (n, n, n + 1)]
        for changed in (
            replace(request, history_source=other[0]),
            replace(request, history_target=tuple(tuple(w.upper() for w in s) for s in other[1])),
            replace(request, history_source=other[2], history_target=other[2]),
            replace(request, attention_layer_tag=rng.choice(("4", "6", "last"))),
        ):
            assert mock_mt_translate(script, changed) == reply
    assert noisy_replies > 100


def test_mt_translate_everything_committed_gives_empty_continuation() -> None:
    script = MtScript()
    request = MtRequest((), (), ("a", "b"), ("A", "B"), 3, "6")
    response = mock_mt_translate(script, request)
    for beam in response.beams.beams:
        assert beam.tokens == ("A", "B")


def test_mt_translate_is_deterministic() -> None:
    script = MtScript(tail_truncate_max=2, tail_perturb_prob=0.5)
    request = MtRequest((), (), ("one", "two", "three."), ("ONE",), 6, "6")
    assert mock_mt_translate(script, request) == mock_mt_translate(script, request)


def test_mt_translate_beams_extend_committed_and_scores_descend() -> None:
    script = MtScript(tail_truncate_max=2, tail_perturb_prob=0.7, seed=5)
    request = MtRequest((), (), ("one", "two", "three."), ("ONE",), 8, "6")
    response = mock_mt_translate(script, request)
    scores = [b.score for b in response.beams.beams]
    assert scores == sorted(scores, reverse=True)
    assert len(set(scores)) == len(scores)
    for beam in response.beams.beams:
        assert beam.tokens[:1] == ("ONE",)
        assert len(beam.cuts) == len(beam.tokens)
        assert all(0 <= cut < 3 for cut in beam.cuts)


def test_mt_translate_word_map_overrides_uppercase() -> None:
    script = MtScript(word_map={"hund": "dog"})
    response = mock_mt_translate(script, MtRequest((), (), ("hund", "ja"), (), 1, "6"))
    assert response.beams.beams[0].tokens == ("dog", "JA")


def test_map_word_never_turns_a_word_into_the_sentinel() -> None:
    script = MtScript(word_map={"hund": "dog"})
    assert script.map_word("hund") == "dog"
    assert script.map_word("ja") == "JA"
    # A word that only uppercases to the sentinel translates to itself.
    for word in ("[sep]", "[Sep]", "[sEp]"):
        assert script.map_word(word) == word
    response = mock_mt_translate(script, MtRequest((), (), ("[sep]", "ja."), (), 1, "6"))
    assert response.beams.beams[0].tokens == ("[sep]", "JA.", SENTINEL)


def test_mt_translate_empty_active_source_returns_no_beams() -> None:
    response = mock_mt_translate(MtScript(), MtRequest((), (), (), ("X",), 4, "6"))
    assert response.beams.beams == ()


def test_mocks_are_referentially_transparent_under_replay() -> None:
    rng = random.Random(17)
    asr_script, mt_script, duration = build_scripts(
        synth_sentences(rng, 4), seed=3, stabilization_delay_s=1.5,
        tail_truncate_max=1, tail_perturb_prob=0.3,
    )
    asr_requests = [
        AsrRequest("s", round(rng.uniform(0, duration / 2), 3), duration, 5)
        for _ in range(20)
    ]
    mt_requests = [
        MtRequest((), (), ("w1", "w2." if rng.random() < 0.5 else "w2"), (), 4, "6")
        for _ in range(20)
    ]
    asr_responses = [mock_asr_decode(asr_script, r) for r in asr_requests]
    mt_responses = [mock_mt_translate(mt_script, r) for r in mt_requests]
    order = list(range(20))
    rng.shuffle(order)
    for i in order:
        assert mock_asr_decode(asr_script, asr_requests[i]) == asr_responses[i]
        assert mock_mt_translate(mt_script, mt_requests[i]) == mt_responses[i]


def test_perturbed_words_normalize_close_to_truth() -> None:
    # Relaxed matching (threshold 2 on normalized text) should usually
    # absorb the mock's perturbations; verify they never explode.
    script = _asr_script(delay=100.0, seed=2)  # everything unstable
    response = mock_asr_decode(script, AsrRequest("s", 0.0, script.audio_duration_s, 5))
    for got, truth in zip(response.hypothesis.words, script.words):
        assert oracle_levenshtein(normalize_word(got.text), normalize_word(truth.text)) <= 2


def test_load_mock_script_roundtrip(tmp_path) -> None:
    payload = {
        "seed": 7,
        "asr": {
            "words": [
                {"text": "Hello", "start_s": 0.0, "end_s": 0.4},
                {"text": "there.", "start_s": 0.4, "end_s": 0.9},
            ],
            "audio_duration_s": 1.0,
            "stabilization_delay_s": 0.5,
        },
        "mt": {"word_map": {"Hello": "Hallo"}, "attention_blur": 0.1},
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    scripts = load_mock_script(path)
    assert scripts.asr.words == (
        TimedWord("Hello", 0.0, 0.4),
        TimedWord("there.", 0.4, 0.9),
    )
    assert scripts.asr.seed == 7
    # A key the loader does not know, such as "attention_blur", is ignored.
    assert scripts.mt == MtScript(word_map={"Hello": "Hallo"}, seed=7)


def test_load_mock_script_names_bad_field(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"asr": {"words": [{"text": "x", "start_s": "zero", "end_s": 1}]}}),
        encoding="utf-8",
    )
    with pytest.raises(InvalidArgumentError, match=r"asr\.words\[0\]\.start_s"):
        load_mock_script(path)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"seed": "abc"}, "seed"),
        ({"seed": True}, "seed"),
        ({"asr": []}, "asr"),
        ({"asr": {"stabilization_delay_s": None}}, "asr.stabilization_delay_s"),
        ({"asr": {"audio_duration_s": 10**400}}, "asr.audio_duration_s"),
        ({"asr": {"seed": 1.5}}, "asr.seed"),
        ({"asr": {"cost_base_s": "0.1"}}, "asr.cost_base_s"),
        ({"asr": {"cost_per_audio_s": float("inf")}}, "asr.cost_per_audio_s"),
        ({"asr": {"words": {"text": "x"}}}, "asr.words"),
        ({"mt": {"tail_truncate_max": 1.0}}, "mt.tail_truncate_max"),
        ({"mt": {"tail_perturb_prob": "0.3"}}, "mt.tail_perturb_prob"),
        ({"mt": {"seed": None}}, "mt.seed"),
        ({"mt": {"cost_base_s": False}}, "mt.cost_base_s"),
        ({"mt": {"cost_per_word_s": float("nan")}}, "mt.cost_per_word_s"),
        ({"mt": {"word_map": ["a"]}}, "mt.word_map"),
    ],
)
def test_mock_script_bad_optional_field_is_named(data, field) -> None:
    with pytest.raises(InvalidArgumentError, match=rf"field '{re.escape(field)}' must be"):
        parse_mock_script(data)


@pytest.mark.parametrize(
    "section, field",
    [
        ("asr", "cost_base_s"),
        ("asr", "cost_per_audio_s"),
        ("mt", "cost_base_s"),
        ("mt", "cost_per_word_s"),
    ],
)
def test_load_mock_script_rejects_a_negative_cost(tmp_path, section, field) -> None:
    path = tmp_path / "script.json"
    path.write_text(json.dumps({section: {field: -1}}), encoding="utf-8")
    message = f"{path}: field '{section}' invalid: {field} must be >= 0, got -1.0"
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        load_mock_script(path)


def test_load_mock_script_reports_deep_nesting(tmp_path) -> None:
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    with pytest.raises(InvalidArgumentError, match="nested too deeply"):
        load_mock_script(path)


def test_mock_script_defaults_come_from_the_script_dataclasses() -> None:
    assert parse_mock_script({}) == MockScripts(AsrScript(), MtScript())
    assert AsrScript().audio_duration_s == 0.0
    words = [{"text": "a", "start_s": 0.0, "end_s": 0.5}, {"text": "b.", "start_s": 0.5, "end_s": 1.25}]
    scripts = parse_mock_script({"seed": 3, "asr": {"words": words}, "mt": {"seed": 4}})
    assert scripts.asr.audio_duration_s == 1.25  # the end of the last word
    assert (scripts.asr.seed, scripts.mt.seed) == (3, 4)
    assert scripts.mt == MtScript(seed=4)
