from __future__ import annotations

import copy
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from helpers import DEEP_JSON
from simulstream.backends import (
    AsrRequest,
    AsrResponse,
    MtRequest,
    MtResponse,
    MtScript,
    load_mock_script,
)
from simulstream.cli import _build_backends
from simulstream.core import (
    SENTINEL,
    AsrHypothesis,
    BeamHypothesis,
    BeamSet,
    EmissionRecord,
    InvalidArgumentError,
    ProtocolError,
    StreamHistory,
    TimedWord,
    VirtualClock,
    canonical_json,
    check_emission_log,
    check_word,
    json_report,
    read_record,
    strict_json_loads,
)
from simulstream.datagen import Document
from simulstream.metrics import (
    ReferenceSegment,
    read_emission_log,
    read_reference_segments,
    write_emission_log,
    write_reference_segments,
)
from simulstream.mt_stream import MtStreamConfig, MtStreamController
from simulstream.pipeline import apply_overrides, preset_config, read_trace
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


def test_clock_starts_together() -> None:
    clock = VirtualClock()
    clock.advance_audio(1.0)
    assert clock.audio_available_s == 1.0
    assert clock.now_s == 1.0


def test_clock_compute_lag_preserved_when_audio_stays_behind() -> None:
    clock = VirtualClock(audio_available_s=2.0, now_s=3.5)
    clock.advance_audio(1.0)
    assert clock.audio_available_s == 3.0
    assert clock.now_s == 3.5


def test_clock_audio_catches_up_past_small_lag() -> None:
    clock = VirtualClock(audio_available_s=2.0, now_s=2.2)
    clock.advance_audio(1.0)
    assert clock.audio_available_s == 3.0
    assert clock.now_s == 3.0


def test_clock_charge_compute() -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    clock.charge_compute(0.3)
    assert clock.audio_available_s == 5.0
    assert clock.now_s == 5.3


def test_clock_charge_zero_is_identity() -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    clock.charge_compute(0.0)
    assert clock.audio_available_s == 5.0
    assert clock.now_s == 5.0


def test_clock_charges_are_additive() -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    clock.charge_compute(0.2)
    clock.charge_compute(0.3)
    assert clock.now_s == pytest.approx(5.5)


def test_clock_rejects_negative_amounts() -> None:
    clock = VirtualClock()
    with pytest.raises(InvalidArgumentError):
        clock.advance_audio(-0.1)
    with pytest.raises(InvalidArgumentError):
        clock.charge_compute(-0.1)


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
def test_clock_rejects_non_finite_compute_cost(cost) -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    with pytest.raises(InvalidArgumentError):
        clock.charge_compute(cost)
    assert clock.now_s == 5.0


def test_timed_word_validation() -> None:
    TimedWord("ok", 0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("", 0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("two words", 0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("ok", -0.1, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("ok", 0.6, 0.5)


def test_timed_word_rejects_sentinel() -> None:
    with pytest.raises(InvalidArgumentError):
        TimedWord(SENTINEL, 0.0, 0.5)


@pytest.mark.parametrize(
    "word, named",
    [("", "bad word ''"), ("two words", "bad word 'two words'"), ("a\tb", "bad word"),
     (SENTINEL, "reserved sentinel")],
)
def test_every_word_entry_point_applies_the_one_word_rule(word, named) -> None:
    controller = MtStreamController(MtStreamConfig(), None, VirtualClock())
    entries = {
        "where": lambda: check_word(word, "where"),
        "TimedWord.text": lambda: TimedWord(word, 0.0, 0.5),
        "source word": lambda: controller.step([word]),
        "document 'd'": lambda: Document(pairs=(((word,), ("t",)),), doc_id="d"),
        "word_map['hund']": lambda: MtScript(word_map={"hund": word}),
    }
    for where, enter in entries.items():
        with pytest.raises(InvalidArgumentError) as info:
            enter()
        assert str(info.value).startswith(f"{where}: ") and named in str(info.value)
    check_word("ok", "where")


def test_json_report_is_indented_sorted_and_ends_in_a_newline(tmp_path) -> None:
    obj = {"b": [1, 2.5], "a": {"é": None}}
    text = json_report(obj, tmp_path / "r.json")
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == text
    assert json_report(obj) == text


def test_asr_hypothesis_requires_ordered_ends() -> None:
    words = (TimedWord("a", 0.0, 1.0), TimedWord("b", 0.5, 0.8))
    with pytest.raises(InvalidArgumentError):
        AsrHypothesis(words)


def test_beam_hypothesis_needs_one_cut_per_token() -> None:
    assert BeamHypothesis(["a", "b"], 0.0, [0, 1]).cuts == (0, 1)
    with pytest.raises(InvalidArgumentError, match="2 tokens but 1 cuts"):
        BeamHypothesis(("a", "b"), 0.0, (0,))
    with pytest.raises(InvalidArgumentError, match="1 tokens but 2 cuts"):
        BeamHypothesis(("a",), 0.0, (0, 0))


def test_beam_set_checks() -> None:
    beam = BeamHypothesis(("a",), 0.0, (0,))
    assert BeamSet([beam, beam]).beams == (beam, beam)
    better = BeamHypothesis(("a",), 1.0, (0,))
    with pytest.raises(InvalidArgumentError):
        BeamSet((beam, better))  # ascending scores


def test_emission_record_requires_nca_before_ca() -> None:
    EmissionRecord("tok", 0, 1.0, 1.5)
    with pytest.raises(InvalidArgumentError):
        EmissionRecord("tok", 0, 2.0, 1.5)


def test_emission_log_monotonicity() -> None:
    log = [EmissionRecord("a", 0, 1.0, 1.5), EmissionRecord("b", 0, 2.0, 2.0)]
    check_emission_log(log)
    bad = [EmissionRecord("a", 0, 2.0, 2.5), EmissionRecord("b", 0, 1.0, 1.5)]
    with pytest.raises(InvalidArgumentError):
        check_emission_log(bad)


def test_stream_history_counts_and_pairing() -> None:
    history = StreamHistory(
        source_sentences=[["a", "b"], ["c"]],
        target_sentences=[["x"], ["y", "z"]],
        active_source=["d", "e"],
        active_target_committed=["w"],
    )
    assert history.history_source_words() == 3
    assert history.buffered_source_words() == 5
    history.check_paired()
    history.target_sentences.pop()
    with pytest.raises(InvalidArgumentError):
        history.check_paired()


def test_strict_json_loads_reports_deep_nesting_as_value_error() -> None:
    assert strict_json_loads("[[1]]") == [[1]]
    with pytest.raises(ValueError, match="nested too deeply"):
        strict_json_loads(DEEP_JSON)


# --- the JSON boundary: one table of bad values through every reader ----------

_MISSING = object()
_BAD_VALUES = {  # value: (kinds of field it goes in, first one the reader has)
    "bool_for_integer": ((int,), True),
    "float_for_integer": ((int,), 2.5),
    "string_for_number": ((float,), "1"),
    "huge_integer_for_number": ((float,), 10**400),
    "huge_string": ((float, int), "x" * 100_000),
    "integer_for_string": ((str,), 5),
    "missing": (("required",), _MISSING),
}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list"}


def _golden(name: str, index: int) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8").splitlines()[index])


def _file_reader(read, suffix: str):
    def run(tmp_path, obj):
        path = tmp_path / f"input{suffix}"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        return read(path)

    return run


def _line_reader(decode):
    return lambda tmp_path, obj: decode(json.dumps(obj))


# reader: (error, run, valid input, path prefix in messages,
#          {kind: path of a field of that kind}, (kind, path) of a required field)
_READERS = {
    "asr_request": (
        ProtocolError, _line_reader(decode_asr_request), _golden("wire_requests.jsonl", 0), "",
        {int: ("beam_size",), float: ("window_start_s",)}, (float, ("window_end_s",)),
    ),
    "asr_response": (
        ProtocolError, _line_reader(decode_asr_response), _golden("wire_responses.jsonl", 0), "",
        {int: ("v",), float: ("words", 0, "start_s")}, (float, ("compute_cost_s",)),
    ),
    "mt_request": (
        ProtocolError, _line_reader(decode_mt_request), _golden("wire_requests.jsonl", 1), "",
        {int: ("beam_size",), str: ("history_target", 1, 0)}, (int, ("beam_size",)),
    ),
    "mt_response": (
        ProtocolError, _line_reader(decode_mt_response), _golden("wire_responses.jsonl", 1), "",
        {int: ("beams", 0, "cuts", 1), float: ("beams", 1, "score")}, (list, ("beams",)),
    ),
    "mock_script": (
        InvalidArgumentError, _file_reader(load_mock_script, ".json"),
        json.loads((DATA / "mock_script_60s.json").read_text(encoding="utf-8")), "",
        {int: ("mt", "seed"), float: ("asr", "words", 2, "end_s")},
        (float, ("asr", "words", 0, "start_s")),
    ),
    "trace": (
        InvalidArgumentError, _file_reader(read_trace, ".jsonl"),
        {"t": 0.5, "kind": "audio", "dur": 0.5}, "",
        {float: ("dur",)}, (float, ("t",)),
    ),
    "emission_log": (
        InvalidArgumentError, _file_reader(read_emission_log, ".jsonl"),
        {"token": "ja", "segment_ordinal": 0, "nca_time_s": 1.0, "ca_time_s": 1.5}, "",
        {int: ("segment_ordinal",), float: ("ca_time_s",)}, (float, ("nca_time_s",)),
    ),
    "references": (
        InvalidArgumentError, _file_reader(read_reference_segments, ".jsonl"),
        {"tokens": ["ja"], "source_start_s": 0.0, "source_end_s": 2.0}, "",
        {float: ("source_end_s",)}, (list, ("tokens",)),
    ),
    "overrides": (
        InvalidArgumentError,
        lambda tmp_path, obj: apply_overrides(preset_config("adapted"), obj),
        {"mt": {"wait_k": 3}, "asr": {"min_chunk_s": 1.0}}, "overrides.",
        {int: ("mt", "wait_k"), float: ("asr", "min_chunk_s")}, None,
    ),
    "backend_config": (
        InvalidArgumentError, lambda tmp_path, obj: _build_backends(obj, tmp_path),
        {"backend": {"kind": "wire", "command": ["x"], "timeout_s": 5.0}}, "",
        {float: ("backend", "timeout_s")}, (list, ("backend", "command")),
    ),
}


def _cases():
    for reader, (_, _, _, _, paths, required) in _READERS.items():
        fields = {**paths, "required": required} if required else paths
        for value_id, (kinds, value) in _BAD_VALUES.items():
            kind = next((k for k in kinds if k in fields), None)
            if kind == "required":
                yield pytest.param(reader, *required, value, id=f"{reader}-{value_id}")
            elif kind is not None:
                yield pytest.param(reader, kind, paths[kind], value, id=f"{reader}-{value_id}")


def _dotted(path: tuple) -> str:
    return "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in path
    ).lstrip(".")


@pytest.mark.parametrize("reader, kind, path, value", list(_cases()))
def test_every_reader_refuses_a_bad_value_in_one_shape(tmp_path, reader, kind, path, value):
    error, run, valid, prefix, _, _ = _READERS[reader]
    obj = copy.deepcopy(valid)
    *outer, last = path
    target = obj
    for key in outer:
        target = target[key]
    if value is _MISSING:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(error) as info:  # exit 1 for InvalidArgumentError, 2 for ProtocolError
        run(tmp_path, obj)
    shape = re.search(r"field '([^']*)' must be (.*?), got (.*)$", str(info.value))
    assert shape is not None, str(info.value)
    assert shape[1] == prefix + _dotted(path)
    assert shape[2] == _KIND_NAMES[kind]
    if value is _MISSING:
        assert shape[3] == "nothing"
    assert len(shape[3]) <= 203  # a quote of at most 200 characters, then "..."


@pytest.mark.parametrize(
    "read, name, where",
    [
        (read_trace, "trace.jsonl", "trace.jsonl:2: "),
        (read_emission_log, "log.jsonl", "log.jsonl:2: "),
        (load_mock_script, "script.json", "script.json: "),
    ],
    ids=["trace", "emission_log", "mock_script"],
)
def test_file_readers_refuse_bad_utf8_naming_the_file(tmp_path, read, name, where) -> None:
    path = tmp_path / name
    path.write_bytes(b"\n\xff{}\n")
    with pytest.raises(InvalidArgumentError, match=rf"{re.escape(where)}'utf-8' codec"):
        read(path)


# --- the record codec: every record type round-trips through its fields -------

# Tokens may hold U+2028, which ``str.splitlines`` would cut a JSONL line at.
_TOKENS = ("ja", "Haus", "geht.", "a\u2028b", "schläft", "[SEP]")
_WORDS = ("ja", "Haus", "geht.", "schläft", "x,y")


def _time(rng: random.Random) -> float:
    return rng.choice([0.0, 3.0, 1e6, rng.random() * 100, round(rng.random() * 10, 2)])


def _seq(rng: random.Random, pool, most: int) -> tuple:
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, most)))


def _records(rng: random.Random) -> dict[str, object]:
    """One seeded value of each of the eight record types, empty tuples and sentences included."""
    starts = sorted(_time(rng) for _ in range(rng.randint(0, 4)))
    words = tuple(TimedWord(rng.choice(_WORDS), s, s + 0.5) for s in starts)
    beams = []
    scores = sorted((-float(rng.randint(0, 3)) for _ in range(rng.randint(0, 3))), reverse=True)
    for score in scores:
        tokens = _seq(rng, _TOKENS, 5)
        beams.append(BeamHypothesis(tokens, score, tuple(rng.randint(0, 9) for _ in tokens)))
    start = _time(rng)
    history = tuple(_seq(rng, _WORDS, 3) for _ in range(rng.randint(0, 3)))
    return {
        "TimedWord": TimedWord(rng.choice(_WORDS), start, start + _time(rng)),
        "AsrHypothesis": AsrHypothesis(words),
        "BeamHypothesis": beams[0] if beams else BeamHypothesis((), 0.0, ()),
        "BeamSet": BeamSet(tuple(beams)),
        "AsrRequest": AsrRequest("s ", start, start + _time(rng), rng.randint(1, 64)),
        "MtRequest": MtRequest(
            history,
            tuple(_seq(rng, _WORDS, 2) for _ in history),
            _seq(rng, _TOKENS, 4),
            _seq(rng, _TOKENS, 4),
            rng.randint(1, 64),
            rng.choice(["6", ""]),
        ),
        "EmissionRecord": EmissionRecord(rng.choice(_TOKENS), rng.randint(0, 9), start, start + 1),
        "ReferenceSegment": ReferenceSegment(_seq(rng, _TOKENS, 4), start, start + 2.0),
    }


def _history_shape(side: tuple[tuple[str, ...], ...]) -> str:
    if not side:
        return "no sentence"
    if side == ((),):
        return "one empty sentence"
    return "an empty sentence" if () in side else "words"


def test_every_record_round_trips_through_its_fields() -> None:
    rng = random.Random(20)
    history_shapes = set()
    for _ in range(200):
        records = _records(rng)
        for side in (records["MtRequest"].history_source, records["MtRequest"].history_target):
            history_shapes.add(_history_shape(side))
        for record in records.values():
            text = canonical_json(record)
            assert read_record(type(record), strict_json_loads(text)) == record, text
        asr = AsrResponse(records["AsrHypothesis"], _time(rng))
        mt = MtResponse(records["BeamSet"], _time(rng))
        asr_request, mt_request = records["AsrRequest"], records["MtRequest"]
        assert decode_asr_request(encode_asr_request(asr_request)) == asr_request
        assert decode_asr_response(encode_asr_response(asr)) == asr
        assert decode_mt_request(encode_mt_request(mt_request)) == mt_request
        assert decode_mt_response(encode_mt_response(mt)) == mt
    assert history_shapes == {"no sentence", "one empty sentence", "an empty sentence", "words"}


def test_file_records_round_trip_over_seeded_values(tmp_path) -> None:
    rng = random.Random(21)
    for i in range(20):
        log = [EmissionRecord("a\u2028b", 0, 0.0, 3.0)]
        log += [_records(rng)["EmissionRecord"] for _ in range(rng.randint(0, 5))]
        refs, start = [], 0.0
        for _ in range(rng.randint(0, 5)):
            refs.append(ReferenceSegment(_seq(rng, _TOKENS, 4), start, start + 1.0))
            start += rng.choice([1.0, 2.5])
        write_emission_log(log, tmp_path / f"log{i}.jsonl")
        write_reference_segments(refs, tmp_path / f"refs{i}.jsonl")
        assert read_emission_log(tmp_path / f"log{i}.jsonl") == log
        assert read_reference_segments(tmp_path / f"refs{i}.jsonl") == refs


def test_canonical_json_refuses_an_object_that_is_not_a_record() -> None:
    for value in (object(), {1, 2}, TimedWord):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_json({"x": value})


@dataclass(frozen=True)
class _NoLayout:
    words: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]


def test_a_field_without_a_json_layout_fails_when_the_schema_is_built() -> None:
    with pytest.raises(TypeError, match=r"^_NoLayout\.pairs has no JSON layout$"):
        read_record(_NoLayout, {"words": []})
    with pytest.raises(TypeError, match=r"^_NoLayout\.pairs has no JSON layout$"):
        read_record(_NoLayout, {"words": []}, pairs=(("a", "b"),))


def test_read_record_defaults_given_fields_and_names_a_bad_record() -> None:
    script = read_record(MtScript, {"seed": 4}, "mt", word_map={"a": "b"})
    assert script == MtScript(word_map={"a": "b"}, seed=4)
    with pytest.raises(InvalidArgumentError, match=r"field 'mt.word_map.a' must be a string"):
        read_record(MtScript, {"word_map": {"a": 1}}, "mt")
    with pytest.raises(
        InvalidArgumentError, match=r"^field 'beams\[0\]' invalid: beam has 1 tokens but 0 cuts$"
    ):
        read_record(BeamSet, {"beams": [{"tokens": ["x"], "score": 0.0, "cuts": []}]})
