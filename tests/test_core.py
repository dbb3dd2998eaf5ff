from __future__ import annotations

import copy
import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import pytest

from helpers import DEEP_JSON, oracle_canonical_json, oracle_read_jsonl
from simulstream import core
from simulstream.backends import (
    AsrRequest,
    AsrResponse,
    AsrScript,
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
    TimedWord,
    VirtualClock,
    canonical_json,
    check_emission_log,
    check_word,
    dump_jsonl,
    json_object,
    json_report,
    read_jsonl,
    read_record,
    read_records,
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
    # A cost only ever comes from a backend's reply: refusing it is a protocol error.
    with pytest.raises(ProtocolError):
        clock.charge_compute(-0.1)


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
def test_clock_rejects_non_finite_compute_cost(cost) -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    with pytest.raises(ProtocolError):
        clock.charge_compute(cost)
    assert clock.now_s == 5.0


@pytest.mark.parametrize(
    "step, error",
    [("advance_audio", InvalidArgumentError), ("charge_compute", ProtocolError)],
    ids=["advance_audio", "charge_compute"],
)
def test_clock_refuses_finite_steps_that_sum_past_the_largest_float(step, error) -> None:
    clock = VirtualClock()
    getattr(clock, step)(1e308)
    before = (clock.audio_available_s, clock.now_s)
    with pytest.raises(error, match="keep the clock finite, got 1e\\+308 \\+ 1e\\+308"):
        getattr(clock, step)(1e308)
    assert (clock.audio_available_s, clock.now_s) == before


def test_clock_refuses_a_nan_audio_delta() -> None:
    clock = VirtualClock()
    with pytest.raises(InvalidArgumentError, match="audio delta"):
        clock.advance_audio(float("nan"))
    assert (clock.audio_available_s, clock.now_s) == (0.0, 0.0)


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


def test_records_hold_tuples_and_keep_the_tuples_they_are_given() -> None:
    words = (TimedWord("a", 0.0, 0.5), TimedWord("b", 0.5, 1.0))
    tokens, cuts = ("a", "b"), (0, 1)
    beam = BeamHypothesis(tokens, 0.0, cuts)
    beams = (beam, BeamHypothesis(tokens, -1.0, cuts))
    ref_tokens = ("x", "y")
    built = [
        (AsrHypothesis(list(words)).words, AsrHypothesis(words).words, words),
        (BeamHypothesis(list(tokens), 0.0, cuts).tokens, beam.tokens, tokens),
        (BeamHypothesis(tokens, 0.0, list(cuts)).cuts, beam.cuts, cuts),
        (BeamSet(list(beams)).beams, BeamSet(beams).beams, beams),
        (
            ReferenceSegment(list(ref_tokens), 0.0, 1.0).tokens,
            ReferenceSegment(ref_tokens, 0.0, 1.0).tokens,
            ref_tokens,
        ),
    ]
    for from_list, from_tuple, given in built:
        assert type(from_list) is tuple and from_list == given
        assert from_tuple is given
    with pytest.raises(InvalidArgumentError, match=r"^beam has 2 tokens but 1 cuts$"):
        BeamHypothesis(["a", "b"], 0.0, [0])
    with pytest.raises(InvalidArgumentError, match=r"^beams must be ordered by descending score$"):
        BeamSet([beams[1], beams[0]])
    with pytest.raises(
        InvalidArgumentError,
        match=r"^word end times must be non-decreasing: 'b' ends 1\.0 after 'a' ends 0\.5$",
    ):
        AsrHypothesis([words[1], words[0]])


def test_emission_record_requires_nca_before_ca() -> None:
    EmissionRecord("tok", 1.0, 1.5)
    with pytest.raises(InvalidArgumentError):
        EmissionRecord("tok", 2.0, 1.5)


def test_emission_log_monotonicity() -> None:
    log = [EmissionRecord("a", 1.0, 1.5), EmissionRecord("b", 2.0, 2.0)]
    check_emission_log(log)
    bad = [EmissionRecord("a", 2.0, 2.5), EmissionRecord("b", 1.0, 1.5)]
    with pytest.raises(InvalidArgumentError):
        check_emission_log(bad)


def test_stream_history_counts_and_pairing() -> None:
    history = MtRequest(
        history_source=(("a", "b"), ("c",)),
        history_target=(("x",), ("y", "z")),
        active_source=("d", "e"),
        committed_target=("w",),
        beam_size=10,
        attention_layer_tag="6",
    )
    assert history.history_source_words() == 3
    assert history.buffered_source_words() == 5
    with pytest.raises(InvalidArgumentError, match="history desynchronized: 2 source vs 1 target"):
        replace(history, history_target=history.history_target[:-1])


def test_json_object_reports_deep_nesting_as_invalid_argument() -> None:
    assert json_object('{"a": [[1]]}') == {"a": [[1]]}
    message = "invalid JSON: JSON nested too deeply to decode; payload: '[[["
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}"):
        json_object(DEEP_JSON)


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
        {"kind": "audio", "dur": 0.5}, "",
        {float: ("dur",), str: ("kind",)}, (float, ("dur",)),
    ),
    "emission_log": (
        InvalidArgumentError, _file_reader(read_emission_log, ".jsonl"),
        {"token": "ja", "nca_time_s": 1.0, "ca_time_s": 1.5}, "",
        {str: ("token",), float: ("ca_time_s",)}, (float, ("nca_time_s",)),
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
# Words pass ``check_word``, as source words and reference tokens must.
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
        "EmissionRecord": EmissionRecord(rng.choice(_TOKENS), start, start + 1),
        "ReferenceSegment": ReferenceSegment(_seq(rng, _WORDS, 4), start, start + 2.0),
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
            assert read_record(type(record), json_object(text)) == record, text
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
        log = [EmissionRecord("a\u2028b", 0.0, 3.0)]
        # Reading a log checks that its NCA times never fall.
        records = [_records(rng)["EmissionRecord"] for _ in range(rng.randint(0, 5))]
        log += sorted(records, key=lambda r: r.nca_time_s)
        refs, start = [], 0.0
        for _ in range(rng.randint(0, 5)):
            refs.append(ReferenceSegment(_seq(rng, _WORDS, 4), start, start + 1.0))
            start += rng.choice([1.0, 2.5])
        write_emission_log(log, tmp_path / f"log{i}.jsonl")
        write_reference_segments(refs, tmp_path / f"refs{i}.jsonl")
        assert read_emission_log(tmp_path / f"log{i}.jsonl") == log
        if refs:
            assert read_reference_segments(tmp_path / f"refs{i}.jsonl") == refs
        else:  # a references file with no segment is refused
            with pytest.raises(InvalidArgumentError, match="no reference segment"):
                read_reference_segments(tmp_path / f"refs{i}.jsonl")


def test_canonical_json_refuses_an_object_that_is_not_a_record() -> None:
    for value in (object(), {1, 2}, TimedWord):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_json({"x": value})


# --- the record codec against the standard library's encoder and line reader --

# Strings that JSON escapes or, under ``ensure_ascii=False``, keeps raw
# (U+2028 and U+0085 included), and numbers with odd shortest forms.
_ODD_STRINGS = ("schläft", "a\u2028b", "x\u0085y", "\x00\x08\x1f\x7f", 'q"\\/', "\U0001f600", "\ufeff")
_ODD_FLOATS = (-0.0, 0.0, 1e-7, 1e16, 0.1, 1.5e300, 5e-324, 123456789.125)
_ODD_INTS = (0, 2**53 + 1, 2**63, 10**30)


def _odd_records(rng: random.Random) -> list:
    """A value of each record class, with odd strings and numbers."""
    text = rng.choice(_ODD_STRINGS)
    time = rng.choice(_ODD_FLOATS)
    big = rng.choice(_ODD_INTS)
    words = _records(rng)["AsrHypothesis"].words
    beam = BeamHypothesis((text, SENTINEL), rng.choice(_ODD_FLOATS), (big, 0))
    history = rng.choice([(), ((),), (("ja",), ()), ((), (text, "x"))])
    return [
        *_records(rng).values(),
        EmissionRecord(text, time, time),
        MtResponse(BeamSet((beam,)), time),
        AsrResponse(AsrHypothesis(words), time),
        MtRequest(history, history, (text,), (), 64, text),
        AsrRequest(text, 0.0, time, 1),
        AsrScript(words, seed=big),  # has fields that __init__ does not take
        MtScript({text: "ja", "": "Haus"}, seed=-big),  # a Mapping field
        preset_config(rng.choice(["adapted", "baseline"])),
    ]


def test_canonical_json_matches_the_standard_encoder_on_every_record_class() -> None:
    rng = random.Random(23)
    classes = set()
    for _ in range(300):
        values = _odd_records(rng)
        classes.update(type(v) for v in values)
        for value in values:
            assert canonical_json(value) == oracle_canonical_json(value)
        message = {"v": 3, "kind": rng.choice(_ODD_STRINGS), "values": values, "n": (-0.0, 1e16)}
        assert canonical_json(message) == oracle_canonical_json(message)
    assert len(classes) == 13


@dataclass(frozen=True)
class _Flat:
    """A record of every scalar kind, for the writer's column path."""

    name: str
    count: int
    flag: bool
    at: float


@dataclass(frozen=True)
class _One:
    n: int


@dataclass(frozen=True)
class _Maybe:
    at: float | None = None


class _Text(str):
    pass


@dataclass(frozen=True)
class _Empty:
    pass


def _unresolved_class() -> type:
    """A record whose annotations name a class ``get_type_hints`` cannot find."""

    class Local:
        pass

    @dataclass(frozen=True)
    class Unresolved:
        at: Local
        n: int

    return Unresolved


_Unresolved = _unresolved_class()


# The odd strings ``check_word`` takes as words.
_WORD_TEXTS = ("schläft", 'q"\\/', "\U0001f600", "\ufeff")


def _odd_text(rng: random.Random) -> str:
    return rng.choice(_ODD_STRINGS + ("le", SENTINEL, 'q"\\', "\t\n", "\u2029"))


def _writer_lists(rng: random.Random) -> dict[str, list]:
    """Seeded record lists, by what makes them taken by column or not."""
    times = [rng.choice(_ODD_FLOATS) for _ in range(rng.randint(1, 6))]
    emissions = [EmissionRecord(_odd_text(rng), t, t) for t in times]
    odd = rng.randrange(len(emissions))
    token, t = emissions[odd].token, emissions[odd].nca_time_s

    def with_odd(record) -> list:
        return emissions[:odd] + [record] + emissions[odd + 1 :]

    flats = [
        _Flat(_odd_text(rng), rng.choice(_ODD_INTS), rng.random() < 0.5, rng.choice(_ODD_FLOATS))
        for _ in range(rng.randint(1, 4))
    ]
    return {
        "emissions": emissions,
        "flat": flats,
        "one field": [_One(rng.choice(_ODD_INTS)) for _ in range(rng.randint(1, 3))],
        "NaN": with_odd(EmissionRecord(token, math.nan, math.nan)),
        "infinity": with_odd(EmissionRecord(token, rng.choice([-math.inf, t]), math.inf)),
        "overflowing sum": [EmissionRecord("a", 1e308, 1e308), EmissionRecord("b", 1e308, 1e308)],
        "int in a float field": with_odd(EmissionRecord(token, 0, rng.choice([1, t]))),
        "bool in a float field": with_odd(EmissionRecord(token, False, True)),
        "str subclass": with_odd(EmissionRecord(_Text(token), t, t)),
        "mixed classes": [*emissions, TimedWord("ja", 0.0, t)],
        "None in a float field": [_Maybe(t), _Maybe()],
        "empty": [],
        "tuple fields": [
            ReferenceSegment(("schläft", "x"), -0.0, 1e-7),
            ReferenceSegment((), 0.5, rng.choice([1.5e300, 1e16])),
        ],
        "beams": [BeamHypothesis((token,), t, (rng.choice(_ODD_INTS),))],
        "no layout": [_NoLayout(("ja", token), ((token, "x"),)), _NoLayout((), ())],
        "no field": [_Empty() for _ in range(rng.randint(1, 3))],
        "no field, mixed": [_Empty(), emissions[0], _Empty()],
        "unresolved hints": [_Unresolved(t, 1), _Unresolved(1.5, 2)],
        "None first": [_Maybe(), _Maybe(t), _Maybe()],
        "nested beam sets": [
            BeamSet((BeamHypothesis((token,), t, (0,)), BeamHypothesis((), -1.0, ()))),
            BeamSet(()),
        ],
        "nested words": [
            AsrHypothesis((TimedWord("ja", 0.0, t), TimedWord(rng.choice(_WORD_TEXTS), t, t))),
            AsrHypothesis(()),
        ],
    }


def test_dump_jsonl_matches_the_standard_encoder_record_by_record() -> None:
    rng = random.Random(37)
    for _ in range(200):
        for kind, records in _writer_lists(rng).items():
            expected = "".join(oracle_canonical_json(r) + "\n" for r in records)
            assert dump_jsonl(records) == expected, kind
            assert dump_jsonl(iter(records)) == expected, kind


@pytest.mark.parametrize(
    "records",
    [
        [object()],
        [EmissionRecord("a", 0.0, 0.0), "b"],
        ["a", "b"],
        [TimedWord],
        [_Empty(), {"x": 1}],
    ],
)
def test_dump_jsonl_refuses_a_list_holding_a_non_record(records) -> None:
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dump_jsonl(records)


def test_dump_jsonl_writes_the_odd_values_the_standard_encoder_writes() -> None:
    records = [
        EmissionRecord("a\u2028b\U0001f600", -0.0, 5e-324),
        EmissionRecord("\x00\"\\", math.nan, math.inf),
        EmissionRecord("x", -math.inf, 1e308),
    ]
    assert dump_jsonl(records) == (
        '{"ca_time_s":5e-324,"nca_time_s":-0.0,"token":"a\u2028b\U0001f600"}\n'
        '{"ca_time_s":Infinity,"nca_time_s":NaN,"token":"\\u0000\\"\\\\"}\n'
        '{"ca_time_s":1e+308,"nca_time_s":-Infinity,"token":"x"}\n'
    )
    zeros = [EmissionRecord("a", 0.0, 0.0), EmissionRecord("b", -0.0, 0.0), EmissionRecord("c", 0.0, 1.5)]
    assert dump_jsonl(zeros) == (
        '{"ca_time_s":0.0,"nca_time_s":0.0,"token":"a"}\n'
        '{"ca_time_s":0.0,"nca_time_s":-0.0,"token":"b"}\n'
        '{"ca_time_s":1.5,"nca_time_s":0.0,"token":"c"}\n'
    )
    flags = [_Flat("n", -3, True, 0.5), _Flat("m", 2**64, False, -1e16)]
    assert dump_jsonl(flags) == (
        '{"at":0.5,"count":-3,"flag":true,"name":"n"}\n'
        '{"at":-1e+16,"count":18446744073709551616,"flag":false,"name":"m"}\n'
    )


def test_a_failed_encode_leaves_later_encodes_whole() -> None:
    # A failed encode leaves the containers it was inside in its ``markers``
    # dict, so an encoder that shared the dict across calls would take each
    # of them for a cycle when it met it again.
    words = ["ja", object()]
    message = {"words": words}
    with pytest.raises(TypeError, match="is not JSON serializable"):
        canonical_json(message)
    words[1] = "Haus"
    assert canonical_json(message) == '{"words":["ja","Haus"]}'
    assert canonical_json([message, words]) == '[{"words":["ja","Haus"]},["ja","Haus"]]'


def _codec_outputs() -> list[str]:
    """What ``canonical_json``, ``dump_jsonl`` and the wire encoders write
    for seeded records, the wire fixtures and the golden log."""
    rng = random.Random(41)
    texts = []
    for _ in range(40):
        texts += map(canonical_json, _odd_records(rng))
        records = _records(rng)
        texts += [
            encode_asr_request(records["AsrRequest"]),
            encode_asr_response(AsrResponse(records["AsrHypothesis"], _time(rng))),
            encode_mt_request(records["MtRequest"]),
            encode_mt_response(MtResponse(records["BeamSet"], _time(rng))),
        ]
        texts += map(dump_jsonl, _writer_lists(rng).values())
    requests = (DATA / "wire_requests.jsonl").read_text(encoding="utf-8").splitlines()
    responses = (DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()
    texts += [
        encode_asr_request(decode_asr_request(requests[0])),
        encode_mt_request(decode_mt_request(requests[1])),
        encode_asr_response(decode_asr_response(responses[0])),
        encode_mt_response(decode_mt_response(responses[1])),
        dump_jsonl(read_emission_log(DATA / "golden_log_60s.jsonl")),
    ]
    return texts


def test_the_codec_writes_the_same_bytes_without_the_c_encoder() -> None:
    # ``json.encoder.c_make_encoder`` is None where CPython's ``_json``
    # accelerator is missing; the pure-Python encoder must write the same text.
    child = (
        "import json, json.encoder\n"
        "json.encoder.c_make_encoder = None\n"
        "import test_core\n"
        "assert json.encoder.c_make_encoder is None\n"
        "print(json.dumps(test_core._codec_outputs()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child],
        cwd=Path(__file__).parent,
        capture_output=True,
        text=True,
        check=True,
    )
    expected = _codec_outputs()
    assert expected[-1] == (DATA / "golden_log_60s.jsonl").read_text(encoding="utf-8")
    assert json.loads(done.stdout) == expected


_ODD_LINES = (
    '{"a":1}{"b":2}',  # two objects on one line
    '{"a":1} x',  # trailing garbage
    '  {"a":1}',
    '{"a":1}\t ',
    "\u00a0",  # not blank: only ASCII whitespace is
    "\x1c",
    "\u2028",
    "\x0c\x0b \t",  # blank
    "",
    '{"a":NaN}',
    '{"a":[-Infinity]}',
    DEEP_JSON,
    "[1]",
    '"x"',
    "null",
    '{"a":1',
    '{"a":"\x01"}',  # a raw control character in a string
    "\ufeff{}",
)
_BAD_UTF8 = (b'{"token":"\xff"}', b"\xe2\x82", b"  \xc3(", b'{"a":"\xed\xa0\x80"}')


def _odd_jsonl(rng: random.Random) -> bytes:
    """Lines of JSONL, mostly canonical records and some odd or bad."""
    lines = []
    for _ in range(rng.randint(0, 6)):
        pick = rng.random()
        if pick < 0.6:
            line = canonical_json(_odd_records(rng)[8]).encode()  # an EmissionRecord
        elif pick < 0.95:
            line = rng.choice(_ODD_LINES).encode()
        else:
            line = rng.choice(_BAD_UTF8)
        lines.append(line + rng.choice([b"\n", b"\r\n"]))
    return b"".join(lines) + rng.choice([b"", b"\n", b"{}"])


def _outcome(read, path, parse):
    try:
        return read(path, parse)
    except InvalidArgumentError as exc:
        return str(exc)


def test_read_jsonl_matches_the_line_by_line_reader(tmp_path) -> None:
    rng = random.Random(24)
    path = tmp_path / "odd.jsonl"
    outcomes = Counter()
    for _ in range(600):
        path.write_bytes(_odd_jsonl(rng))
        for parse in (dict, partial(read_record, EmissionRecord)):
            mine = _outcome(read_jsonl, path, parse)
            assert mine == _outcome(oracle_read_jsonl, path, parse)
            outcomes[type(mine).__name__, parse is dict] += 1
    # Both readers succeed and fail often, on plain objects and on records.
    assert min(outcomes.values()) > 100, outcomes


# Only a \\u escape can spell a surrogate in text decoded from UTF-8.
_LONE_SURROGATES = (r'"hello\ud800."', r'"\udc00"', r'"\ud800\ud800"', r'"\ud800\\udc00"')
_ESCAPED_TEXT = {r'"\ud83d\ude00"': "\U0001f600", r'"\\ud800"': "\\ud800", r'"\u00e9"': "\u00e9"}


def test_an_unpaired_surrogate_escape_is_refused_at_the_json_boundary(tmp_path) -> None:
    path = tmp_path / "log.jsonl"
    for value in _LONE_SURROGATES:
        line = f'{{"token":{value}}}'
        with pytest.raises(InvalidArgumentError, match="^invalid JSON: unpaired surrogate"):
            json_object(line)
        path.write_text('{"a":1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(path))}:2: .*unpaired surrogate"):
            read_jsonl(path, dict)
    for value, text in _ESCAPED_TEXT.items():
        line = f'{{"token":{value}}}'
        assert json_object(line) == {"token": text}
        path.write_text('{"a":1}\n' + line + "\n", encoding="utf-8")
        assert read_jsonl(path, dict) == [{"a": 1}, {"token": text}]


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


# --- a list of records read by column against the item-by-item reader --------

# The float and list fields of each class read by column; the rest are strings.
_COLUMN_FIELDS = {
    EmissionRecord: (("nca_time_s", "ca_time_s"), ()),
    ReferenceSegment: (("source_start_s", "source_end_s"), ("tokens",)),
    TimedWord: (("start_s", "end_s"), ()),
    BeamHypothesis: (("score",), ("tokens", "cuts")),
}


def _refused_by_class(cls, obj: dict) -> None:
    """Make ``obj`` break a check of the class itself, not of a field's kind."""
    if cls is EmissionRecord:
        obj["nca_time_s"] = obj["ca_time_s"] + 1.0
    elif cls is ReferenceSegment:
        obj["source_end_s"] = obj["source_start_s"]
    elif cls is TimedWord:
        obj["text"] = "two words"
    else:
        obj["cuts"] = obj["cuts"] + [0]


def _fault(rng: random.Random, cls, obj: dict) -> str | None:
    """Break one value of ``obj`` in one of the ways a column can be
    refused, or change it in a way both readers take; the fault's name, or
    None if ``cls`` has no field it applies to."""
    floats, lists = _COLUMN_FIELDS[cls]
    name = rng.choice(
        ["missing", "wrong_kind", "bool", "int_in_float", "1e400", "nan", "non_list",
         "bad_item", "refused_by_class", "extra_key"]
    )
    field = rng.choice(sorted(obj))
    if name == "missing":
        del obj[field]
    elif name == "wrong_kind":
        obj[field] = rng.choice([None, {}, 7 if type(obj[field]) is str else "7"])
    elif name == "bool":  # a bool in a float column, or in the int items of ``cuts``
        if "cuts" in lists and rng.random() < 0.5:
            obj["cuts"] = [*obj["cuts"], True]
        else:
            obj[rng.choice(floats)] = rng.choice([True, False])
    elif name == "int_in_float":  # read item by item it is a float, unless too large for one
        obj[rng.choice(floats)] = rng.choice([0, 3, 10**400])
    elif name == "1e400":  # decodes to an infinite float
        obj[rng.choice(floats)] = float(rng.choice(["1e400", "-1e400"]))
    elif name == "nan":  # no JSON spells it, but no column may let it through
        obj[rng.choice(floats)] = float("nan")
    elif name in ("non_list", "bad_item"):
        if not lists:
            return None
        field = rng.choice(lists)
        if name == "non_list":
            obj[field] = rng.choice(["ab", {"a": 1}, 0])
        else:
            obj[field] = [*obj[field], rng.choice([1.5, None, [], "x" if field == "cuts" else 1])]
    elif name == "refused_by_class":
        _refused_by_class(cls, obj)
    else:
        obj[rng.choice(["extra", "segment_ordinal"])] = rng.choice([1, None, "x"])
    return name


def _read_outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # the exception's type and message must agree
        return type(exc), str(exc)


def test_read_records_matches_reading_each_item(monkeypatch) -> None:
    rng = random.Random(25)
    item_reads = []
    real_read_record = core.read_record

    def counted(cls, obj, where="", **given):
        item_reads.append(where)
        return real_read_record(cls, obj, where, **given)

    monkeypatch.setattr(core, "read_record", counted)
    seen = Counter()
    for _ in range(3000):
        cls = rng.choice(list(_COLUMN_FIELDS))
        objects = [
            json.loads(canonical_json(_records(rng)[cls.__name__]))
            for _ in range(rng.choice([0, 1, 2, 5, 9]))
        ]
        faults = []  # at most one to an item, so each breaks a valid object
        if rng.random() < 0.1:
            # Finite floats whose sum is not: the column is refused, every item taken.
            for obj in objects:
                for field, value in zip(_COLUMN_FIELDS[cls][0], (1.7e308, 1.75e308)):
                    obj[field] = value
            faults.append((-1, "largest_floats"))
        for k in rng.sample(range(len(objects)), min(len(objects), rng.choice([0, 0, 1, 2]))):
            fault = _fault(rng, cls, objects[k])
            if fault:
                faults.append((k, fault))
        where = rng.choice(["", "words", "beams"])
        expected = _read_outcome(
            lambda: [real_read_record(cls, o, f"{where}[{i}]") for i, o in enumerate(objects)]
        )
        del item_reads[:]
        got = _read_outcome(read_records, cls, objects, where)
        assert got == expected, (cls.__name__, faults, objects)
        if not faults:  # a list as a writer leaves it is read by column alone
            assert item_reads == [], (cls.__name__, objects)
        first = min(faults)[1] if faults else "none"
        seen[cls.__name__, first, "refused" if type(got) is tuple else "read"] += 1
    # Every fault was tried on every class it applies to, and the ones both
    # readers take were taken.
    for cls in _COLUMN_FIELDS:
        names = {fault for (c, fault, _) in seen if c == cls.__name__}
        assert names >= {
            "none", "missing", "wrong_kind", "bool", "int_in_float", "1e400", "nan",
            "refused_by_class", "extra_key", "largest_floats",
        }, (cls.__name__, names)
        if _COLUMN_FIELDS[cls][1]:
            assert {"non_list", "bad_item"} <= names, cls.__name__
        for taken in ("none", "int_in_float", "extra_key", "largest_floats"):
            assert seen[cls.__name__, taken, "read"] > 0, (cls.__name__, taken)
        for refused in ("missing", "wrong_kind", "1e400", "nan", "refused_by_class"):
            assert seen[cls.__name__, refused, "refused"] > 0, (cls.__name__, refused)


@dataclass(frozen=True)
class _Kept:
    """A record that keeps its fields as given."""

    words: tuple[str, ...]
    at_s: float


def test_read_records_gives_a_list_field_as_a_tuple_as_read_record_does() -> None:
    objects = [{"words": ["ja", "Haus"], "at_s": 1.0}, {"words": [], "at_s": 2.5}]
    records = read_records(_Kept, objects)
    assert records == [read_record(_Kept, obj) for obj in objects]
    assert [type(r.words) for r in records] == [tuple, tuple]


@dataclass(frozen=True)
class _Lists:
    """A record with a list field of each scalar kind but bool."""

    words: tuple[str, ...]
    cuts: tuple[int, ...]
    times: tuple[float, ...]


def test_read_records_keeps_float_lists_apart_with_their_signs() -> None:
    # 0.0 == -0.0, so one shared tuple would give both records one sign.
    objects = [
        {"words": [], "cuts": [], "times": [0.0]},
        {"words": [], "cuts": [], "times": [-0.0]},
    ]
    first, second = read_records(_Lists, objects)
    assert first.times is not second.times
    assert [math.copysign(1.0, r.times[0]) for r in (first, second)] == [1.0, -1.0]


def test_a_bad_item_of_a_wire_reply_is_named_by_its_place() -> None:
    beam = {"tokens": ["we", "go"], "score": 0.0, "cuts": [0, 1]}
    reply = {"v": 3, "kind": "mt", "compute_cost_s": 0.1, "beams": [beam, beam, beam, beam]}
    reply["beams"][2] = {**beam, "cuts": [0, "1"]}
    with pytest.raises(ProtocolError, match=r"^field 'beams\[2\]\.cuts\[1\]' must be an integer, got '1'$"):
        decode_mt_response(json.dumps(reply))
    reply["beams"][2] = {**beam, "cuts": [0]}
    with pytest.raises(
        ProtocolError, match=r"^field 'beams\[2\]' invalid: beam has 2 tokens but 1 cuts$"
    ):
        decode_mt_response(json.dumps(reply))
    word = {"text": "a", "start_s": 0.0, "end_s": 0.5}
    reply = {"v": 3, "kind": "asr", "compute_cost_s": 0.1, "words": [word, {**word, "end_s": 1}]}
    assert decode_asr_response(json.dumps(reply)).hypothesis.words[1].end_s == 1.0
    reply["words"][1] = {**word, "start_s": True}
    with pytest.raises(ProtocolError, match=r"^field 'words\[1\]\.start_s' must be a number, got True$"):
        decode_asr_response(json.dumps(reply))


def _rewrite_wire(path: Path, codecs: dict) -> str:
    """Each message line of a wire file decoded and encoded again by the
    codec pair of its kind."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        decode, encode = codecs[json.loads(line)["kind"]]
        lines.append(encode(decode(line)) + "\n")
    return "".join(lines)


_REWRITES = {
    "golden_log_60s.jsonl": lambda path: dump_jsonl(read_emission_log(path)),
    "refs_60s.jsonl": lambda path: dump_jsonl(read_reference_segments(path)),
    "wire_requests.jsonl": partial(
        _rewrite_wire,
        codecs={
            "asr": (decode_asr_request, encode_asr_request),
            "mt": (decode_mt_request, encode_mt_request),
        },
    ),
    "wire_responses.jsonl": partial(
        _rewrite_wire,
        codecs={
            "asr": (decode_asr_response, encode_asr_response),
            "mt": (decode_mt_response, encode_mt_response),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_REWRITES))
def test_every_jsonl_fixture_reads_and_writes_back_byte_for_byte(name) -> None:
    path = DATA / name
    assert _REWRITES[name](path).encode("utf-8") == path.read_bytes()
