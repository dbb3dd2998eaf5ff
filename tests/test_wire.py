from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import DEEP_JSON, build_scripts, synth_sentences

from simulstream.asr_stream import AsrStreamConfig, AsrStreamController
from simulstream.backends import (
    AsrRequest,
    AsrResponse,
    MockMtBackend,
    MtRequest,
    MtResponse,
    MtScript,
    mock_asr_decode,
    mock_mt_translate,
)
from simulstream.core import (
    AsrHypothesis,
    BackendError,
    BeamHypothesis,
    BeamSet,
    ProtocolError,
    TimedWord,
    VirtualClock,
    canonical_json,
)
from simulstream.mt_stream import MtStreamConfig, MtStreamController
from simulstream.wire import (
    WireAsrBackend,
    WireChannel,
    WireMtBackend,
    decode_asr_request,
    decode_asr_response,
    decode_mt_request,
    decode_mt_response,
    encode_asr_request,
    encode_asr_response,
    encode_mt_request,
    encode_mt_response,
    serve,
)

DATA = Path(__file__).parent / "data"


def test_golden_requests_roundtrip_byte_identically() -> None:
    lines = (DATA / "wire_requests.jsonl").read_text(encoding="utf-8").splitlines()
    assert encode_asr_request(decode_asr_request(lines[0])) == lines[0]
    assert encode_mt_request(decode_mt_request(lines[1])) == lines[1]


def test_golden_responses_roundtrip_byte_identically() -> None:
    lines = (DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()
    assert encode_asr_response(decode_asr_response(lines[0])) == lines[0]
    assert encode_mt_response(decode_mt_response(lines[1])) == lines[1]


def test_mt_request_history_travels_as_lists_of_words() -> None:
    lines = (DATA / "wire_requests.jsonl").read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    assert obj["history_source"] == [["bellt."], ["die", "katze", "schläft."], ["es", "regnet."]]
    assert obj["history_target"] == [[], ["the", "cat", "sleeps."], ["it", "rains."]]
    request = decode_mt_request(lines[1])
    assert request.history_source == (("bellt.",), ("die", "katze", "schläft."), ("es", "regnet."))
    assert request.history_target == ((), ("the", "cat", "sleeps."), ("it", "rains."))


def test_truncated_line_is_a_protocol_error() -> None:
    lines = (DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()
    truncated = lines[0][: len(lines[0]) // 2]
    with pytest.raises(ProtocolError, match="invalid JSON"):
        decode_asr_response(truncated)


def test_missing_field_is_named() -> None:
    obj = json.loads((DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()[0])
    del obj["compute_cost_s"]
    with pytest.raises(ProtocolError, match="compute_cost_s"):
        decode_asr_response(json.dumps(obj))


def test_wrong_type_is_named() -> None:
    obj = json.loads((DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()[0])
    obj["words"][1]["end_s"] = "late"
    with pytest.raises(ProtocolError, match=r"words\[1\]\.end_s"):
        decode_asr_response(json.dumps(obj))


def test_negative_cost_and_bad_kind_are_rejected() -> None:
    lines = (DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["compute_cost_s"] = -1.0
    with pytest.raises(ProtocolError, match="compute_cost_s"):
        decode_asr_response(json.dumps(obj))
    with pytest.raises(ProtocolError, match="kind"):
        decode_mt_response(lines[0])


def test_invalid_word_payload_is_a_protocol_error() -> None:
    obj = json.loads((DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()[0])
    obj["words"][0]["text"] = "[SEP]"
    with pytest.raises(ProtocolError, match=r"words\[0\]"):
        decode_asr_response(json.dumps(obj))


def _golden_lines(name: str) -> list[str]:
    return (DATA / name).read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_asr_request_with_non_finite_number_is_rejected(literal) -> None:
    line = _golden_lines("wire_requests.jsonl")[0].replace("7.25", literal)
    with pytest.raises(ProtocolError, match=literal):
        decode_asr_request(line)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_asr_response_with_non_finite_number_is_rejected(literal) -> None:
    line = _golden_lines("wire_responses.jsonl")[0]
    for field in ('"compute_cost_s":0.147', '"start_s":2.5', '"end_s":3.8'):
        name = field.split(":")[0]
        with pytest.raises(ProtocolError, match=literal):
            decode_asr_response(line.replace(field, f"{name}:{literal}"))


def test_overflowing_compute_cost_is_rejected() -> None:
    asr, mt = _golden_lines("wire_responses.jsonl")[:2]
    with pytest.raises(ProtocolError, match="compute_cost_s"):
        decode_asr_response(asr.replace('"compute_cost_s":0.147', '"compute_cost_s":1e999'))
    with pytest.raises(ProtocolError, match="compute_cost_s"):
        decode_mt_response(
            mt.replace('"compute_cost_s":0.12000000000000001', '"compute_cost_s":1e999')
        )


# An overflowing literal reads as inf without reaching parse_constant, and a
# huge integer overflows float(); each number field must reject both.
_HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "decode, old, new, field",
    [
        (decode_asr_request, '"window_start_s":2.5', '"window_start_s":1e999', "window_start_s"),
        (decode_asr_request, '"window_end_s":7.25', '"window_end_s":1e999', "window_end_s"),
        (
            decode_asr_request,
            '"window_start_s":2.5',
            f'"window_start_s":{_HUGE_INT}',
            "window_start_s",
        ),
        (
            decode_asr_response,
            '"end_s":3.8,"start_s":3.1',
            '"end_s":1e999,"start_s":1e999',
            r"words\[1\]\.start_s",
        ),
        (decode_asr_response, '"end_s":3.8', '"end_s":1e999', r"words\[1\]\.end_s"),
        (decode_mt_response, '"score":0.0', '"score":1e999', r"beams\[0\]\.score"),
        (decode_mt_response, '"cuts":[0,1]', '"cuts":[0,1e999]', r"beams\[0\]\.cuts\[1\]"),
    ],
    ids=[
        "asr_request.window_start_s",
        "asr_request.window_end_s",
        "asr_request.window_start_s_huge_int",
        "asr_response.words.start_s",
        "asr_response.words.end_s",
        "mt_response.beams.score",
        "mt_response.beams.cuts",
    ],
)
def test_overflowing_number_is_rejected(decode, old, new, field) -> None:
    golden = "wire_requests.jsonl" if decode is decode_asr_request else "wire_responses.jsonl"
    (line,) = [line for line in _golden_lines(golden) if old in line]
    with pytest.raises(ProtocolError, match=field):
        decode(line.replace(old, new, 1))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_mt_request_with_non_finite_number_is_rejected(literal) -> None:
    line = _golden_lines("wire_requests.jsonl")[1]
    line = line.replace('"beam_size":10', f'"beam_size":{literal}')
    with pytest.raises(ProtocolError, match=literal):
        decode_mt_request(line)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_mt_response_with_non_finite_number_is_rejected(literal) -> None:
    line = _golden_lines("wire_responses.jsonl")[1]
    for field, value in (
        ('"compute_cost_s":0.12000000000000001', f'"compute_cost_s":{literal}'),
        ('"score":-1.0', f'"score":{literal}'),
        ('"cuts":[0,1]', f'"cuts":[{literal},1]'),
    ):
        with pytest.raises(ProtocolError, match=literal):
            decode_mt_response(line.replace(field, value, 1))


@pytest.mark.parametrize("cut", ["1.0", "true", '"1"', "null"])
def test_cut_must_be_an_integer(cut) -> None:
    line = _golden_lines("wire_responses.jsonl")[1].replace('"cuts":[0,1]', f'"cuts":[0,{cut}]', 1)
    with pytest.raises(ProtocolError, match=r"'beams\[0\]\.cuts\[1\]' must be an integer"):
        decode_mt_response(line)


def test_cut_count_must_match_the_tokens() -> None:
    line = _golden_lines("wire_responses.jsonl")[1].replace('"cuts":[0,1]', '"cuts":[0]', 1)
    with pytest.raises(ProtocolError, match=r"'beams\[0\]' invalid: beam has 2 tokens but 1 cuts"):
        decode_mt_response(line)


# The MT reply golden of protocol version 1, which carried dense attention rows.
_V1_MT_REPLY = (
    '{"beams":[{"attention":[[1.0,0.0],[0.0,1.0]],"score":0.0,"tokens":["we","go"]},'
    '{"attention":[[1.0,0.0],[0.0,1.0]],"score":-1.0,"tokens":["we","go"]}],'
    '"compute_cost_s":0.12000000000000001,"kind":"mt","requested_size":2,"v":1}'
)


def test_v1_mt_reply_is_rejected_naming_v() -> None:
    with pytest.raises(ProtocolError, match="field 'v' must be 3, got 1"):
        decode_mt_response(_V1_MT_REPLY)


# The MT request golden of protocol version 2, which joined each history side
# into one string with the sentinel.
_V2_MT_REQUEST = (
    '{"active_source":["wir","gehen"],"attention_layer_tag":"6","beam_size":10,'
    '"committed_target":["we"],"history_source":"der hund bellt. [SEP] die katze schläft. '
    '[SEP] es regnet.","history_target":"the dog barks. [SEP] the cat sleeps. [SEP] it rains.",'
    '"kind":"mt","v":2}'
)


def test_v2_mt_request_is_rejected_naming_v() -> None:
    with pytest.raises(ProtocolError, match="field 'v' must be 3, got 2"):
        decode_mt_request(_V2_MT_REQUEST)
    out = io.BytesIO()
    serve(_Unreachable(), _Unreachable(), io.BytesIO(_V2_MT_REQUEST.encode() + b"\n"), out)
    assert json.loads(out.getvalue()) == {
        "kind": "error", "message": "field 'v' must be 3, got 2", "v": 3
    }


@pytest.mark.parametrize(
    "decode", [decode_asr_request, decode_asr_response, decode_mt_request, decode_mt_response]
)
def test_deeply_nested_line_is_a_protocol_error(decode) -> None:
    with pytest.raises(ProtocolError, match="nested too deeply"):
        decode(DEEP_JSON)


def test_string_list_errors_name_their_path() -> None:
    request = json.loads(_golden_lines("wire_requests.jsonl")[1])
    request["active_source"][1] = 7
    with pytest.raises(ProtocolError, match=r"field 'active_source\[1\]' must be a string, got 7"):
        decode_mt_request(json.dumps(request))
    response = json.loads(_golden_lines("wire_responses.jsonl")[1])
    response["beams"][1]["tokens"][0] = None
    with pytest.raises(ProtocolError, match=r"'beams\[1\]\.tokens\[0\]' must be a string"):
        decode_mt_response(json.dumps(response))


def _huge_mt_reply(path: str) -> str:
    response = json.loads(_golden_lines("wire_responses.jsonl")[1])
    if path == "beams":
        response["beams"] = "x" * 100_000
    else:
        response["beams"][0]["tokens"][0] = ["y" * 100_000]
    return json.dumps(response)


@pytest.mark.parametrize(
    "line, named",
    [
        (DEEP_JSON, "invalid JSON: JSON nested too deeply"),
        ('"' + "z" * 200_000 + '"', "expected a JSON object"),
        (_huge_mt_reply("beams"), "field 'beams' must be a list"),
        (_huge_mt_reply("tokens"), "field 'beams[0].tokens[0]' must be a string"),
    ],
    ids=["deep", "not_an_object", "wrong_type", "list_item"],
)
def test_errors_quote_only_an_excerpt_of_a_huge_payload(line, named) -> None:
    with pytest.raises(ProtocolError) as info:
        decode_mt_response(line)
    message = str(info.value)
    assert named in message
    assert len(message) < 500


def _mock_script(tmp_path):
    rng = random.Random(29)
    asr_script, mt_script, duration = build_scripts(synth_sentences(rng, 2), seed=4)
    payload = {
        "seed": 4,
        "asr": {
            "words": [
                {"text": w.text, "start_s": w.start_s, "end_s": w.end_s}
                for w in asr_script.words
            ],
            "audio_duration_s": asr_script.audio_duration_s,
        },
        "mt": {},
    }
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(payload), encoding="utf-8")
    return [sys.executable, "-m", "simulstream.wire_server", str(script_path)], asr_script, mt_script


def _spawn_mock_server(tmp_path):
    command, asr_script, mt_script = _mock_script(tmp_path)
    return WireChannel.spawn(command), asr_script, mt_script


def test_wire_backends_match_in_process_mocks(tmp_path) -> None:
    channel, asr_script, mt_script = _spawn_mock_server(tmp_path)
    try:
        asr = WireAsrBackend(channel, timeout_s=20.0)
        mt = WireMtBackend(channel, timeout_s=20.0)
        asr_request = AsrRequest("s", 0.0, asr_script.audio_duration_s, 5)
        assert asr.decode(asr_request) == mock_asr_decode(asr_script, asr_request)
        mt_request = MtRequest(
            (("alte", "satz."),),
            (("ALTE", "SATZ."),),
            ("neue", "wörter."),
            ("NEUE",),
            4,
            "6",
        )
        assert mt.translate(mt_request) == mock_mt_translate(mt_script, mt_request)
    finally:
        channel.close()


def test_measure_compute_reports_host_time_from_the_reference_server(tmp_path) -> None:
    channel, _, mt_script = _spawn_mock_server(tmp_path)
    try:
        request = MtRequest((("alte", "satz."),), ((),), ("neue", "wörter."), (), 4, "6")
        scripted = mock_mt_translate(mt_script, request)
        backend = WireMtBackend(channel, timeout_s=20.0, measure_compute=True)
        started = time.monotonic()
        measured = backend.translate(request)
        elapsed = time.monotonic() - started
    finally:
        channel.close()
    assert 0 < measured.compute_cost_s <= elapsed
    assert measured.compute_cost_s != scripted.compute_cost_s
    assert measured.beams == scripted.beams


class _Recorder:
    """An MT backend that records each request and answers with ``translate``."""

    def __init__(self, translate) -> None:
        self.answer = translate
        self.requests: list[MtRequest] = []

    def translate(self, request: MtRequest) -> MtResponse:
        self.requests.append(request)
        return self.answer(request)


def _half_rate(request: MtRequest) -> MtResponse:
    """One target token per two source words of a sentence, then the sentinel.

    Its target sentences are about half as long as their sources, so
    word-count eviction empties a target side before its source side.
    """
    tokens, cuts = [], []
    for i, word in enumerate(request.active_source):
        if i % 2 == 1 or word.endswith("."):
            tokens.append(word.upper())
            cuts.append(i)
        if word.endswith("."):
            tokens.append("[SEP]")
            cuts.append(i)
            break
    beam = BeamHypothesis(tuple(tokens), 0.0, tuple(cuts))
    return MtResponse(BeamSet((beam,) * request.beam_size), 0.1)


def test_word_count_eviction_requests_cross_the_wire_to_the_mock_mt() -> None:
    sent = _Recorder(_half_rate)
    config = MtStreamConfig(
        history_remove="word_count", max_buffer_words=10, history_remove_words=3
    )
    mt = MtStreamController(config, sent, VirtualClock())
    for sentence in range(8):
        words = [f"w{sentence}{i}" for i in range(3 + sentence % 3)]
        for word in words[:-1] + [words[-1] + "."]:
            mt.step([word])
    mt.flush()
    requests = sent.requests
    empty = [r for r in requests if () in r.history_source + r.history_target]
    assert len(empty) >= 5, [r.history_target for r in requests]

    mock = MockMtBackend(MtScript())
    served = _Recorder(mock.translate)
    lines = "".join(encode_mt_request(r) + "\n" for r in requests).encode("utf-8")
    out = io.BytesIO()
    serve(_Unreachable(), served, io.BytesIO(lines), out)
    replies = out.getvalue().decode("utf-8").splitlines()
    assert [json.loads(r)["kind"] for r in replies] == ["mt"] * len(requests)
    assert served.requests == requests
    assert [decode_mt_response(r) for r in replies] == [mock.translate(r) for r in requests]


def test_timeout_is_a_backend_error() -> None:
    channel = WireChannel.spawn(
        [sys.executable, "-c", "import sys, time; sys.stdin.readline(); time.sleep(30)"]
    )
    try:
        backend = WireAsrBackend(channel, timeout_s=0.3)
        with pytest.raises(BackendError, match="timeout"):
            backend.decode(AsrRequest("s", 0.0, 1.0, 5))
        # the channel stays unusable after a timeout
        with pytest.raises(BackendError, match="timeout"):
            backend.decode(AsrRequest("s", 0.0, 1.0, 5))
    finally:
        channel.close()


@pytest.mark.parametrize("timeout_s", [1e7, 1e300], ids=["1e7", "1e300"])
def test_any_finite_timeout_waits_for_the_reply(tmp_path, timeout_s) -> None:
    # A selector refuses a timeout beyond about 2.1e6 s, so the read must
    # wait in slices rather than pass the whole timeout on.
    channel, asr_script, _ = _spawn_mock_server(tmp_path)
    try:
        backend = WireAsrBackend(channel, timeout_s=timeout_s)
        request = AsrRequest("s", 0.0, asr_script.audio_duration_s, 5)
        assert backend.decode(request) == mock_asr_decode(asr_script, request)
    finally:
        channel.close()


# Replies to each request with its ordinal; the first reply comes late.
_LATE_SERVER = """\
import sys, time
n = 0
while sys.stdin.readline():
    n += 1
    if n == 1:
        time.sleep(0.5)
    print('{"reply_to": %d}' % n, flush=True)
"""


def test_channel_never_returns_a_late_reply_after_a_timeout() -> None:
    channel = WireChannel.spawn([sys.executable, "-c", _LATE_SERVER])
    try:
        with pytest.raises(BackendError, match="timeout"):
            channel.roundtrip('{"n":1}', 0.1)
        time.sleep(0.8)  # the late reply to the first request is in the pipe now
        for n in (2, 3):
            with pytest.raises(BackendError, match="timeout"):
                channel.roundtrip(f'{{"n":{n}}}', 5.0)
    finally:
        channel.close()


class OneShot:
    """A channel that answers every request with one line, after a pause if given."""

    def __init__(self, line: str, pause_s: float = 0.0) -> None:
        self.line = line
        self.pause_s = pause_s

    def roundtrip(self, _line: str, _timeout: float) -> str:
        time.sleep(self.pause_s)
        return self.line


def test_words_outside_requested_window_are_rejected() -> None:
    reply = (DATA / "wire_responses.jsonl").read_text(encoding="utf-8").splitlines()[0]
    clock = VirtualClock()
    controller = AsrStreamController(AsrStreamConfig(), WireAsrBackend(OneShot(reply)), clock)
    # The golden response covers [2.5, 3.8]; the controller asks for [0, 3.5].
    clock.advance_audio(3.5)
    with pytest.raises(ProtocolError, match=r"words\[1\].*window"):
        controller.step()
    assert controller.state.committed == []
    assert controller.state.decoded_upto_s == 0.0


def test_replies_that_still_echo_the_request_decode_as_before() -> None:
    asr, mt = _golden_lines("wire_responses.jsonl")
    echoed_asr = canonical_json({**json.loads(asr), "window_offset_s": 2.5})
    echoed_mt = canonical_json({**json.loads(mt), "requested_size": 2})
    assert decode_asr_response(echoed_asr) == decode_asr_response(asr)
    assert decode_mt_response(echoed_mt) == decode_mt_response(mt)


class _Answers:
    """An in-process backend that answers every request with one response."""

    def __init__(self, response) -> None:
        self.response = response

    def decode(self, _request: AsrRequest) -> AsrResponse:
        return self.response

    def translate(self, _request: MtRequest) -> MtResponse:
        return self.response


def _beams(tokens: tuple[str, ...], count: int) -> BeamSet:
    return BeamSet((BeamHypothesis(tokens, 0.0, (0,) * len(tokens)),) * count)


# fault -> (controller call, reply, keys added on the wire, error or None).
# The controller asks for 10 beams over [0, 2] s of audio.
_FAULTS = {
    # The vote bar stays ceil(0.5 * 10) = 5 beams, whatever the reply says.
    "one_beam": ("mt_step", MtResponse(_beams(("A", "B"), 1), 0.1), {"requested_size": 1}, None),
    "too_many_beams": (
        "mt_step", MtResponse(_beams(("A",), 11), 0.1), {}, "^11 beams exceed beam_size 10$"
    ),
    "word_outside_window": (
        "asr_step",
        AsrResponse(AsrHypothesis((TimedWord("late", 2.5, 3.0),)), 0.1),
        {"window_offset_s": 0.0},
        r"^field 'words\[0\]' lies outside the requested window \[0.0, 2.0\]: \[2.5, 3.0\]$",
    ),
    "non_word_voted": (
        "mt_step",
        MtResponse(_beams(("two words",), 10), 0.1),
        {},
        "emitted token: bad word 'two words'",
    ),
    "non_word_flushed": (
        "mt_flush", MtResponse(_beams(("",), 1), 0.1), {}, "emitted token: bad word ''"
    ),
}


def _drive(call: str, backend) -> list:
    """Run one controller call against ``backend``; what it committed."""
    clock = VirtualClock()
    if call == "asr_step":
        asr = AsrStreamController(AsrStreamConfig(), backend, clock)
        clock.advance_audio(2.0)
        asr.step()
        return asr.state.committed
    # With wait-k 3 the step holds two words back and only the flush translates.
    config = MtStreamConfig(beam_size=10, wait_k=1 if call == "mt_step" else 3)
    mt = MtStreamController(config, backend, clock)
    mt.step(["a", "b"])
    if call == "mt_flush":
        mt.flush()
    return mt.history.active_target_committed


@pytest.mark.parametrize("transport", ["in_process", "wire"])
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_reply_faults_are_checked_by_the_controller_on_both_transports(fault, transport) -> None:
    call, response, echoed, error = _FAULTS[fault]
    backend = _Answers(response)
    if transport == "wire":
        if call == "asr_step":
            encode, wire = encode_asr_response, WireAsrBackend
        else:
            encode, wire = encode_mt_response, WireMtBackend
        backend = wire(OneShot(canonical_json({**json.loads(encode(response)), **echoed})))
    if error is None:
        assert _drive(call, backend) == []
    else:
        with pytest.raises(ProtocolError, match=error):
            _drive(call, backend)


def test_server_exit_is_a_backend_error() -> None:
    channel = WireChannel.spawn([sys.executable, "-c", "pass"])
    try:
        backend = WireAsrBackend(channel, timeout_s=5.0)
        with pytest.raises(BackendError):
            backend.decode(AsrRequest("s", 0.0, 1.0, 5))
    finally:
        channel.close()


def test_server_answers_bad_lines_with_errors_and_keeps_serving(tmp_path) -> None:
    command, asr_script, _ = _mock_script(tmp_path)
    valid = AsrRequest("s", 0.0, asr_script.audio_duration_s, 5)
    beyond = AsrRequest("s", 0.0, asr_script.audio_duration_s + 10.0, 5)
    lines = [b"garbage", encode_asr_request(valid).encode(), encode_asr_request(beyond).encode()]
    done = subprocess.run(
        command, input=b"\n".join(lines) + b"\n", capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    replies = done.stdout.decode("utf-8").splitlines()
    assert [json.loads(r)["kind"] for r in replies] == ["error", "asr", "error"]
    with pytest.raises(BackendError, match="server error: invalid JSON.*'garbage'"):
        decode_asr_response(replies[0])
    assert decode_asr_response(replies[1]) == mock_asr_decode(asr_script, valid)
    with pytest.raises(BackendError, match="server error: window .* outside audio extent"):
        decode_asr_response(replies[2])


def test_server_error_reply_leaves_the_channel_usable(tmp_path) -> None:
    channel, asr_script, _ = _spawn_mock_server(tmp_path)
    try:
        assert json.loads(channel.roundtrip("garbage", 20.0))["kind"] == "error"
        asr = WireAsrBackend(channel, timeout_s=20.0)
        with pytest.raises(BackendError, match="outside audio extent"):
            asr.decode(AsrRequest("s", 0.0, asr_script.audio_duration_s + 10.0, 5))
        request = AsrRequest("s", 0.0, asr_script.audio_duration_s, 5)
        assert asr.decode(request) == mock_asr_decode(asr_script, request)
    finally:
        channel.close()


def test_server_answers_a_non_utf8_line_with_an_error() -> None:
    out = io.BytesIO()
    serve(None, None, io.BytesIO(b"\xff\n"), out)
    reply = json.loads(out.getvalue())
    assert (reply["v"], reply["kind"]) == (3, "error")
    assert reply["message"].startswith("request is not UTF-8")


class _Unreachable:
    """A backend that a refused request must never reach."""

    def decode(self, request):
        raise AssertionError(f"reached the ASR backend with {request}")

    def translate(self, request):
        raise AssertionError(f"reached the MT backend with {request}")


@pytest.mark.parametrize("kind", [0, 1], ids=["asr", "mt"])
def test_server_refuses_a_huge_beam_size_without_building_a_beam(kind) -> None:
    line = _golden_lines("wire_requests.jsonl")[kind]
    request = json.loads(line)
    request["beam_size"] = 1_000_000_000
    out = io.BytesIO()
    stdin = io.BytesIO(json.dumps(request).encode() + b"\n")
    serve(_Unreachable(), _Unreachable(), stdin, out)
    reply = json.loads(out.getvalue())
    assert (reply["v"], reply["kind"]) == (3, "error")
    assert reply["message"] == "beam_size must be <= 64, got 1000000000"


@pytest.mark.parametrize(
    "kind, backend, method, decode_request, decode_reply",
    [
        (0, WireAsrBackend, "decode", decode_asr_request, decode_asr_response),
        (1, WireMtBackend, "translate", decode_mt_request, decode_mt_response),
    ],
    ids=["asr", "mt"],
)
def test_measure_compute_replaces_the_scripted_cost_with_host_time(
    kind, backend, method, decode_request, decode_reply
) -> None:
    reply = _golden_lines("wire_responses.jsonl")[kind]
    request = decode_request(_golden_lines("wire_requests.jsonl")[kind])
    channel = OneShot(reply, pause_s=0.02)
    scripted = decode_reply(reply)
    assert getattr(backend(channel), method)(request) == scripted
    assert getattr(backend(channel, measure_compute=False), method)(request) == scripted
    measured = getattr(backend(channel, measure_compute=True), method)(request)
    assert measured.compute_cost_s >= 0.02
    assert measured.compute_cost_s != scripted.compute_cost_s
    assert replace(measured, compute_cost_s=scripted.compute_cost_s) == scripted


_WIRE_DECODERS = {
    ("->", "asr"): (decode_asr_request, encode_asr_request),
    ("<-", "asr"): (decode_asr_response, encode_asr_response),
    ("->", "mt"): (decode_mt_request, encode_mt_request),
    ("<-", "mt"): (decode_mt_response, encode_mt_response),
}


def _readme_wire_examples() -> list[tuple[str, str]]:
    """Each ``->``/``<-`` line of README "Wire protocol", continuations joined."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Wire protocol", 1)[1].split("\n## ", 1)[0]
    examples: list[list[str]] = []
    for line in section.splitlines():
        if line.startswith(("-> ", "<- ")):
            examples.append([line[:2], line[3:]])
        elif examples and line.startswith("    "):
            examples[-1][1] += line.strip()
    return [(direction, text) for direction, text in examples]


def test_readme_wire_examples_decode_and_reencode_canonically() -> None:
    examples = _readme_wire_examples()
    assert sorted((d, json.loads(t)["kind"]) for d, t in examples) == sorted(_WIRE_DECODERS)
    for direction, text in examples:
        decode, encode = _WIRE_DECODERS[direction, json.loads(text)["kind"]]
        assert encode(decode(text)) == canonical_json(json.loads(text)), text
