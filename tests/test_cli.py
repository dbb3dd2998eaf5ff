from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import make_goldens
from helpers import DEEP_JSON
from simulstream import cli, wire
from simulstream.backends import AsrResponse, MockMtBackend, load_mock_script
from simulstream.cli import main
from simulstream.core import (
    SENTINEL,
    AsrHypothesis,
    EmissionRecord,
    canonical_json,
    record_fields,
)
from simulstream.datagen import GenConfig
from simulstream.metrics import (
    ReferenceSegment,
    read_emission_log,
    write_emission_log,
    write_reference_segments,
)

DATA = Path(__file__).parent / "data"


def _stage_fixture(tmp_path) -> tuple[Path, Path]:
    config = tmp_path / "config_adapted.json"
    shutil.copy(DATA / "config_adapted.json", config)
    shutil.copy(DATA / "mock_script_60s.json", tmp_path / "mock_script_60s.json")
    return DATA / "trace_60s.jsonl", config


def test_simulate_reproduces_the_golden_log(tmp_path) -> None:
    trace, config = _stage_fixture(tmp_path)
    out = tmp_path / "run.jsonl"
    assert main(["simulate", str(trace), str(config), str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_log_60s.jsonl").read_bytes()
    summary = json.loads((tmp_path / "run.jsonl.summary.json").read_text())
    golden_summary = json.loads((DATA / "golden_summary_60s.json").read_text())
    assert summary == golden_summary


def test_simulate_is_idempotent(tmp_path) -> None:
    trace, config = _stage_fixture(tmp_path)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(["simulate", str(trace), str(config), str(first)]) == 0
    assert main(["simulate", str(trace), str(config), str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_empty_trace(tmp_path) -> None:
    trace, config = _stage_fixture(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "run.jsonl"
    assert main(["simulate", str(empty), str(config), str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""
    summary = json.loads((tmp_path / "run.jsonl.summary.json").read_text())
    assert summary["words_committed"] == 0
    assert summary["tokens_emitted"] == 0
    assert summary["asr_calls"] == 0


def test_simulate_through_wire_server_matches_mock(tmp_path) -> None:
    trace, config_path = _stage_fixture(tmp_path)
    config = json.loads(config_path.read_text())
    config["backend"] = {
        "kind": "wire",
        "command": [
            sys.executable,
            "-m",
            "simulstream.wire_server",
            str(tmp_path / "mock_script_60s.json"),
        ],
        "timeout_s": 30,
    }
    wire_config = tmp_path / "config_wire.json"
    wire_config.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "wire.jsonl"
    assert main(["simulate", str(trace), str(wire_config), str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_log_60s.jsonl").read_bytes()


def test_simulate_keeps_its_log_when_the_server_ignores_sigterm(tmp_path, monkeypatch) -> None:
    # The server answers until its input closes, then outlives the closing
    # channel's SIGTERM: the channel kills it, and the run's log is written.
    # The grace period is cut short, so the kill comes without the full wait.
    monkeypatch.setattr(wire, "TERM_GRACE_S", 0.1)
    trace, config_path = _stage_fixture(tmp_path)
    pid_file = tmp_path / "server.pid"
    server = (
        "import os, signal, sys, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "open(sys.argv[2], 'w').write(str(os.getpid())); "
        "from simulstream.wire import main; main(sys.argv[1:2]); time.sleep(60)"
    )
    config = json.loads(config_path.read_text())
    config["backend"] = {
        "kind": "wire",
        "command": [
            sys.executable, "-c", server, str(tmp_path / "mock_script_60s.json"), str(pid_file)
        ],
        "timeout_s": 30,
    }
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "wire.jsonl"
    assert main(["simulate", str(trace), str(config_path), str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden_log_60s.jsonl").read_bytes()
    assert (tmp_path / "wire.jsonl.summary.json").exists()
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_simulate_missing_trace_exits_1(tmp_path, capsys) -> None:
    _, config = _stage_fixture(tmp_path)
    code = main(["simulate", str(tmp_path / "nope.jsonl"), str(config), str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("io-error", "invalid-argument")


def test_simulate_dead_wire_backend_exits_2(tmp_path, capsys) -> None:
    trace, config_path = _stage_fixture(tmp_path)
    config = json.loads(config_path.read_text())
    config["backend"] = {
        "kind": "wire",
        "command": [sys.executable, "-c", "pass"],
        "timeout_s": 2,
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    code = main(["simulate", str(trace), str(bad), str(tmp_path / "o.jsonl")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "backend-error"


@pytest.mark.parametrize(
    "target, text, message",
    [
        ("config", DEEP_JSON, r"config_adapted\.json: invalid JSON: .*nested too deeply"),
        ("trace", DEEP_JSON, r"trace\.jsonl:1: invalid JSON: .*nested too deeply"),
        ("trace", '{"kind": "audio", "dur": NaN}', r"trace\.jsonl:1: invalid JSON: .*NaN"),
        ("trace", '{"kind": "audio", "dur": "1.0"}', r"trace\.jsonl:1: field 'dur' must be a number, got '1\.0'"),
        ("script", DEEP_JSON, r"mock_script_60s\.json: invalid JSON: .*nested too deeply"),
        ("script", '{"seed": "abc"}', r"mock_script_60s\.json: field 'seed' must be an integer, got 'abc'"),
    ],
    ids=[
        "config_nested",
        "trace_nested",
        "trace_nan_dur",
        "trace_string_dur",
        "script_nested",
        "script_string_seed",
    ],
)
def test_simulate_unreadable_input_exits_1(tmp_path, capsys, target, text, message) -> None:
    trace, config = _stage_fixture(tmp_path)
    paths = {
        "config": config,
        "trace": tmp_path / "trace.jsonl",
        "script": tmp_path / "mock_script_60s.json",
    }
    shutil.copy(trace, paths["trace"])
    paths[target].write_text(text + "\n", encoding="utf-8")
    code = main(["simulate", str(paths["trace"]), str(config), str(tmp_path / "o.jsonl")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert re.search(message, err["message"])


@pytest.mark.parametrize(
    "value, message",
    [("two words", "bad word 'two words'"), (SENTINEL, "reserved sentinel")],
    ids=["two_words", "sentinel"],
)
def test_simulate_bad_word_map_value_exits_1_naming_the_script(
    tmp_path, capsys, value, message
) -> None:
    trace, config = _stage_fixture(tmp_path)
    script_path = tmp_path / "mock_script_60s.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    script["mt"]["word_map"]["alpha"] = value
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    code = main(["simulate", str(trace), str(config), str(out)])
    assert code == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert err["message"].startswith(f"{script_path}: field 'mt' invalid: word_map['alpha']: ")
    assert message in err["message"]


def test_simulate_refuses_an_asr_cost_that_would_overflow_naming_the_script(
    tmp_path, capsys
) -> None:
    # No window reaches past the audio, so the script's own rates bound
    # every reply's cost; one that cannot stay finite is the script's fault.
    trace, config = _stage_fixture(tmp_path)
    script_path = tmp_path / "mock_script_60s.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    script["asr"]["cost_per_audio_s"] = 1e308
    script_path.write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert main(["simulate", str(trace), str(config), str(out)]) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert err["message"].startswith(
        f"{script_path}: field 'asr' invalid: cost_base_s + cost_per_audio_s * "
        "audio_duration_s must be finite, got 0.1 + 1e+308 * "
    )


_MT_COST_OVERFLOW = (
    "cost_base_s + cost_per_word_s * 3 active words must be finite, got 0.1 + 1e+308 * 3"
)


def _simulate_with_an_overflowing_mt_cost(tmp_path, wire: bool) -> tuple[int, Path]:
    trace, config_path = _stage_fixture(tmp_path)
    script_path = tmp_path / "mock_script_60s.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    script["mt"]["cost_per_word_s"] = 1e308
    script_path.write_text(json.dumps(script), encoding="utf-8")
    if wire:
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["backend"] = {
            "kind": "wire",
            "command": [sys.executable, "-m", "simulstream.wire_server", str(script_path)],
            "timeout_s": 30,
        }
        config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    return main(["simulate", str(trace), str(config_path), str(out)]), out


def test_simulate_refuses_an_mt_cost_that_would_overflow(tmp_path, capsys) -> None:
    # A request's length is not known at load, so the mock fails the first
    # request its rate cannot price, naming the rate and the word count.
    code, out = _simulate_with_an_overflowing_mt_cost(tmp_path, wire=False)
    assert code == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "backend-error", "message": _MT_COST_OVERFLOW}


def test_simulate_refuses_an_mt_cost_that_would_overflow_over_the_wire(
    tmp_path, capsys
) -> None:
    # The server fails the same request with the same message, so both
    # transports exit alike.
    code, out = _simulate_with_an_overflowing_mt_cost(tmp_path, wire=True)
    assert code == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "backend-error", "message": f"server error: {_MT_COST_OVERFLOW}"}


@pytest.mark.parametrize("where", ["asr_word", "asr_word_truncating_mt", "wire_config"])
def test_simulate_refuses_an_unpaired_surrogate_naming_the_file(tmp_path, capsys, where) -> None:
    trace, config_path = _stage_fixture(tmp_path)
    script_path = tmp_path / "mock_script_60s.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    config = json.loads(config_path.read_text(encoding="utf-8"))
    if where == "wire_config":
        command = [sys.executable, "-m", "simulstream.wire_server", str(script_path)]
        config["backend"] = {"kind": "wire", "command": command, "timeout_s": 30}
        config["overrides"] = {"mt": {"history_remove": "\ud800"}}
        named = config_path
    else:
        script["asr"]["words"][0]["text"] = "hello\ud800."
        if where == "asr_word_truncating_mt":
            script["mt"]["tail_truncate_max"] = 1
        named = script_path
    # ``json.dumps`` escapes the lone surrogate as \ud800, which is ASCII.
    script_path.write_text(json.dumps(script), encoding="utf-8")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    code = main(["simulate", str(trace), str(config_path), str(out)])
    assert code == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert err["message"].startswith(f"{named}: invalid JSON: unpaired surrogate '\\ud800'")


class _CostlyAsr:
    """An in-process ASR backend that hears nothing at a fixed reported cost."""

    def __init__(self, cost_s: float) -> None:
        self.cost_s = cost_s

    def decode(self, request):
        return AsrResponse(AsrHypothesis(()), self.cost_s)


@pytest.mark.parametrize(
    "cost_s, dur, code, error, message",
    [
        (1e308, 1.0, 2, "protocol-error", "compute cost must be >= 0 and keep the clock finite"),
        (
            0.0,
            1e308,
            1,
            "invalid-argument",
            "{trace}:2: field 'dur' must be >= 0 and keep the clock finite, "
            "got 1e+308 + 1e+308",
        ),
    ],
    ids=["backend_cost", "trace_durations"],
)
def test_simulate_refuses_a_clock_that_would_overflow(
    tmp_path, capsys, monkeypatch, cost_s, dur, code, error, message
) -> None:
    _, config_path = _stage_fixture(tmp_path)
    scripts = load_mock_script(tmp_path / "mock_script_60s.json")
    monkeypatch.setattr(
        cli, "_build_backends", lambda *_: (_CostlyAsr(cost_s), MockMtBackend(scripts.mt), None)
    )
    trace = tmp_path / "trace.jsonl"
    trace.write_text((json.dumps({"kind": "audio", "dur": dur}) + "\n") * 3, encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert main(["simulate", str(trace), str(config_path), str(out)]) == code
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert message.format(trace=trace) in err["message"]


def test_simulate_refuses_a_negative_trace_duration_naming_the_line(tmp_path, capsys) -> None:
    _, config_path = _stage_fixture(tmp_path)
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        '{"kind": "audio", "dur": 1.0}\n{"kind": "audio", "dur": -1.0}\n', encoding="utf-8"
    )
    out = tmp_path / "o.jsonl"
    assert main(["simulate", str(trace), str(config_path), str(out)]) == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err) == {
        "error": "invalid-argument",
        "message": f"{trace}:2: field 'dur' must be >= 0 and keep the clock finite, "
        "got 1.0 + -1.0",
    }


# Stand-in servers that read one request and answer it with a bad line.
_V1_REPLY_SERVER = (
    "import json, sys; sys.stdin.readline(); print(json.dumps({'v': 1, 'kind': 'asr', "
    "'window_offset_s': 0.0, 'words': [], 'compute_cost_s': 0.1}), flush=True); "
    "sys.stdin.readline()"
)
_DEEP_REPLY_SERVER = (
    "import sys; sys.stdin.readline(); "
    "print('[' * 200000 + ']' * 200000, flush=True); sys.stdin.readline()"
)
_SURROGATE_REPLY_SERVER = (
    "import sys; sys.stdin.readline(); print('{\"compute_cost_s\":0.1,\"kind\":\"asr\",\"v\":3,'"
    " '\"words\":[{\"end_s\":0.3,\"start_s\":0.0,\"text\":\"a\\\\ud800\"}]}', flush=True); "
    "sys.stdin.readline()"
)
_NOT_UTF8_REPLY_SERVER = (
    "import sys; sys.stdin.readline(); sys.stdout.buffer.write(b'\\xff\\n'); "
    "sys.stdout.flush(); sys.stdin.readline()"
)


@pytest.mark.parametrize(
    "server, message",
    [
        (_V1_REPLY_SERVER, "field 'v' must be 4, got 1"),
        (_DEEP_REPLY_SERVER, "nested too deeply"),
        (_NOT_UTF8_REPLY_SERVER, "response is not UTF-8"),
        (_SURROGATE_REPLY_SERVER, "unpaired surrogate"),
    ],
    ids=["v1_reply", "nested_reply", "not_utf8_reply", "surrogate_reply"],
)
def test_simulate_bad_wire_reply_exits_2(tmp_path, capsys, server, message) -> None:
    trace, config_path = _stage_fixture(tmp_path)
    config = json.loads(config_path.read_text())
    config["backend"] = {"kind": "wire", "command": [sys.executable, "-c", server], "timeout_s": 10}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["simulate", str(trace), str(config_path), str(tmp_path / "o.jsonl")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "protocol-error"
    assert message in err["message"]


def test_eval_reports_quality_and_latency(tmp_path, capsys) -> None:
    out = tmp_path / "report.json"
    code = main(
        [
            "eval",
            str(DATA / "golden_log_60s.jsonl"),
            str(DATA / "refs_60s.jsonl"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(out.read_text())
    assert printed == stored
    assert printed["bleu"] == pytest.approx(100.0)
    assert printed["nca"]["mean_s"] <= printed["ca"]["mean_s"]


def _with_segment_ordinals(records) -> str:
    """Records as JSONL in the older log layout, whose every line also held
    ``segment_ordinal``: the number of sentinels before the record."""
    lines, ordinal = [], 0
    for record in records:
        lines.append(canonical_json({**record_fields(record), "segment_ordinal": ordinal}) + "\n")
        ordinal += record.token == SENTINEL
    return "".join(lines)


def test_eval_scores_a_log_in_the_older_layout_byte_for_byte_the_same(tmp_path, capsys) -> None:
    golden = read_emission_log(DATA / "golden_log_60s.jsonl")
    refs = str(DATA / "refs_60s.jsonl")

    def eval_bytes(path: Path) -> bytes:
        out = path.with_suffix(".eval.json")
        assert main(["eval", str(path), refs, "--out", str(out)]) == 0
        return out.read_bytes()

    for name, records in (("golden", golden), ("edited", make_goldens._edited_log(golden))):
        new, old = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_old.jsonl"
        write_emission_log(records, new)
        old.write_text(_with_segment_ordinals(records), encoding="utf-8")
        assert read_emission_log(old) == records
        assert eval_bytes(old) == eval_bytes(new)
    assert eval_bytes(tmp_path / "edited_old.jsonl") == (DATA / "golden_eval_60s.json").read_bytes()


def test_eval_instant_emission_gives_perfect_bleu_and_nonpositive_lag(tmp_path, capsys) -> None:
    refs = [
        ReferenceSegment(("ja", "genau"), 0.0, 2.0),
        ReferenceSegment(("stimmt",), 2.0, 4.0),
    ]
    log = [
        EmissionRecord("ja", 0.0, 0.0),
        EmissionRecord("genau", 0.0, 0.0),
        EmissionRecord(SENTINEL, 0.0, 0.0),
        EmissionRecord("stimmt", 2.0, 2.0),
    ]
    log_path = tmp_path / "log.jsonl"
    refs_path = tmp_path / "refs.jsonl"
    write_emission_log(log, log_path)
    write_reference_segments(refs, refs_path)
    assert main(["eval", str(log_path), str(refs_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == pytest.approx(100.0)
    assert report["nca"]["mean_s"] <= 0.0


def test_eval_empty_log_scores_zero_and_full_lag(tmp_path, capsys) -> None:
    refs = [
        ReferenceSegment(("eins",), 0.0, 3.0),
        ReferenceSegment(("zwei",), 3.0, 5.0),
    ]
    log_path = tmp_path / "log.jsonl"
    refs_path = tmp_path / "refs.jsonl"
    log_path.write_text("", encoding="utf-8")
    write_reference_segments(refs, refs_path)
    assert main(["eval", str(log_path), str(refs_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == 0.0
    assert report["empty_segments"] == 2
    assert report["nca"]["per_segment"] == report["ca"]["per_segment"] == [3.0, 2.0]


def test_eval_misaligned_inputs_exit_1(tmp_path, capsys) -> None:
    refs_path = tmp_path / "refs.jsonl"
    write_reference_segments([], refs_path)
    log_path = tmp_path / "log.jsonl"
    write_emission_log([EmissionRecord("x", 0.0, 0.0)], log_path)
    assert main(["eval", str(log_path), str(refs_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-argument"


@pytest.mark.parametrize(
    "command, log_lines",
    [("eval", []), ("eval", ["x"]), ("bench", []), ("bench", ["x"])],
    ids=["eval_empty_log", "eval_log", "bench_empty_log", "bench_log"],
)
def test_refs_file_without_segments_exits_1_naming_it(tmp_path, capsys, command, log_lines) -> None:
    refs_path = tmp_path / "refs.jsonl"
    refs_path.write_text("\n", encoding="utf-8")  # a blank line holds no segment
    log_path = tmp_path / "log.jsonl"
    write_emission_log([EmissionRecord(t, 0.0, 0.0) for t in log_lines], log_path)
    args = [str(log_path), str(refs_path)] if command == "eval" else [str(log_path), "--refs", str(refs_path)]
    assert main([command, *args]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert err["message"] == f"{refs_path}: no reference segment"


_GOOD_RECORD = '{"ca_time_s":1.5,"nca_time_s":1.0,"token":"ja"}'
_GOOD_SEGMENT = '{"source_end_s":2.0,"source_start_s":0.0,"tokens":["ja"]}'


@pytest.mark.parametrize(
    "bad_file, bad_line",
    [
        ("log", '{"ca_time_s":2.0,"nca_time_s":2.0,"token":5}'),
        ("log", '{"ca_time_s":"2.0","nca_time_s":"1.0","token":"x"}'),
        ("log", '{"ca_time_s":2.0,"nca_time_s":NaN,"token":"x"}'),
        ("log", '{"ca_time_s":Infinity,"nca_time_s":2.0,"token":"x"}'),
        ("log", '{"ca_time_s":1e999,"nca_time_s":1e999,"token":"x"}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":2.0,"tokens":"hi there"}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":2.0,"tokens":["hi",1]}'),
        ("refs", '{"source_end_s":"4.0","source_start_s":"2.0","tokens":["hi"]}'),
        ("refs", '{"source_end_s":NaN,"source_start_s":2.0,"tokens":["hi"]}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":-Infinity,"tokens":["hi"]}'),
        # Scoring strips the log's sentinels, so a reference [SEP] could never match.
        ("refs", '{"source_end_s":4.0,"source_start_s":2.0,"tokens":["ja","[SEP]"]}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":2.0,"tokens":["hi",""]}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":2.0,"tokens":["hi there"]}'),
        ("log", DEEP_JSON),
        ("refs", DEEP_JSON),
        # The good record's NCA time is 1.0: a log's NCA times never fall.
        ("log", '{"ca_time_s":1.5,"nca_time_s":0.5,"token":"x"}'),
        ("log", r'{"ca_time_s":2.0,"nca_time_s":2.0,"token":"x\ud800"}'),
        ("refs", r'{"source_end_s":4.0,"source_start_s":2.0,"tokens":["\udc00"]}'),
        # The first faulty line is named: the order breaks before the bad record.
        (
            "log",
            '{"ca_time_s":1.5,"nca_time_s":0.5,"token":"x"}\n'
            '{"ca_time_s":1.0,"nca_time_s":2.0,"token":"x"}',
        ),
        (
            "refs",
            _GOOD_SEGMENT + '\n{"source_end_s":4.0,"source_start_s":5.0,"tokens":["ja"]}',
        ),
    ],
    ids=[
        "token_not_string",
        "string_times",
        "nan_time",
        "infinity_time",
        "overflowing_times",
        "tokens_string",
        "tokens_not_strings",
        "string_bounds",
        "nan_bound",
        "infinity_bound",
        "sentinel_token",
        "empty_token",
        "spaced_token",
        "log_nested_too_deeply",
        "refs_nested_too_deeply",
        "nca_time_falls",
        "log_unpaired_surrogate",
        "refs_unpaired_surrogate",
        "nca_time_falls_before_a_bad_record",
        "refs_out_of_order_before_a_bad_record",
    ],
)
def test_eval_bad_record_exits_1_naming_the_line(tmp_path, capsys, bad_file, bad_line) -> None:
    paths = {"log": tmp_path / "log.jsonl", "refs": tmp_path / "refs.jsonl"}
    paths["log"].write_text(_GOOD_RECORD + "\n", encoding="utf-8")
    paths["refs"].write_text(_GOOD_SEGMENT + "\n", encoding="utf-8")
    with paths[bad_file].open("a", encoding="utf-8") as f:
        f.write(bad_line + "\n")
    assert main(["eval", str(paths["log"]), str(paths["refs"])]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert f"{paths[bad_file]}:2:" in err["message"]


def test_bench_exits_1_naming_the_line_where_a_log_falls(tmp_path, capsys) -> None:
    log, refs = tmp_path / "log.jsonl", tmp_path / "refs.jsonl"
    # A blank line holds no record, and the line count still counts it.
    log.write_text(
        _GOOD_RECORD + "\n\n" + _GOOD_RECORD.replace('"nca_time_s":1.0', '"nca_time_s":0.25') + "\n",
        encoding="utf-8",
    )
    refs.write_text(_GOOD_SEGMENT + "\n", encoding="utf-8")
    assert main(["bench", str(log), "--refs", str(refs)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert err["message"] == (
        f"{log}:3: emission log not monotone: 'ja' at 1.0 precedes 'ja' at 0.25"
    )


@pytest.mark.parametrize("command", ["eval", "bench"])
@pytest.mark.parametrize("span", [(3.0, 5.0), (0.0, 1.0)], ids=["overlapping", "out_of_order"])
def test_refs_file_with_unordered_segments_exits_1_naming_the_line(
    tmp_path, capsys, command, span
) -> None:
    log, refs = tmp_path / "log.jsonl", tmp_path / "refs.jsonl"
    log.write_text(_GOOD_RECORD + "\n", encoding="utf-8")
    start, end = span
    # A blank line holds no segment, and the line count still counts it.
    refs.write_text(
        '{"source_end_s":4.0,"source_start_s":2.0,"tokens":["ja"]}\n\n'
        f'{{"source_end_s":{end},"source_start_s":{start},"tokens":["ja"]}}\n',
        encoding="utf-8",
    )
    args = [str(log), str(refs)] if command == "eval" else [str(log), "--refs", str(refs)]
    assert main([command, *args]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert err["message"] == (
        f"{refs}:3: reference segments overlap or are out of order at [2.0, 4.0] / [{start}, {end}]"
    )


def _segment(start: float, end: float, tokens) -> dict:
    return {"source_end_s": end, "source_start_s": start, "tokens": list(tokens)}


def _record(token: str, nca: float, ca: float) -> dict:
    return {"ca_time_s": ca, "nca_time_s": nca, "token": token}


@pytest.mark.parametrize("command", ["eval", "bench"])
@pytest.mark.parametrize(
    "refs, log, message",
    [
        (
            [_segment(0.0, 1.0, ["a"]), _segment(1.0, 2.0, ["b"])],
            [_record("a", 1.0, 1.6e308), _record("b", 2.0, 1.6e308)],
            "CA LAAL mean over segments 1-2 is not finite: its sum overflows",
        ),
        (
            [_segment(0.0, 1.7e308, ["a", "b"])],
            [_record("a", 1.0, 1.6e308), _record("b", 1.0, 1.65e308)],
            "CA LAAL of segment 1 [0.0, 1.7e+308] is not finite",
        ),
        (
            [_segment(0.0, 1.7e308, [f"w{i}" for i in range(100)])],
            [_record(f"w{i}", 1.0, 1.6e308 if i < 50 else 1.65e308) for i in range(100)],
            "NCA LAAL of segment 1 [0.0, 1.7e+308] is not finite",
        ),
        (
            [_segment(-1.7e308, 1e308, ["a"])],
            [_record("a", 1.0, 1.0)],
            "NCA LAAL of segment 1 [-1.7e+308, 1e+308] is not finite",
        ),
        (
            [_segment(1e308, 1.7e308, ["a"])],
            [_record("a", -1.7e308, 1.0)],
            "NCA LAAL of segment 1 [1e+308, 1.7e+308] is not finite",
        ),
        (
            [_segment(-1.7e308, 1e308, ["a"])],
            [],
            "NCA LAAL of segment 1 [-1.7e+308, 1e+308] is not finite",
        ),
        (
            # CA fails first in segment 1, NCA only in segment 2: every NCA
            # lag is checked before any CA lag.
            [_segment(-1.7e308, 0.0, ["a", "b"]), _segment(0.0, 1.7e308, ["c", "d"])],
            [
                _record("a", -1.7e308, -0.1e308),
                _record("b", -1.7e308, -0.05e308),
                _record("c", 1.6e308, 1.6e308),
                _record("d", 1.65e308, 1.65e308),
            ],
            "NCA LAAL of segment 2 [0.0, 1.7e+308] is not finite",
        ),
    ],
    ids=[
        "mean_overflows", "segment_sum_overflows", "term_overflows", "nan", "minus_infinity",
        "empty_segment", "nca_before_ca",
    ],
)
def test_scoring_refuses_a_lag_that_is_not_finite(
    tmp_path, capsys, command, refs, log, message
) -> None:
    # Each report would hold NaN or an infinity, which is not JSON, or
    # could not be summed at all.
    log_path, refs_path = tmp_path / "log.jsonl", tmp_path / "refs.jsonl"
    log_path.write_text("".join(json.dumps(r) + "\n" for r in log), encoding="utf-8")
    refs_path.write_text("".join(json.dumps(r) + "\n" for r in refs), encoding="utf-8")
    args = [str(log_path), str(refs_path)] if command == "eval" else [str(log_path), "--refs", str(refs_path)]
    assert main([command, *args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "invalid-argument", "message": message}


# A child interpreter runs one entry point, then writes the names of the
# modules it loaded to the file named by its last argument.
_LOADED_AFTER = """\
import json, sys
out = sys.argv.pop()
{code}
with open(out, "w") as f:
    json.dump(sorted(sys.modules), f)
"""
_RUN_CLI = "from simulstream.cli import main\nassert main(sys.argv[1:]) == 0"
_CONTROLLERS = ("pipeline", "asr_stream", "mt_stream", "policy")
# ``fractions`` (with ``decimal``) costs milliseconds of every cold start.
_CLIENT_ONLY = ("subprocess", "selectors", "fractions")


def _package(*names: str) -> set[str]:
    return {f"simulstream.{name}" for name in names}


@pytest.mark.parametrize("entry", ["import", "simulate", "eval", "wire_server"])
def test_each_entry_point_loads_only_the_layers_it_runs(tmp_path, entry) -> None:
    trace, config = _stage_fixture(tmp_path)
    # entry: (code, arguments, modules it loads, modules it must not load)
    code, args, loads, loads_none_of = {
        "import": (
            "import simulstream",
            [],
            _package("core"),
            _package(
                *_CONTROLLERS, "backends", "textnorm", "metrics", "datagen", "wire", "wire_server",
                "cli",
            ),
        ),
        "simulate": (
            _RUN_CLI,
            ["simulate", trace, config, tmp_path / "run.jsonl"],
            _package(*_CONTROLLERS, "backends"),
            {*_package("metrics", "datagen", "wire"), *_CLIENT_ONLY},
        ),
        "eval": (
            _RUN_CLI,
            ["eval", DATA / "golden_log_60s.jsonl", DATA / "refs_60s.jsonl"],
            _package("metrics"),
            _package(*_CONTROLLERS, "backends", "wire", "datagen"),
        ),
        "wire_server": (
            "import simulstream.wire_server",
            [],
            _package("wire", "backends"),
            {*_package(*_CONTROLLERS, "metrics", "datagen", "cli"), *_CLIENT_ONLY},
        ),
    }[entry]
    loaded_file = tmp_path / "loaded.json"
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER.format(code=code), *map(str, args), str(loaded_file)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(loaded_file.read_text()))
    assert loads <= loaded
    # No entry point loads ``hashlib``: OpenSSL costs megabytes of resident
    # memory and milliseconds of set-up, and seeding ``random.Random`` from
    # a string needs none of it.
    assert not loaded & {*loads_none_of, "hashlib"}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"backend": {"kind": "wire", "command": ["x"], "timeout_s": "soon"}}, "backend.timeout_s"),
        ({"backend": {"kind": "wire", "command": ["x"], "timeout_s": 0}}, "backend.timeout_s"),
        ({"backend": {"kind": "wire", "command": ["x"], "timeout_s": True}}, "backend.timeout_s"),
        # Too large for a float: it would overflow the read deadline.
        ({"backend": {"kind": "wire", "command": ["x"], "timeout_s": 10**400}}, "backend.timeout_s"),
        ({"backend": {"kind": "wire", "command": []}}, "backend.command"),
        ({"backend": {"kind": "wire", "command": ["x"], "measure_compute": "false"}},
         "backend.measure_compute"),
        ({"backend": {"kind": "wire", "command": ["x"], "measure_compute": 0}},
         "backend.measure_compute"),
        ({"backend": {"kind": "wire", "command": ["x"], "timeout": 5}}, "backend.timeout"),
        ({"backend": {"kind": "mock", "command": ["x"]}}, "backend.command"),
        ({"backend": {"kind": "grpc"}}, "backend.kind"),
        ({"overrides": [1]}, "overrides"),
        ({"mock_script": 5}, "mock_script"),
        ({"mock_script": ""}, "mock_script"),
    ],
    ids=[
        "timeout_string",
        "timeout_zero",
        "timeout_bool",
        "timeout_huge_int",
        "command_empty",
        "measure_compute_string",
        "measure_compute_int",
        "wire_key_timeout",
        "mock_key_command",
        "kind_unknown",
        "overrides_list",
        "mock_script_number",
        "mock_script_empty",
    ],
)
def test_simulate_bad_config_value_exits_1(tmp_path, capsys, change, field) -> None:
    trace, config_path = _stage_fixture(tmp_path)
    config = json.loads(config_path.read_text())
    config.update(change)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["simulate", str(trace), str(config_path), str(tmp_path / "o.jsonl")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert f"field '{field}' must be" in err["message"]


def _spawn_nothing(command):
    raise AssertionError(f"spawned a server: {command}")


@pytest.mark.parametrize(
    "backend, message",
    [
        (
            {"kind": "wire", "command": ["x"], "measure_compute": True},
            "field 'backend.measure_compute' must be left out: a 'wire' backend takes only "
            "kind, command, timeout_s, got True",
        ),
        (
            {"kind": "mock", "timeout_s": 5},
            "field 'backend.timeout_s' must be left out: a 'mock' backend takes only kind, got 5",
        ),
        (
            {"kind": "mock", "k" * 100_000: 1},
            f"field 'backend.{'k' * 192}...' must be left out: a 'mock' backend takes only kind, "
            "got 1",
        ),
    ],
    ids=["wire_measure_compute", "mock_timeout_s", "huge_key"],
)
def test_simulate_refuses_a_backend_key_its_kind_does_not_read(
    tmp_path, capsys, monkeypatch, backend, message
) -> None:
    # Refused before any server starts: a run on silently ignored settings
    # would be charged costs the config did not ask for.
    monkeypatch.setattr(wire.WireChannel, "spawn", _spawn_nothing)
    trace, config_path = _stage_fixture(tmp_path)
    config = json.loads(config_path.read_text())
    config["backend"] = backend
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    assert main(["simulate", str(trace), str(config_path), str(out)]) == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err) == {"error": "invalid-argument", "message": message}


def _simulate_with_overrides(tmp_path, overrides, table3="adapted") -> tuple[int, Path]:
    trace, config_path = _stage_fixture(tmp_path)
    config = json.loads(config_path.read_text())
    config.update({"table3": table3, "overrides": overrides})
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o.jsonl"
    return main(["simulate", str(trace), str(config_path), str(out)]), out


@pytest.mark.parametrize(
    "table3, overrides, message",
    [
        ("adapted", {"mt": {"beam_size": 2.5}}, "field 'overrides.mt.beam_size' must be an integer, got 2.5"),
        ("baseline", {"mt": {"history_remove_words": 2.5}}, "field 'overrides.mt.history_remove_words' must be"),
        ("adapted", {"mt": {"wait_k": True}}, "field 'overrides.mt.wait_k' must be an integer, got True"),
        ("adapted", {"mt": {"max_buffer_words": 2.5}}, "field 'overrides.mt.max_buffer_words' must be"),
        ("adapted", {"asr": {"min_chunk_s": "1.0"}}, "field 'overrides.asr.min_chunk_s' must be a number"),
        ("adapted", {"mt": {"history_remove": 1}}, "field 'overrides.mt.history_remove' must be a string"),
        ("adapted", {"asr": {"abbreviations": []}}, "unknown override key 'abbreviations' in section 'asr'"),
        ("adapted", {"asr": {"strip_punctuation": False}}, "key 'strip_punctuation' in section 'asr'"),
        ("adapted", {"asr": {"lowercase": False}}, "key 'lowercase' in section 'asr'"),
        ("adapted", {"mt": {"filter_empty": False}}, "key 'filter_empty' in section 'mt'"),
        ("adapted", {"mt": {"recompute_votes_after_filter": True}}, "key 'recompute_votes_after_filter'"),
        ("adapted", {"mt": {"attention_layer_tag": "6"}}, "key 'attention_layer_tag' in section 'mt'"),
        ("x" * 100_000, {}, "mode must be one of ('adapted', 'baseline'), got 'xxx"),
        ("adapted", {"mt": {"history_remove": "y" * 100_000}}, "history_remove must be one of"),
        ("adapted", {"bogus": 5}, "unknown override section 'bogus'"),
    ],
    ids=["int_gets_float", "baseline_int_gets_float", "int_gets_bool", "buffer_gets_float",
         "float_gets_string", "string_gets_int", "removed_abbreviations",
         "removed_strip_punctuation", "removed_lowercase", "removed_filter_empty",
         "removed_recompute_votes", "removed_attention_layer_tag", "huge_table3", "huge_history_remove",
         "unknown_section_non_object"],
)
def test_simulate_bad_override_exits_1_naming_section_and_key(
    tmp_path, capsys, table3, overrides, message
) -> None:
    code, _ = _simulate_with_overrides(tmp_path, overrides, table3)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert message in err["message"]
    assert len(err["message"]) < 500  # a huge value is quoted as an excerpt


def test_simulate_float_override_takes_an_integer(tmp_path) -> None:
    # JSON may write 1.0 as 1; the preset's own values reproduce the golden.
    overrides = {"asr": {"min_chunk_s": 1, "max_window_s": 30}, "mt": {"agreement_ratio": 0.5}}
    code, out = _simulate_with_overrides(tmp_path, overrides)
    assert code == 0
    assert out.read_bytes() == (DATA / "golden_log_60s.jsonl").read_bytes()


CORPUS = """\
one two three ||| eins zwei drei
four five ||| vier fünf
six seven eight nine ||| sechs sieben acht neun

ten eleven ||| zehn elf
twelve thirteen fourteen ||| zwölf dreizehn vierzehn
"""


def _corpus(tmp_path) -> Path:
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    return path


def test_datagen_prefix_rate_zero_keeps_sentences_whole(tmp_path, capsys) -> None:
    corpus = _corpus(tmp_path)
    code = main(
        ["datagen", str(corpus), str(tmp_path / "out"), "--samples", "50",
         "--prefix-rate", "0.0", "--seed", "3"]
    )
    assert code == 0
    source_lines = (tmp_path / "out.src").read_text(encoding="utf-8").splitlines()
    corpus_sentences = {
        line.split(" ||| ")[0] for line in CORPUS.splitlines() if "|||" in line
    }
    for line in source_lines:
        for sentence in line.split(f" {SENTINEL} "):
            assert sentence in corpus_sentences


def test_datagen_prefix_rate_one_yields_prefixes(tmp_path) -> None:
    corpus = _corpus(tmp_path)
    assert (
        main(
            ["datagen", str(corpus), str(tmp_path / "out"), "--samples", "80",
             "--prefix-rate", "1.0", "--seed", "5"]
        )
        == 0
    )
    source_lines = (tmp_path / "out.src").read_text(encoding="utf-8").splitlines()
    corpus_sentences = [
        line.split(" ||| ")[0] for line in CORPUS.splitlines() if "|||" in line
    ]
    for line in source_lines:
        active = line.split(f" {SENTINEL} ")[-1]
        assert any(s == active or s.startswith(active + " ") for s in corpus_sentences)


def test_datagen_is_deterministic(tmp_path) -> None:
    corpus = _corpus(tmp_path)
    for name in ("a", "b"):
        assert (
            main(["datagen", str(corpus), str(tmp_path / name), "--samples", "40",
                  "--seed", "11"])
            == 0
        )
    assert (tmp_path / "a.src").read_bytes() == (tmp_path / "b.src").read_bytes()
    assert (tmp_path / "a.tgt").read_bytes() == (tmp_path / "b.tgt").read_bytes()
    assert (tmp_path / "a.stats.json").read_bytes() == (tmp_path / "b.stats.json").read_bytes()


def test_datagen_options_left_out_take_the_gen_config_defaults(tmp_path) -> None:
    corpus = str(_corpus(tmp_path))
    defaults = GenConfig()
    explicit = [
        "--seed", str(defaults.seed),
        "--prefix-rate", str(defaults.prefix_rate),
        "--min-context", str(defaults.min_context),
        "--max-context", str(defaults.max_context),
    ]
    assert main(["datagen", corpus, str(tmp_path / "bare"), "--samples", "60"]) == 0
    assert main(["datagen", corpus, str(tmp_path / "set"), "--samples", "60", *explicit]) == 0
    for suffix in (".src", ".tgt", ".stats.json"):
        bare = (tmp_path / f"bare{suffix}").read_bytes()
        assert bare == (tmp_path / f"set{suffix}").read_bytes(), suffix
    assert (tmp_path / "bare.src").read_text(encoding="utf-8").count("\n") == 60


def test_bench_single_log_rows_and_json_agreement(tmp_path, capsys) -> None:
    json_out = tmp_path / "bench.json"
    code = main(
        ["bench", str(DATA / "golden_log_60s.jsonl"), "--refs",
         str(DATA / "refs_60s.jsonl"), "--json", str(json_out)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + NCA row + CA row
    stored = json.loads(json_out.read_text())
    nca_cells = lines[1].split()
    ca_cells = lines[2].split()
    assert nca_cells[1] == "NCA" and ca_cells[1] == "CA"
    for cells, mode in ((nca_cells, "nca"), (ca_cells, "ca")):
        values = [float(v) for v in cells[2:]]
        report = stored["runs"][0][mode]
        expected = [
            report["mean_s"], report["median_s"], report["p90_s"],
            report["p95_s"], report["p99_s"], report["max_s"],
        ]
        assert values == [pytest.approx(v, abs=5e-4) for v in expected]


def test_bench_dominating_log_orders_every_column(tmp_path, capsys) -> None:
    refs = [ReferenceSegment((f"t{i}",), float(i), float(i + 1)) for i in range(6)]
    refs_path = tmp_path / "refs.jsonl"
    write_reference_segments(refs, refs_path)
    fast = [EmissionRecord(f"t{i}", i + 0.2, i + 0.3) for i in range(6)]
    slow = [EmissionRecord(f"t{i}", i + 0.9, i + 1.4) for i in range(6)]
    fast_path = tmp_path / "fast.jsonl"
    slow_path = tmp_path / "slow.jsonl"
    write_emission_log(fast, fast_path)
    write_emission_log(slow, slow_path)
    json_out = tmp_path / "bench.json"
    assert (
        main(["bench", str(fast_path), str(slow_path), "--refs", str(refs_path),
              "--json", str(json_out)])
        == 0
    )
    stored = json.loads(json_out.read_text())
    fast_run, slow_run = stored["runs"]
    for mode in ("nca", "ca"):
        for column in ("mean_s", "median_s", "p90_s", "p95_s", "p99_s", "max_s"):
            assert fast_run[mode][column] <= slow_run[mode][column]


def test_datagen_warns_of_each_malformed_line_on_stderr(tmp_path, capsys) -> None:
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS + "broken line\n ||| empty side\n", encoding="utf-8")
    assert main(["datagen", str(corpus), str(tmp_path / "out"), "--samples", "5"]) == 0
    captured = capsys.readouterr()
    lines = len(CORPUS.splitlines())
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"warning": "malformed line", "line": lines + 1, "reason": "missing ' ||| ' separator"},
        {"warning": "malformed line", "line": lines + 2, "reason": "empty side"},
    ]
    assert json.loads(captured.out)["samples"] == 5


def test_datagen_corpus_with_bad_utf8_exits_1_naming_the_file(tmp_path, capsys) -> None:
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"one two ||| eins zwei\n\xffbad ||| schlecht\n")
    assert main(["datagen", str(corpus), str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert str(corpus) in err["message"] and "utf-8" in err["message"]


def test_datagen_negative_sample_count_exits_1_and_zero_writes_none(tmp_path, capsys) -> None:
    corpus = _corpus(tmp_path)
    assert main(["datagen", str(corpus), str(tmp_path / "bad"), "--samples", "-1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert "sample count must be >= 0, got -1" in err["message"]
    assert not (tmp_path / "bad.src").exists()
    assert main(["datagen", str(corpus), str(tmp_path / "none"), "--samples", "0"]) == 0
    assert (tmp_path / "none.src").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"ralcp": {"agreement_ratio": 0.5}}, "unknown override section 'ralcp'"),
        ({"waitk": {"k": 3}}, "unknown override section 'waitk'"),
        ({"matcher": {"levenshtein_threshold": 2}}, "unknown override section 'matcher'"),
        ({"mt": {"wait_k": 0}}, "wait_k must be >= 1"),
        ({"mt": {"agreement_ratio": 0}}, "agreement_ratio must be in (0, 1]"),
        ({"mt": {"agreement_ratio": 1.5}}, "agreement_ratio must be in (0, 1]"),
        ({"mt": {"beam_size": 0}}, "beam_size must be >= 1"),
        ({"asr": {"levenshtein_threshold": -1}}, "levenshtein_threshold must be >= 0"),
    ],
    ids=["old_ralcp", "old_waitk", "old_matcher", "wait_k_zero", "ratio_zero",
         "ratio_above_one", "beam_size_zero", "threshold_negative"],
)
def test_simulate_old_section_or_moved_check_exits_1_naming_it(
    tmp_path, capsys, overrides, named
) -> None:
    code, out = _simulate_with_overrides(tmp_path, overrides)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert named in err["message"]
    assert not out.exists()


def test_every_report_is_indented_sorted_json_ending_in_a_newline(tmp_path, capsys) -> None:
    trace, config = _stage_fixture(tmp_path)
    log = tmp_path / "run.jsonl"
    assert main(["simulate", str(trace), str(config), str(log)]) == 0
    refs = str(DATA / "refs_60s.jsonl")
    assert main(["eval", str(log), refs, "--out", str(tmp_path / "eval.json")]) == 0
    printed = capsys.readouterr().out
    assert main(["bench", str(log), "--refs", refs, "--json", str(tmp_path / "bench.json")]) == 0
    assert main(["datagen", str(_corpus(tmp_path)), str(tmp_path / "gen"), "--samples", "5"]) == 0
    assert (tmp_path / "eval.json").read_text(encoding="utf-8") == printed
    for name in ("run.jsonl.summary.json", "eval.json", "bench.json", "gen.stats.json"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def test_simulate_huge_beam_override_exits_1_before_any_beam(tmp_path, capsys) -> None:
    code, out = _simulate_with_overrides(tmp_path, {"mt": {"beam_size": 1_000_000_000}})
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert "field 'overrides.mt' invalid: beam_size must be <= 64" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("transport", ["mock", "wire"])
def test_trace_past_the_script_audio_exits_2_on_both_transports(
    tmp_path, capsys, transport
) -> None:
    _, config_path = _stage_fixture(tmp_path)
    if transport == "wire":
        config = json.loads(config_path.read_text())
        script = str(tmp_path / "mock_script_60s.json")
        config["backend"] = {
            "kind": "wire",
            "command": [sys.executable, "-m", "simulstream.wire_server", script],
            "timeout_s": 30,
        }
        config_path.write_text(json.dumps(config), encoding="utf-8")
    trace = tmp_path / "trace_80s.jsonl"
    trace.write_text(
        (json.dumps({"kind": "audio", "dur": 1.0}) + "\n") * 80,
        encoding="utf-8",
    )
    code = main(["simulate", str(trace), str(config_path), str(tmp_path / "o.jsonl")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "backend-error"
    assert "outside audio extent" in err["message"]
