from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from helpers import DEEP_JSON
from simulstream.cli import main
from simulstream.core import SENTINEL, EmissionRecord
from simulstream.metrics import (
    ReferenceSegment,
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
        ("trace", '{"t": 1.0, "kind": "audio", "dur": NaN}', r"trace\.jsonl:1: invalid JSON: .*NaN"),
        ("trace", '{"t": 1.0, "kind": "audio", "dur": "1.0"}', r"trace\.jsonl:1: field 'dur' must be a number, got '1\.0'"),
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


@pytest.mark.parametrize(
    "server, message",
    [(_V1_REPLY_SERVER, "field 'v' must be 3, got 1"), (_DEEP_REPLY_SERVER, "nested too deeply")],
    ids=["v1_reply", "nested_reply"],
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


def test_eval_instant_emission_gives_perfect_bleu_and_nonpositive_lag(tmp_path, capsys) -> None:
    refs = [
        ReferenceSegment(("ja", "genau"), 0.0, 2.0),
        ReferenceSegment(("stimmt",), 2.0, 4.0),
    ]
    log = [
        EmissionRecord("ja", 0, 0.0, 0.0),
        EmissionRecord("genau", 0, 0.0, 0.0),
        EmissionRecord(SENTINEL, 0, 0.0, 0.0),
        EmissionRecord("stimmt", 1, 2.0, 2.0),
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
    assert [v for _, v in report["nca"]["per_segment"]] == [3.0, 2.0]


def test_eval_misaligned_inputs_exit_1(tmp_path, capsys) -> None:
    refs_path = tmp_path / "refs.jsonl"
    write_reference_segments([], refs_path)
    log_path = tmp_path / "log.jsonl"
    write_emission_log([EmissionRecord("x", 0, 0.0, 0.0)], log_path)
    assert main(["eval", str(log_path), str(refs_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-argument"


_GOOD_RECORD = '{"ca_time_s":1.5,"nca_time_s":1.0,"segment_ordinal":0,"token":"ja"}'
_GOOD_SEGMENT = '{"source_end_s":2.0,"source_start_s":0.0,"tokens":["ja"]}'


@pytest.mark.parametrize(
    "bad_file, bad_line",
    [
        ("log", '{"ca_time_s":2.0,"nca_time_s":2.0,"segment_ordinal":0,"token":5}'),
        ("log", '{"ca_time_s":2.0,"nca_time_s":2.0,"segment_ordinal":1.5,"token":"x"}'),
        ("log", '{"ca_time_s":2.0,"nca_time_s":2.0,"segment_ordinal":true,"token":"x"}'),
        ("log", '{"ca_time_s":"2.0","nca_time_s":"1.0","segment_ordinal":0,"token":"x"}'),
        ("log", '{"ca_time_s":2.0,"nca_time_s":NaN,"segment_ordinal":0,"token":"x"}'),
        ("log", '{"ca_time_s":Infinity,"nca_time_s":2.0,"segment_ordinal":0,"token":"x"}'),
        ("log", '{"ca_time_s":1e999,"nca_time_s":1e999,"segment_ordinal":0,"token":"x"}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":2.0,"tokens":"hi there"}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":2.0,"tokens":["hi",1]}'),
        ("refs", '{"source_end_s":"4.0","source_start_s":"2.0","tokens":["hi"]}'),
        ("refs", '{"source_end_s":NaN,"source_start_s":2.0,"tokens":["hi"]}'),
        ("refs", '{"source_end_s":4.0,"source_start_s":-Infinity,"tokens":["hi"]}'),
        ("log", DEEP_JSON),
        ("refs", DEEP_JSON),
    ],
    ids=[
        "token_not_string",
        "ordinal_float",
        "ordinal_bool",
        "string_times",
        "nan_time",
        "infinity_time",
        "overflowing_times",
        "tokens_string",
        "tokens_not_strings",
        "string_bounds",
        "nan_bound",
        "infinity_bound",
        "log_nested_too_deeply",
        "refs_nested_too_deeply",
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
        ({"overrides": [1]}, "overrides"),
        ({"mock_script": 5}, "mock_script"),
    ],
    ids=[
        "timeout_string",
        "timeout_zero",
        "timeout_bool",
        "timeout_huge_int",
        "command_empty",
        "measure_compute_string",
        "measure_compute_int",
        "overrides_list",
        "mock_script_number",
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
        ("x" * 100_000, {}, "mode must be one of ('adapted', 'baseline'), got 'xxx"),
        ("adapted", {"mt": {"history_remove": "y" * 100_000}}, "history_remove must be one of"),
    ],
    ids=["int_gets_float", "baseline_int_gets_float", "int_gets_bool", "buffer_gets_float",
         "float_gets_string", "string_gets_int", "removed_abbreviations",
         "removed_strip_punctuation", "removed_lowercase", "removed_filter_empty",
         "removed_recompute_votes", "huge_table3", "huge_history_remove"],
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
    fast = [EmissionRecord(f"t{i}", i, i + 0.2, i + 0.3) for i in range(6)]
    slow = [EmissionRecord(f"t{i}", i, i + 0.9, i + 1.4) for i in range(6)]
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


def test_datagen_corpus_with_bad_utf8_exits_1_naming_the_file(tmp_path, capsys) -> None:
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"one two ||| eins zwei\n\xffbad ||| schlecht\n")
    assert main(["datagen", str(corpus), str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert str(corpus) in err["message"] and "utf-8" in err["message"]


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
        "".join(json.dumps({"t": t, "kind": "audio", "dur": 1.0}) + "\n" for t in range(1, 81)),
        encoding="utf-8",
    )
    code = main(["simulate", str(trace), str(config_path), str(tmp_path / "o.jsonl")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "backend-error"
    assert "outside audio extent" in err["message"]
