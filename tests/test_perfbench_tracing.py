"""The benchmark's tracer still wraps and reads every name it depends on.

``perfbench/tracing.py`` patches functions and methods of the package from
outside and its hooks read reply and controller attributes, so a rename in
``src/`` would otherwise break only the traced benchmark. This runs the
tracer over one short mock talk and one wire encode/decode of the
fixtures, then removes it.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from simulstream import metrics, wire
from simulstream.backends import MockAsrBackend, MockMtBackend, load_mock_script
from simulstream.pipeline import Pipeline, preset_config, read_trace

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Loading it writes nothing under perfbench/.
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _run_talk(log_path: Path) -> Pipeline:
    scripts = load_mock_script(DATA / "mock_script_60s.json")
    pipeline = Pipeline(
        preset_config("adapted"), MockAsrBackend(scripts.asr), MockMtBackend(scripts.mt)
    )
    for event in read_trace(DATA / "trace_60s.jsonl"):
        pipeline.feed_audio(event.duration_s)
    pipeline.finalize()
    metrics.write_emission_log(pipeline.records, log_path)
    log = metrics.read_emission_log(log_path)
    metrics.evaluate(log, metrics.read_reference_segments(DATA / "refs_60s.jsonl"))
    return pipeline


def _wire_codec() -> None:
    asr_request, mt_request = (DATA / "wire_requests.jsonl").read_text("utf-8").splitlines()
    asr_reply, mt_reply = (DATA / "wire_responses.jsonl").read_text("utf-8").splitlines()
    wire.encode_asr_request(wire.decode_asr_request(asr_request))
    wire.encode_mt_request(wire.decode_mt_request(mt_request))
    wire.decode_asr_response(asr_reply)
    wire.decode_mt_response(mt_reply)


def test_tracer_wraps_a_mock_talk_and_the_wire_codec(tmp_path) -> None:
    tracing = _load_tracing()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline = _run_talk(tmp_path / "log.jsonl")
        _wire_codec()
    finally:
        tracer.remove()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.TRACED] == originals

    # Every traced span ran but the channel round trip, which needs a server.
    spans = {name for _, _, name, _ in tracing.TRACED} - {"wire.roundtrip"}
    assert {name for name in spans if tracer.calls[name] == 0} == set()
    for key in ("asr_words", "mt_active_words", "mt_tokens", "ralcp_tokens", "resegment_cells",
                "mt_request_bytes", "mt_response_bytes", "asr_response_bytes"):
        assert tracer.totals[key] > 0, key
    for key in ("asr_window_s", "mt_buffer_words", "mt_active_chunk", "mt_active_words"):
        assert tracer.peaks[key] > 0, key

    # The counters the benchmark reads off the pipeline after each talk.
    asr, mt = pipeline.asr, pipeline.mt
    assert pipeline.records and asr.state.committed and asr.transcript()
    counters = Counter(
        decodes=asr.decodes,
        force_trims=asr.force_trims,
        translate_calls=mt.translate_calls,
        segments_closed=mt.segment_ordinal,
        evictions=mt.evictions,
        dropped_beams=mt.dropped_beams,
    )
    talk = SimpleNamespace(counters=counters, setup_s=0.0, spawn_s=0.0)
    layers = tracing.layer_metrics(tracer, [[talk]], traced_rtf=2.0, untraced_rtf=1.0)
    assert all(math.isfinite(value) for value, _ in layers.values())
