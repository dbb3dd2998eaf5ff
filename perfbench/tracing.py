"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper
on the attribute its caller resolves (``mt_stream.ralcp_emit``, not
``policy.ralcp_emit``), and ``remove`` puts the originals back. A span's
self time is its duration minus the time its child spans cover. Spans
are kept in memory while ``keep_spans`` is set and written out at the
end of the run; call and time totals are kept for every traced call.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from simulstream import asr_stream, backends, metrics, mt_stream, pipeline, policy, wire


def _asr_words(tracer, args, result):
    tracer.add("asr_words", len(result.hypothesis.words))


def _mock_mt(tracer, args, result):
    active = len(args[1].active_source)
    tracer.add("mt_active_words", active)
    tracer.peak("mt_active_words", active)
    tracer.add("mt_attention_cells", sum(len(b.tokens) for b in result.beams.beams) * active)


def _mt_state(tracer, args, result):
    history = args[0].history
    tracer.peak("mt_buffer_words", history.buffered_source_words())
    tracer.peak("mt_active_chunk", len(history.active_source))
    tracer.add("mt_tokens", len(result))


def _asr_window(tracer, args, result):
    tracer.peak("asr_window_s", args[0].window_length_s)


def _ralcp(tracer, args, result):
    tracer.add("ralcp_tokens", len(result))


def _bytes_out(key):
    def hook(tracer, args, result):
        tracer.add(key, len(result.encode("utf-8")))

    return hook


def _bytes_in(key, then=None):
    def hook(tracer, args, result):
        tracer.add(key, len(args[0].encode("utf-8")))
        if then:
            then(tracer, args, result)

    return hook


def _resegment(tracer, args, result):
    tracer.add("resegment_cells", len(args[0]) * sum(len(r.tokens) for r in args[1]))


# (owner, attribute, span name, hook run on the arguments and result)
TRACED = (
    (pipeline.Pipeline, "feed_audio", "pipeline.feed_audio", None),
    (asr_stream.AsrStreamController, "step", "asr_stream.step", _asr_window),
    (asr_stream, "agreed_prefix_len", "policy.agreed_prefix_len", None),
    (policy, "words_match", "textnorm.words_match", None),
    (backends, "mock_asr_decode", "backends.asr_decode", _asr_words),
    (backends, "mock_mt_translate", "backends.mt_translate", _mock_mt),
    (mt_stream.MtStreamController, "step", "mt_stream.step", _mt_state),
    (mt_stream.MtStreamController, "flush", "mt_stream.flush", _mt_state),
    (mt_stream, "ralcp_emit", "policy.ralcp_emit", _ralcp),
    (wire.WireChannel, "roundtrip", "wire.roundtrip", None),
    (wire, "encode_asr_request", "wire.encode_asr_request", None),
    (wire, "decode_asr_response", "wire.decode_asr_response", _bytes_in("asr_response_bytes", _asr_words)),
    (wire, "encode_mt_request", "wire.encode_mt_request", _bytes_out("mt_request_bytes")),
    (wire, "decode_mt_response", "wire.decode_mt_response", _bytes_in("mt_response_bytes")),
    (metrics, "resegment", "metrics.resegment", _resegment),
    (metrics, "corpus_bleu", "metrics.corpus_bleu", None),
    (metrics, "stream_laal", "metrics.stream_laal", None),
    (metrics, "read_emission_log", "metrics.read_emission_log", None),
    (metrics, "write_emission_log", "metrics.write_emission_log", None),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # Calls of a span made directly inside another: (name, parent) -> n.
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.keep_spans = True
        self.talk = -1
        self._stack: list[list] = []
        self._originals: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def install(self) -> None:
        for owner, attr, name, hook in TRACED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            # A frame is [span name, time covered by child spans, span id].
            parent = stack[-1] if stack else ["", 0.0, None]
            span_id = None
            if self.keep_spans:
                span_id = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent[2], self.talk])
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.calls_under[name, parent[0]] += 1
                if span_id is not None:
                    self.spans[span_id][1:3] = start, end
            if hook:
                hook(self, args, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        """One JSON line per span: id, name, start, end, parent span id, talk."""
        with open(path, "w", encoding="utf-8") as fh:
            for ident, (name, start, end, parent, talk) in enumerate(self.spans):
                record = {"id": ident, "name": name, "start_s": start, "end_s": end,
                          "parent": parent, "talk": talk}
                fh.write(json.dumps(record) + "\n")

    def per_call(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_s[name] / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer, rounds, traced_rtf: float, untraced_rtf: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds: name -> (value, unit).

    Counts are per round, so they do not depend on how many rounds ran.
    """
    n = len(rounds)
    talks = [t for rnd in rounds for t in rnd]
    counters = sum((t.counters for t in talks), start=Counter())
    totals, peaks = tracer.totals, tracer.peaks

    def per_round(value):
        return value / n

    def ratio(value, base):
        return value / base if base else 0.0

    def calls(name):
        return per_round(tracer.calls.get(name, 0))

    def us(name):
        return tracer.per_call(name, 1e6)

    def ms(name):
        return tracer.per_call(name, 1e3)

    return {
        "pipeline.feed_audio.calls": (calls("pipeline.feed_audio"), "count"),
        "pipeline.feed_audio.us_per_call": (us("pipeline.feed_audio"), "us"),
        "pipeline.setup_ms": (statistics.fmean(t.setup_s for t in talks) * 1e3, "ms"),
        "asr_stream.step.us_per_call": (us("asr_stream.step"), "us"),
        "asr_stream.decodes": (per_round(counters["decodes"]), "count"),
        "asr_stream.words_per_decode": (ratio(totals["asr_words"], counters["decodes"]), "words"),
        "asr_stream.window_s_max": (peaks["asr_window_s"], "audio_s"),
        "asr_stream.force_trims": (per_round(counters["force_trims"]), "count"),
        "backends.asr_decode.calls": (calls("backends.asr_decode"), "count"),
        "backends.asr_decode.us_per_call": (us("backends.asr_decode"), "us"),
        "backends.asr_decode.words_mean": (
            ratio(totals["asr_words"], tracer.calls.get("backends.asr_decode", 0)), "words"),
        "backends.mt_translate.calls": (calls("backends.mt_translate"), "count"),
        "backends.mt_translate.us_per_call": (us("backends.mt_translate"), "us"),
        "backends.mt_translate.active_words_mean": (
            ratio(totals["mt_active_words"], tracer.calls.get("backends.mt_translate", 0)), "words"),
        "backends.mt_translate.active_words_max": (peaks["mt_active_words"], "words"),
        "backends.mt_translate.attention_cells_mean": (
            ratio(totals["mt_attention_cells"], tracer.calls.get("backends.mt_translate", 0)), "cells"),
        "mt_stream.step.calls": (calls("mt_stream.step"), "count"),
        "mt_stream.step.us_per_call": (us("mt_stream.step"), "us"),
        "mt_stream.tokens_per_translate": (ratio(totals["mt_tokens"], counters["translate_calls"]), "tokens"),
        "mt_stream.segments_closed": (per_round(counters["segments_closed"]), "count"),
        "mt_stream.evictions": (per_round(counters["evictions"]), "count"),
        "mt_stream.dropped_beams": (per_round(counters["dropped_beams"]), "count"),
        "mt_stream.buffer_words_max": (peaks["mt_buffer_words"], "words"),
        "mt_stream.active_words_max": (peaks["mt_active_chunk"], "words"),
        "mt_stream.flush.rounds": (
            per_round(tracer.calls_under.get(("policy.ralcp_emit", "mt_stream.flush"), 0)), "count"),
        "policy.agreed_prefix_len.calls": (calls("policy.agreed_prefix_len"), "count"),
        "policy.agreed_prefix_len.us_per_call": (us("policy.agreed_prefix_len"), "us"),
        "policy.ralcp_emit.calls": (calls("policy.ralcp_emit"), "count"),
        "policy.ralcp_emit.us_per_call": (us("policy.ralcp_emit"), "us"),
        "policy.ralcp_emit.tokens_per_call": (
            ratio(totals["ralcp_tokens"], tracer.calls.get("policy.ralcp_emit", 0)), "tokens"),
        "textnorm.words_match.calls": (calls("textnorm.words_match"), "count"),
        "textnorm.words_match.us_per_call": (us("textnorm.words_match"), "us"),
        "wire.roundtrip.calls": (calls("wire.roundtrip"), "count"),
        "wire.roundtrip.us_per_call": (us("wire.roundtrip"), "us"),
        "wire.encode_mt_request.us_per_call": (us("wire.encode_mt_request"), "us"),
        "wire.decode_mt_response.us_per_call": (us("wire.decode_mt_response"), "us"),
        "wire.encode_asr_request.us_per_call": (us("wire.encode_asr_request"), "us"),
        "wire.decode_asr_response.us_per_call": (us("wire.decode_asr_response"), "us"),
        "wire.mt_request_bytes_mean": (
            ratio(totals["mt_request_bytes"], tracer.calls.get("wire.encode_mt_request", 0)), "B"),
        "wire.mt_response_bytes_mean": (
            ratio(totals["mt_response_bytes"], tracer.calls.get("wire.decode_mt_response", 0)), "B"),
        "wire.asr_response_bytes_mean": (
            ratio(totals["asr_response_bytes"], tracer.calls.get("wire.decode_asr_response", 0)), "B"),
        "wire.spawn_ms": (statistics.fmean(t.spawn_s for t in talks) * 1e3, "ms"),
        "metrics.resegment.ms_per_call": (ms("metrics.resegment"), "ms"),
        "metrics.resegment.cells": (
            ratio(totals["resegment_cells"], tracer.calls.get("metrics.resegment", 0)), "cells"),
        "metrics.corpus_bleu.ms_per_call": (ms("metrics.corpus_bleu"), "ms"),
        "metrics.stream_laal.ms_per_call": (ms("metrics.stream_laal"), "ms"),
        "metrics.read_emission_log.ms_per_call": (ms("metrics.read_emission_log"), "ms"),
        "metrics.write_emission_log.ms_per_call": (ms("metrics.write_emission_log"), "ms"),
        "trace.overhead_sim_rtf": (traced_rtf - untraced_rtf, "s/s"),
        "trace.overhead_pct": (100 * (traced_rtf - untraced_rtf) / untraced_rtf, "%"),
    }
