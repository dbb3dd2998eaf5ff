"""Line-delimited JSON protocol for external model servers.

One request is one UTF-8 JSON line; the server answers with one response
line; exactly one request is in flight per connection. The schema is
versioned with a ``v`` field and deliberately contains nothing but plain
JSON types, so servers can be written in any language.

Request lines::

    {"v":2,"kind":"asr","stream_id":...,"window_start_s":...,
     "window_end_s":...,"beam_size":...}
    {"v":2,"kind":"mt","history_source":"sent [SEP] sent",
     "history_target":"sent [SEP] sent","active_source":[...],
     "committed_target":[...],"beam_size":...,"attention_layer_tag":"6"}

Response lines (a server that cannot answer a request replies
``{"v":2,"kind":"error","message":...}`` instead)::

    {"v":2,"kind":"asr","window_offset_s":...,
     "words":[{"text":...,"start_s":...,"end_s":...},...],"compute_cost_s":...}
    {"v":2,"kind":"mt","requested_size":...,
     "beams":[{"tokens":[...],"score":...,"cuts":[...]},...],
     "compute_cost_s":...}

History sentences are joined with the sentinel marker because the sentinel
is rejected in input words, which makes the joined form unambiguous.
``cuts[j]`` is the active source position token j attends to most in the
attention layer named by ``attention_layer_tag``, ties going to the
largest index; the server takes this argmax next to the model.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from typing import BinaryIO, Sequence

from .backends import AsrRequest, AsrResponse, MtRequest, MtResponse
from .core import (
    SENTINEL,
    AsrHypothesis,
    BeamHypothesis,
    BeamSet,
    BackendError,
    InvalidArgumentError,
    ProtocolError,
    TimedWord,
    canonical_json,
    json_field,
    json_object,
    must_be,
    quote,
)

PROTOCOL_VERSION = 2
DEFAULT_TIMEOUT_S = 60.0

_HISTORY_JOIN = f" {SENTINEL} "
_wire_field = partial(json_field, error=ProtocolError)


def _compute_cost(obj: dict) -> float:
    cost = _wire_field(obj, "compute_cost_s", float)
    if cost < 0:
        raise ProtocolError(must_be("compute_cost_s", ">= 0", cost))
    return cost


def _checked(line: str, kind: str) -> dict:
    """The message object of a line, its version and kind checked."""
    obj = json_object(line, ProtocolError)
    version = _wire_field(obj, "v", int)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(must_be("v", str(PROTOCOL_VERSION), version))
    got = _wire_field(obj, "kind", str)
    if got == "error":
        raise ProtocolError(f"server error: {_wire_field(obj, 'message', str)}")
    if got != kind:
        raise ProtocolError(must_be("kind", repr(kind), got))
    return obj


def _join_history(sentences: Sequence[Sequence[str]]) -> str:
    return _HISTORY_JOIN.join(" ".join(s) for s in sentences)


def _split_history(text: str, path: str) -> tuple[tuple[str, ...], ...]:
    if text == "":
        return ()
    sentences = []
    for chunk in text.split(_HISTORY_JOIN):
        words = tuple(chunk.split(" "))
        if any(not w for w in words):
            raise ProtocolError(f"field '{path}' has an empty word: {quote(text)}")
        sentences.append(words)
    return tuple(sentences)


# --- ASR messages -------------------------------------------------------------


def encode_asr_request(request: AsrRequest) -> str:
    return canonical_json(
        {
            "v": PROTOCOL_VERSION,
            "kind": "asr",
            "stream_id": request.stream_id,
            "window_start_s": request.window_start_s,
            "window_end_s": request.window_end_s,
            "beam_size": request.beam_size,
        }
    )


def decode_asr_request(line: str) -> AsrRequest:
    obj = _checked(line, "asr")
    return AsrRequest(
        stream_id=_wire_field(obj, "stream_id", str),
        window_start_s=_wire_field(obj, "window_start_s", float),
        window_end_s=_wire_field(obj, "window_end_s", float),
        beam_size=_wire_field(obj, "beam_size", int),
    )


def encode_asr_response(response: AsrResponse) -> str:
    return canonical_json(
        {
            "v": PROTOCOL_VERSION,
            "kind": "asr",
            "window_offset_s": response.hypothesis.window_offset_s,
            "words": [
                {"text": w.text, "start_s": w.start_s, "end_s": w.end_s}
                for w in response.hypothesis.words
            ],
            "compute_cost_s": response.compute_cost_s,
        }
    )


def decode_asr_response(line: str) -> AsrResponse:
    obj = _checked(line, "asr")
    words = []
    for i, item in enumerate(_wire_field(obj, "words", list, items=dict)):
        where = f"words[{i}]"
        try:
            words.append(
                TimedWord(
                    text=_wire_field(item, "text", str, where),
                    start_s=_wire_field(item, "start_s", float, where),
                    end_s=_wire_field(item, "end_s", float, where),
                )
            )
        except InvalidArgumentError as exc:
            raise ProtocolError(f"field '{where}' invalid: {exc}") from exc
    offset = _wire_field(obj, "window_offset_s", float)
    cost = _compute_cost(obj)
    try:
        hypothesis = AsrHypothesis(tuple(words), offset)
    except InvalidArgumentError as exc:
        raise ProtocolError(f"field 'words' invalid: {exc}") from exc
    return AsrResponse(hypothesis=hypothesis, compute_cost_s=cost)


# --- MT messages --------------------------------------------------------------


def encode_mt_request(request: MtRequest) -> str:
    return canonical_json(
        {
            "v": PROTOCOL_VERSION,
            "kind": "mt",
            "history_source": _join_history(request.history_source),
            "history_target": _join_history(request.history_target),
            "active_source": list(request.active_source),
            "committed_target": list(request.committed_target),
            "beam_size": request.beam_size,
            "attention_layer_tag": request.attention_layer_tag,
        }
    )


def decode_mt_request(line: str) -> MtRequest:
    obj = _checked(line, "mt")
    return MtRequest(
        history_source=_split_history(
            _wire_field(obj, "history_source", str), "history_source"
        ),
        history_target=_split_history(
            _wire_field(obj, "history_target", str), "history_target"
        ),
        active_source=tuple(_wire_field(obj, "active_source", list, items=str)),
        committed_target=tuple(_wire_field(obj, "committed_target", list, items=str)),
        beam_size=_wire_field(obj, "beam_size", int),
        attention_layer_tag=_wire_field(obj, "attention_layer_tag", str),
    )


def encode_mt_response(response: MtResponse) -> str:
    return canonical_json(
        {
            "v": PROTOCOL_VERSION,
            "kind": "mt",
            "requested_size": response.beams.requested_size,
            "beams": [
                {
                    "tokens": list(b.tokens),
                    "score": b.score,
                    "cuts": list(b.cuts),
                }
                for b in response.beams.beams
            ],
            "compute_cost_s": response.compute_cost_s,
        }
    )


def decode_mt_response(line: str) -> MtResponse:
    obj = _checked(line, "mt")
    beams = []
    for i, item in enumerate(_wire_field(obj, "beams", list, items=dict)):
        where = f"beams[{i}]"
        tokens = _wire_field(item, "tokens", list, where, items=str)
        score = _wire_field(item, "score", float, where)
        cuts = _wire_field(item, "cuts", list, where, items=int)
        try:
            beams.append(BeamHypothesis(tokens, score, cuts))
        except InvalidArgumentError as exc:
            raise ProtocolError(f"field '{where}' invalid: {exc}") from exc
    requested = _wire_field(obj, "requested_size", int)
    cost = _compute_cost(obj)
    try:
        beam_set = BeamSet(tuple(beams), requested)
    except InvalidArgumentError as exc:
        raise ProtocolError(f"field 'beams' invalid: {exc}") from exc
    return MtResponse(beams=beam_set, compute_cost_s=cost)


# --- the channel --------------------------------------------------------------

# Selectors refuse a timeout beyond about 24 days (epoll counts milliseconds
# in a C int), so a read waits in slices of at most this long.
_WAIT_SLICE_S = 3600.0


class WireChannel:
    """One serial request/response connection to a child-process server.

    A failed round trip breaks the channel for good: after a timeout the
    late reply may still arrive, and reading it as the answer to the next
    request would pair a reply with the wrong request.
    """

    def __init__(self, proc: subprocess.Popen) -> None:
        self._proc = proc
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(proc.stdout, selectors.EVENT_READ)
        self._in_flight = False
        self._broken: str | None = None

    @classmethod
    def spawn(cls, command: Sequence[str]) -> "WireChannel":
        """Start a child-process server speaking the protocol on stdio."""
        return cls(
            subprocess.Popen(list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        )

    def roundtrip(self, line: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> str:
        if self._broken is not None:
            raise BackendError(f"channel unusable after an earlier failure: {self._broken}")
        if self._in_flight:
            raise BackendError("a request is already in flight on this connection")
        self._in_flight = True
        try:
            try:
                self._proc.stdin.write(line.encode("utf-8") + b"\n")
                self._proc.stdin.flush()
            except OSError as exc:
                raise BackendError(f"connection write failed: {exc}") from exc
            return self._read_line(timeout_s)
        except BackendError as exc:
            self._broken = str(exc)
            raise
        finally:
            self._in_flight = False

    def _read_line(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BackendError(f"timeout after {timeout_s}s waiting for response")
            if not self._selector.select(min(remaining, _WAIT_SLICE_S)):
                continue
            chunk = os.read(self._proc.stdout.fileno(), 65536)
            if not chunk:
                raise BackendError("backend closed the connection")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def close(self) -> None:
        self._selector.close()
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        self._proc.terminate()
        self._proc.wait(timeout=5)
        self._proc.stdout.close()


class _WireBackend:
    """A backend over a wire channel.

    With ``measure_compute`` the reported cost is replaced by measured host
    time, for driving real servers; leave it off for deterministic tests.
    """

    def __init__(
        self,
        channel: WireChannel,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        measure_compute: bool = False,
    ) -> None:
        self.channel = channel
        self.timeout_s = timeout_s
        self.measure_compute = measure_compute

    def _roundtrip(self, line: str, decode):
        started = time.monotonic()
        response = decode(self.channel.roundtrip(line, self.timeout_s))
        if self.measure_compute:
            response = replace(response, compute_cost_s=time.monotonic() - started)
        return response


class WireAsrBackend(_WireBackend):
    def decode(self, request: AsrRequest) -> AsrResponse:
        response = self._roundtrip(encode_asr_request(request), decode_asr_response)
        for i, word in enumerate(response.hypothesis.words):
            if word.start_s < request.window_start_s or word.end_s > request.window_end_s:
                raise ProtocolError(
                    f"field 'words[{i}]' lies outside the requested window "
                    f"[{request.window_start_s}, {request.window_end_s}]: "
                    f"[{word.start_s}, {word.end_s}]"
                )
        return response


class WireMtBackend(_WireBackend):
    def translate(self, request: MtRequest) -> MtResponse:
        return self._roundtrip(encode_mt_request(request), decode_mt_response)


def _reply(asr_backend, mt_backend, raw: bytes) -> str:
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    kind = _wire_field(json_object(line, ProtocolError), "kind", str)
    if kind == "asr":
        return encode_asr_response(asr_backend.decode(decode_asr_request(line)))
    if kind == "mt":
        return encode_mt_response(mt_backend.translate(decode_mt_request(line)))
    raise ProtocolError(must_be("kind", "'asr' or 'mt'", kind))


def serve(asr_backend, mt_backend, stdin: BinaryIO, stdout: BinaryIO) -> None:
    """Reference server loop: answer each request line until EOF.

    A request the server cannot answer gets an error reply,
    {"v":2,"kind":"error","message":...}, and the loop goes on, so one
    reply still answers each request and the client's channel stays usable.
    """
    for raw in stdin:
        raw = raw.rstrip(b"\n")
        if not raw:
            continue
        try:
            reply = _reply(asr_backend, mt_backend, raw)
        except (ProtocolError, InvalidArgumentError) as exc:
            reply = canonical_json(
                {"v": PROTOCOL_VERSION, "kind": "error", "message": str(exc)}
            )
        stdout.write(reply.encode("utf-8") + b"\n")
        stdout.flush()


def main(argv: Sequence[str] | None = None) -> int:
    """Serve mock backends from a script file over stdio."""
    from .backends import MockAsrBackend, MockMtBackend, load_mock_script

    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m simulstream.wire_server SCRIPT.json", file=sys.stderr)
        return 1
    scripts = load_mock_script(args[0])
    serve(
        MockAsrBackend(scripts.asr),
        MockMtBackend(scripts.mt),
        sys.stdin.buffer,
        sys.stdout.buffer,
    )
    return 0
