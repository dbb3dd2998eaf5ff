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

Response lines::

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

import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import replace
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
    quote,
    strict_json_loads,
)

PROTOCOL_VERSION = 2
DEFAULT_TIMEOUT_S = 60.0

_HISTORY_JOIN = f" {SENTINEL} "
_KIND_NAMES = {str: "a string", int: "an integer"}


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _parse(line: str) -> dict:
    try:
        obj = strict_json_loads(line)
    except ValueError as exc:
        raise ProtocolError(
            f"malformed JSON line: {exc}; payload: {quote(line)}"
        ) from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"expected JSON object, got: {quote(line)}")
    return obj


def _field(obj: dict, name: str, kinds, path: str):
    if name not in obj:
        raise ProtocolError(f"missing field '{path}{name}'")
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ProtocolError(f"field '{path}{name}' has wrong type: {quote(value)}")
    return value


def _list(obj: dict, name: str, kind: type, path: str) -> tuple:
    value = _field(obj, name, list, path)
    for i, item in enumerate(value):
        if type(item) is not kind:
            raise ProtocolError(
                f"field '{path}{name}[{i}]' must be {_KIND_NAMES[kind]}: {quote(item)}"
            )
    return tuple(value)


def _number(obj: dict, name: str, path: str) -> float:
    value = _field(obj, name, (int, float), path)
    # An overflowing literal such as 1e999 reads as inf; a huge integer
    # overflows float().
    if not abs(value) <= sys.float_info.max:
        raise ProtocolError(f"field '{path}{name}' must be finite, got {value!r}")
    return float(value)


def _compute_cost(obj: dict) -> float:
    cost = _number(obj, "compute_cost_s", "")
    if cost < 0:
        raise ProtocolError(f"field 'compute_cost_s' must be >= 0, got {cost}")
    return cost


def _check_envelope(obj: dict, kind: str) -> None:
    if _field(obj, "v", int, "") != PROTOCOL_VERSION:
        raise ProtocolError(f"field 'v' must be {PROTOCOL_VERSION}, got {obj['v']!r}")
    if _field(obj, "kind", str, "") != kind:
        raise ProtocolError(f"field 'kind' must be {kind!r}, got {quote(obj['kind'])}")


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
    return _dumps(
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
    obj = _parse(line)
    _check_envelope(obj, "asr")
    return AsrRequest(
        stream_id=_field(obj, "stream_id", str, ""),
        window_start_s=_number(obj, "window_start_s", ""),
        window_end_s=_number(obj, "window_end_s", ""),
        beam_size=_field(obj, "beam_size", int, ""),
    )


def encode_asr_response(response: AsrResponse) -> str:
    return _dumps(
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
    obj = _parse(line)
    _check_envelope(obj, "asr")
    raw_words = _field(obj, "words", list, "")
    words = []
    for i, item in enumerate(raw_words):
        path = f"words[{i}]."
        if not isinstance(item, dict):
            raise ProtocolError(f"field 'words[{i}]' must be an object")
        try:
            words.append(
                TimedWord(
                    text=_field(item, "text", str, path),
                    start_s=_number(item, "start_s", path),
                    end_s=_number(item, "end_s", path),
                )
            )
        except InvalidArgumentError as exc:
            raise ProtocolError(f"field 'words[{i}]' invalid: {exc}") from exc
    offset = _number(obj, "window_offset_s", "")
    cost = _compute_cost(obj)
    try:
        hypothesis = AsrHypothesis(tuple(words), offset)
    except InvalidArgumentError as exc:
        raise ProtocolError(f"field 'words' invalid: {exc}") from exc
    return AsrResponse(hypothesis=hypothesis, compute_cost_s=cost)


# --- MT messages --------------------------------------------------------------


def encode_mt_request(request: MtRequest) -> str:
    return _dumps(
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
    obj = _parse(line)
    _check_envelope(obj, "mt")
    return MtRequest(
        history_source=_split_history(
            _field(obj, "history_source", str, ""), "history_source"
        ),
        history_target=_split_history(
            _field(obj, "history_target", str, ""), "history_target"
        ),
        active_source=_list(obj, "active_source", str, ""),
        committed_target=_list(obj, "committed_target", str, ""),
        beam_size=_field(obj, "beam_size", int, ""),
        attention_layer_tag=_field(obj, "attention_layer_tag", str, ""),
    )


def encode_mt_response(response: MtResponse) -> str:
    return _dumps(
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
    obj = _parse(line)
    _check_envelope(obj, "mt")
    raw_beams = _field(obj, "beams", list, "")
    beams = []
    for i, item in enumerate(raw_beams):
        path = f"beams[{i}]."
        if not isinstance(item, dict):
            raise ProtocolError(f"field 'beams[{i}]' must be an object")
        tokens = _list(item, "tokens", str, path)
        score = _number(item, "score", path)
        cuts = _list(item, "cuts", int, path)
        try:
            beams.append(BeamHypothesis(tokens, score, cuts))
        except InvalidArgumentError as exc:
            raise ProtocolError(f"field 'beams[{i}]' invalid: {exc}") from exc
    requested = _field(obj, "requested_size", int, "")
    cost = _compute_cost(obj)
    try:
        beam_set = BeamSet(tuple(beams), requested)
    except InvalidArgumentError as exc:
        raise ProtocolError(f"field 'beams' invalid: {exc}") from exc
    return MtResponse(beams=beam_set, compute_cost_s=cost)


# --- transports ---------------------------------------------------------------


class _LineTransport:
    """Blocking line transport with deadline-based reads over a raw fd."""

    def __init__(self, read_fd: int) -> None:
        self._read_fd = read_fd
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(read_fd, selectors.EVENT_READ)

    def read_line(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BackendError(f"timeout after {timeout_s}s waiting for response")
            if not self._selector.select(remaining):
                continue
            chunk = os.read(self._read_fd, 65536)
            if not chunk:
                raise BackendError("backend closed the connection")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def close(self) -> None:
        self._selector.close()


class WireChannel:
    """One serial request/response connection to an external server.

    A failed round trip breaks the channel for good: after a timeout the
    late reply may still arrive, and reading it as the answer to the next
    request would pair a reply with the wrong request.
    """

    def __init__(self, transport: _LineTransport, write, on_close) -> None:
        self._transport = transport
        self._write = write
        self._on_close = on_close
        self._in_flight = False
        self._broken: str | None = None

    @classmethod
    def spawn(cls, command: Sequence[str]) -> "WireChannel":
        """Start a child-process server speaking the protocol on stdio."""
        proc = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        assert proc.stdin is not None and proc.stdout is not None
        transport = _LineTransport(proc.stdout.fileno())

        def write(data: bytes) -> None:
            proc.stdin.write(data)
            proc.stdin.flush()

        def on_close() -> None:
            try:
                proc.stdin.close()
            except OSError:
                pass
            proc.terminate()
            proc.wait(timeout=5)
            proc.stdout.close()

        return cls(transport, write, on_close)

    def roundtrip(self, line: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> str:
        if self._broken is not None:
            raise BackendError(f"channel unusable after an earlier failure: {self._broken}")
        if self._in_flight:
            raise BackendError("a request is already in flight on this connection")
        self._in_flight = True
        try:
            try:
                self._write(line.encode("utf-8") + b"\n")
            except OSError as exc:
                raise BackendError(f"connection write failed: {exc}") from exc
            return self._transport.read_line(timeout_s)
        except BackendError as exc:
            self._broken = str(exc)
            raise
        finally:
            self._in_flight = False

    def close(self) -> None:
        self._transport.close()
        self._on_close()


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


def serve(asr_backend, mt_backend, stdin: BinaryIO, stdout: BinaryIO) -> None:
    """Reference server loop: dispatch request lines until EOF."""
    for raw in stdin:
        line = raw.decode("utf-8").rstrip("\n")
        if not line:
            continue
        obj = _parse(line)
        kind = _field(obj, "kind", str, "")
        if kind == "asr":
            reply = encode_asr_response(asr_backend.decode(decode_asr_request(line)))
        elif kind == "mt":
            reply = encode_mt_response(mt_backend.translate(decode_mt_request(line)))
        else:
            raise ProtocolError(f"field 'kind' unknown: {quote(kind)}")
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
