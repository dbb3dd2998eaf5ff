"""Line-delimited JSON protocol for external model servers.

One request is one UTF-8 JSON line; the server answers with one response
line; exactly one request is in flight per connection. The schema is
versioned with a ``v`` field and deliberately contains nothing but plain
JSON types, so servers can be written in any language. README "Wire
protocol" shows one message of each kind.

A message is ``{"v":3,"kind":"asr"|"mt", ...}`` plus the fields of the
record it carries, under their own names (``core.read_record``): an
``AsrRequest`` or ``MtRequest``, and in reply an ``AsrHypothesis`` or
``BeamSet`` with ``compute_cost_s``. A word list is a JSON list of
strings; an MT request's history is, on each side, a list of such
sentences, and a sentence may be empty. A reply repeats nothing of its
request; the controller that sent the request checks the reply, as it
does an in-process backend's. A server that cannot answer a request, or
whose backend fails, replies ``{"v":3,"kind":"error","message":...}``,
which the client raises as a ``BackendError``. ``cuts[j]`` is the active
source position token j attends to most in the attention layer named by
``attention_layer_tag``, ties going to the largest index; the server
takes this argmax next to the model.
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
    AsrHypothesis,
    BeamSet,
    BackendError,
    InvalidArgumentError,
    ProtocolError,
    canonical_json,
    json_field,
    json_object,
    must_be,
    read_record,
    record_fields,
)

PROTOCOL_VERSION = 3
DEFAULT_TIMEOUT_S = 60.0


def _encode(kind: str, record, **extras) -> str:
    """A message line: the version, the kind, the record's fields and extras."""
    return canonical_json(
        {"v": PROTOCOL_VERSION, "kind": kind, **record_fields(record), **extras}
    )


def _message(line: str) -> tuple[str, dict]:
    """The kind and the object of a message line whose version checks."""
    obj = json_object(line)
    version = json_field(obj, "v", int)
    if version != PROTOCOL_VERSION:
        raise InvalidArgumentError(must_be("v", str(PROTOCOL_VERSION), version))
    return json_field(obj, "kind", str), obj


def _decode(line: str, kind: str, build):
    """``build`` of the message object of a line whose version and kind check.

    Every schema fault is a ``ProtocolError``; an error reply from the
    server is a ``BackendError`` carrying its message.
    """
    try:
        got, obj = _message(line)
        if got == "error":
            raise BackendError(f"server error: {json_field(obj, 'message', str)}")
        if got != kind:
            raise InvalidArgumentError(must_be("kind", repr(kind), got))
        return build(obj)
    except InvalidArgumentError as exc:
        raise ProtocolError(str(exc)) from exc


def _compute_cost(obj: dict) -> float:
    cost = json_field(obj, "compute_cost_s", float)
    if cost < 0:
        raise InvalidArgumentError(must_be("compute_cost_s", ">= 0", cost))
    return cost


# --- ASR messages -------------------------------------------------------------


def encode_asr_request(request: AsrRequest) -> str:
    return _encode("asr", request)


def decode_asr_request(line: str) -> AsrRequest:
    return _decode(line, "asr", partial(read_record, AsrRequest))


def encode_asr_response(response: AsrResponse) -> str:
    return _encode("asr", response.hypothesis, compute_cost_s=response.compute_cost_s)


def decode_asr_response(line: str) -> AsrResponse:
    return _decode(
        line, "asr", lambda obj: AsrResponse(read_record(AsrHypothesis, obj), _compute_cost(obj))
    )


# --- MT messages --------------------------------------------------------------


def encode_mt_request(request: MtRequest) -> str:
    return _encode("mt", request)


def decode_mt_request(line: str) -> MtRequest:
    return _decode(line, "mt", partial(read_record, MtRequest))


def encode_mt_response(response: MtResponse) -> str:
    return _encode("mt", response.beams, compute_cost_s=response.compute_cost_s)


def decode_mt_response(line: str) -> MtResponse:
    return _decode(
        line, "mt", lambda obj: MtResponse(read_record(BeamSet, obj), _compute_cost(obj))
    )


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
        return self._roundtrip(encode_asr_request(request), decode_asr_response)


class WireMtBackend(_WireBackend):
    def translate(self, request: MtRequest) -> MtResponse:
        return self._roundtrip(encode_mt_request(request), decode_mt_response)


def _reply(asr_backend, mt_backend, raw: bytes) -> str:
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"request is not UTF-8: {exc}") from exc
    kind, obj = _message(line)
    if kind == "asr":
        return encode_asr_response(asr_backend.decode(read_record(AsrRequest, obj)))
    if kind == "mt":
        return encode_mt_response(mt_backend.translate(read_record(MtRequest, obj)))
    raise InvalidArgumentError(must_be("kind", "'asr' or 'mt'", kind))


def serve(asr_backend, mt_backend, stdin: BinaryIO, stdout: BinaryIO) -> None:
    """Reference server loop: answer each request line until EOF.

    A request the server cannot answer, or whose backend fails, gets an
    error reply, {"v":3,"kind":"error","message":...}, and the loop goes
    on, so one reply still answers each request and the client's channel
    stays usable.
    """
    for raw in stdin:
        raw = raw.rstrip(b"\n")
        if not raw:
            continue
        try:
            reply = _reply(asr_backend, mt_backend, raw)
        except (BackendError, InvalidArgumentError, ProtocolError) as exc:
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
