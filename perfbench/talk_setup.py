"""One talk's set-up, through the public calls ``simulstream simulate`` makes."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from simulstream.backends import AsrRequest, MockAsrBackend, MockMtBackend, load_mock_script
from simulstream.pipeline import Pipeline, TraceEvent, apply_overrides, preset_config, read_trace
from simulstream.wire import WireAsrBackend, WireChannel, WireMtBackend


@dataclass
class OpenTalk:
    pipeline: Pipeline
    events: list[TraceEvent]
    channel: WireChannel | None
    spawn_s: float = 0.0  # spawning the wire server until its first reply

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()


def open_talk(config_path: str | Path, trace_path: str | Path) -> OpenTalk:
    """Load the config and trace and build the pipeline and its backends.

    A wire backend is spawned and asked for one empty ASR window, so the
    server has started before the first chunk is fed.
    """
    config_path = Path(config_path)
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    config = apply_overrides(preset_config(raw["table3"]), raw.get("overrides", {}))
    events = read_trace(trace_path)
    backend = raw["backend"]
    channel = None
    spawn_s = 0.0
    if backend["kind"] == "wire":
        started = perf_counter()
        channel = WireChannel.spawn(backend["command"])
        asr = WireAsrBackend(channel, backend["timeout_s"])
        mt = WireMtBackend(channel, backend["timeout_s"])
        try:
            asr.decode(AsrRequest("setup", 0.0, 0.0, config.asr.backend_beam))
        except BaseException:
            channel.close()
            raise
        spawn_s = perf_counter() - started
    else:
        scripts = load_mock_script(config_path.parent / raw["mock_script"])
        asr, mt = MockAsrBackend(scripts.asr), MockMtBackend(scripts.mt)
    return OpenTalk(Pipeline(config, asr, mt), events, channel, spawn_s)
