"""Driving a model server over the line-delimited JSON protocol.

A backend server reads one JSON request per line on stdin and answers one
JSON response per line on stdout. The reference server wraps the mock
backends, so this demo spawns it as a child process, sends one ASR and one
MT request, and prints the raw lines both ways.

Run:  python demos/05_wire_protocol.py
"""

import json
import sys
import tempfile
from pathlib import Path

from simulstream.backends import AsrRequest, MtRequest
from simulstream.wire import (
    WireAsrBackend,
    WireChannel,
    WireMtBackend,
    encode_asr_request,
    encode_mt_request,
)

script = {
    "seed": 1,
    "asr": {
        "words": [
            {"text": "guten", "start_s": 0.0, "end_s": 0.4},
            {"text": "morgen.", "start_s": 0.4, "end_s": 0.9},
        ],
        "audio_duration_s": 1.0,
    },
    "mt": {"word_map": {"guten": "good", "morgen.": "morning."}},
}

with tempfile.TemporaryDirectory() as tmp:
    script_path = Path(tmp) / "script.json"
    script_path.write_text(json.dumps(script), encoding="utf-8")
    channel = WireChannel.spawn(
        [sys.executable, "-m", "simulstream.wire_server", str(script_path)]
    )
    try:
        asr_request = AsrRequest("demo", 0.0, 1.0, 5)
        print(">>", encode_asr_request(asr_request))
        response = WireAsrBackend(channel).decode(asr_request)
        print("<<", [w.text for w in response.hypothesis.words],
              f"cost {response.compute_cost_s:.3f}s\n")

        mt_request = MtRequest(
            history_source=(("hallo", "welt."),),
            history_target=(("hello", "world."),),
            active_source=("guten", "morgen."),
            committed_target=(),
            beam_size=3,
            attention_layer_tag="6",
        )
        print(">>", encode_mt_request(mt_request))
        response = WireMtBackend(channel).translate(mt_request)
        top = response.beams.beams[0]
        print("<<", list(top.tokens), f"cost {response.compute_cost_s:.3f}s")
        print("\neach history side travels as a list of sentences, each a list")
        print("of words (an empty sentence included); the schema is plain JSON,")
        print("so any language can serve it.")
    finally:
        channel.close()
