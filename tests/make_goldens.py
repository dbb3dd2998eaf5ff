"""Regenerate the committed fixtures under tests/data/.

Run manually (`python tests/make_goldens.py`) after an intentional change
to pipeline behavior, then review the diff before committing. Everything
here is deterministic, so an unchanged engine reproduces identical bytes.
`python tests/make_goldens.py --check` regenerates every fixture in memory,
writes nothing, and exits 1 naming each file under tests/data/ that
differs from its regenerated bytes (or that nothing here generates).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from helpers import synth_sentences, timed_words  # noqa: E402

from simulstream.backends import (  # noqa: E402
    AsrRequest,
    AsrResponse,
    MockAsrBackend,
    MockMtBackend,
    MtRequest,
    MtResponse,
    MtScript,
    parse_mock_script,
)
from simulstream.core import (  # noqa: E402
    SENTINEL,
    AsrHypothesis,
    BeamHypothesis,
    BeamSet,
    TimedWord,
    dump_jsonl,
)
from simulstream.metrics import ReferenceSegment, evaluate  # noqa: E402
from simulstream.pipeline import Pipeline, TraceEvent, preset_config  # noqa: E402
from simulstream.wire import (  # noqa: E402
    encode_asr_request,
    encode_asr_response,
    encode_mt_request,
    encode_mt_response,
)

DATA = HERE / "data"

WORD_MAP = {
    "alpha": "anfang",
    "bravo": "beifall",
    "charlie": "karl",
    "delta": "dreieck",
    "echo": "widerhall",
    "foxtrot": "tanz",
}


def _json_file(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _wire_fixtures() -> dict[str, str]:
    """One request and one reply of each kind, as the README shows them.

    The MT request's oldest history pair has an empty target side, as
    word-count eviction leaves it when a target sentence is the shorter.
    """
    asr_request = AsrRequest(
        stream_id="talk01", window_start_s=2.5, window_end_s=7.25, beam_size=5
    )
    mt_request = MtRequest(
        history_source=(("bellt.",), ("die", "katze", "schläft."), ("es", "regnet.")),
        history_target=((), ("the", "cat", "sleeps."), ("it", "rains.")),
        active_source=("wir", "gehen"),
        committed_target=("we",),
        beam_size=10,
    )
    asr_response = AsrResponse(
        AsrHypothesis((TimedWord("Hello", 2.5, 3.0), TimedWord("world.", 3.1, 3.8))),
        0.147,
    )
    cuts = (0, 1)
    mt_response = MtResponse(
        BeamSet(
            (
                BeamHypothesis(("we", "go"), 0.0, cuts),
                BeamHypothesis(("we", "go"), -1.0, cuts),
            ),
        ),
        0.1 + 0.01 * 2,  # the mock MT's cost for two active words
    )
    return {
        "wire_requests.jsonl": f"{encode_asr_request(asr_request)}\n"
        f"{encode_mt_request(mt_request)}\n",
        "wire_responses.jsonl": f"{encode_asr_response(asr_response)}\n"
        f"{encode_mt_response(mt_response)}\n",
    }


def _edited_log(records: list) -> list:
    """The golden log with about a quarter of its tokens edited.

    Each token is kept, dropped, repeated (which gives the hypothesis
    n-grams its reference has fewer of), or replaced by its lowercase form,
    by itself with a trailing comma, or by another word of the map.
    Sentinels are kept, and a repeat keeps the token's times, so the log
    stays monotone.
    """
    rng = random.Random(60)
    words = sorted(WORD_MAP.values())
    edited = []
    for record in records:
        draw = rng.random()
        if record.token == SENTINEL or draw >= 0.24:
            edited.append(record)
        elif draw < 0.08:
            continue
        elif draw < 0.16:
            edited += [record, record]
        else:
            token = rng.choice([record.token.lower(), record.token + ",", rng.choice(words)])
            edited.append(replace(record, token=token))
    return edited


def build_fixtures() -> dict[str, str]:
    """Every fixture under tests/data/, by file name, as text."""
    rng = random.Random(2025)
    sentences = []
    total_words = 0
    # Leave room for the longest possible sentence before the 60 s mark.
    while (total_words + 9) * 0.3 <= 60.0:
        batch = synth_sentences(rng, 1, min_words=4, max_words=9)[0]
        sentences.append(batch)
        total_words += len(batch)
    words, _ = timed_words(sentences, 0.3)

    script = {
        "seed": 7,
        "asr": {
            "words": [
                {"text": w.text, "start_s": w.start_s, "end_s": w.end_s} for w in words
            ],
            "audio_duration_s": 60.0,
            "stabilization_delay_s": 0.0,
        },
        "mt": {"word_map": WORD_MAP},
    }
    fixtures = {"mock_script_60s.json": _json_file(script)}

    trace = [{"kind": "audio", "dur": 1.0} for _ in range(60)]
    fixtures["trace_60s.jsonl"] = "".join(json.dumps(e) + "\n" for e in trace)

    fixtures["config_adapted.json"] = _json_file(
        {
            "table3": "adapted",
            "seed": 7,
            "mock_script": "mock_script_60s.json",
            "backend": {"kind": "mock"},
        }
    )

    # References: one segment per scripted sentence, tokens as the mock MT
    # translates them, timed by the word timestamps.
    mt_script = MtScript(word_map=WORD_MAP)
    refs = []
    cursor = 0
    for sentence in sentences:
        segment_words = words[cursor : cursor + len(sentence)]
        cursor += len(sentence)
        refs.append(
            ReferenceSegment(
                tokens=tuple(mt_script.map_word(w.text) for w in segment_words),
                source_start_s=segment_words[0].start_s,
                source_end_s=segment_words[-1].end_s,
            )
        )
    fixtures["refs_60s.jsonl"] = dump_jsonl(refs)

    # The golden run goes through the same JSON the CLI would read.
    scripts = parse_mock_script(json.loads(fixtures["mock_script_60s.json"]))
    pipeline = Pipeline(
        preset_config("adapted"),
        MockAsrBackend(scripts.asr),
        MockMtBackend(scripts.mt),
    )
    events = [TraceEvent(e["dur"]) for e in trace]
    records, summary = pipeline.run_trace(events)
    fixtures["golden_log_60s.jsonl"] = dump_jsonl(records)
    fixtures["golden_summary_60s.json"] = _json_file(summary.to_dict())
    # Every segment of the golden log equals its reference (BLEU 100), so
    # the scorer is pinned on an edited copy whose segments mostly differ.
    fixtures["golden_eval_60s.json"] = _json_file(evaluate(_edited_log(records), refs))

    fixtures.update(_wire_fixtures())
    return fixtures


def stale_fixtures(fixtures: dict[str, str], data: Path = DATA) -> list[str]:
    """Files under ``data`` that differ from ``fixtures`` or exist on one side only."""
    names = set(fixtures) | {p.name for p in data.iterdir() if p.is_file()}
    return sorted(
        name
        for name in names
        if name not in fixtures
        or not (data / name).is_file()
        or (data / name).read_bytes() != fixtures[name].encode("utf-8")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if any fixture differs from its regenerated bytes",
    )
    args = parser.parse_args(argv)
    fixtures = build_fixtures()
    if args.check:
        stale = stale_fixtures(fixtures)
        if stale:
            print(f"fixtures differ: {' '.join(stale)}", file=sys.stderr)
            return 1
        print(f"all {len(fixtures)} fixtures reproduce byte for byte")
        return 0
    for name, text in fixtures.items():
        (DATA / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(fixtures)} fixtures: {json.loads(fixtures['golden_summary_60s.json'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
