"""Seeded synthetic talks for the benchmark workloads.

A talk is a list of sentences of 3 to 8 words drawn from a 26-word
vocabulary, spoken at 0.3 s per word. The last word of each sentence ends
with a period. The mock MT translates word by word through a seeded word
map, so the benchmark knows the exact translation of every talk without
asking the program.

Run this file to write one workload's inputs as the files
``simulstream simulate`` and ``simulstream eval`` read::

    python3 perfbench/gen.py --workload talks_short --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

VOCAB = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu"
).split()
WORD_DURATION_S = 0.3
CHUNK_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    talks: int
    sentences: int
    mode: str  # the preset: "adapted" or "baseline"
    backend: str  # "mock" (in-process) or "wire" (child process on stdio)
    stabilization_delay_s: float = 0.0
    tail_truncate_max: int = 0
    tail_perturb_prob: float = 0.0
    attention_blur: float = 0.0
    # The noisy talks hit two known faults that fail operations. The number
    # of failures depends on the talk, so these inputs do not depend on the
    # seed: every run then fails the same share of its operations.
    fixed_inputs: bool = False
    # Sentence lengths drawn from the talk's index rather than the seed, so
    # every seed gives a round the same MT load; the seed still draws the
    # words, the word map and the mock seeds.
    fixed_shapes: bool = False

    @property
    def clean(self) -> bool:
        return (
            self.stabilization_delay_s == 0
            and self.tail_truncate_max == 0
            and self.tail_perturb_prob == 0
        )


# The clean talk lengths keep the MT active chunk far below the 80-word
# budget on every seed (at most 40-odd words at 24 sentences in the adapted
# mode and 32 sentences in the baseline mode, over 500 seeds each); the
# backlog that grows with talk length is left to talks_long_noisy.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("talks_short", talks=30, sentences=24, mode="adapted", backend="mock"),
        Workload(
            "talks_long_noisy",
            talks=1,
            sentences=200,
            mode="adapted",
            backend="mock",
            stabilization_delay_s=0.6,
            tail_truncate_max=2,
            tail_perturb_prob=0.3,
            attention_blur=0.1,
            fixed_inputs=True,
        ),
        Workload(
            "wire_talk",
            talks=8,
            sentences=32,
            mode="baseline",
            backend="wire",
            attention_blur=0.1,
            fixed_shapes=True,
        ),
    )
}


@dataclass(frozen=True)
class Talk:
    index: int
    script_seed: int
    sentences: tuple[tuple[str, ...], ...]
    # (text, start_s, end_s) per spoken word, in order.
    words: tuple[tuple[str, float, float], ...]
    duration_s: float
    word_map: dict[str, str]

    def translate(self, word: str) -> str:
        """The mock MT's rule: mapped words translate, others are uppercased."""
        return self.word_map.get(word, word.upper())

    def references(self) -> list[dict]:
        refs = []
        i = 0
        for sentence in self.sentences:
            first, last = self.words[i], self.words[i + len(sentence) - 1]
            i += len(sentence)
            refs.append(
                {
                    "tokens": [self.translate(w) for w in sentence],
                    "source_start_s": first[1],
                    "source_end_s": last[2],
                }
            )
        return refs

    def chunks(self) -> list[float]:
        """Audio chunk durations: 1 s each, the last one shorter."""
        out = []
        t = 0.0
        while t < self.duration_s:
            step = min(CHUNK_S, self.duration_s - t)
            t += step
            out.append(step)
        return out


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnoprstuvz") for _ in range(rng.randint(3, 8)))


def _sentence_lengths(count: int, rng: random.Random) -> list[int]:
    """Lengths 3 to 8 in equal shares, in a seeded order.

    Every talk of a workload then has the same length, which keeps the
    work of a round close from seed to seed; the order still varies.
    """
    lengths = [3 + i % 6 for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def make_talks(workload: Workload, seed: int) -> list[Talk]:
    key = "fixed" if workload.fixed_inputs else str(seed)
    rng = random.Random(f"perfbench:{workload.name}:{key}")
    word_map = {}
    for word in VOCAB:
        target = _pseudo_word(rng)
        word_map[word] = target
        word_map[word + "."] = target + "."
    talks = []
    for index in range(workload.talks):
        sentences = []
        shape_rng = (
            random.Random(f"perfbench:{workload.name}:shape:{index}")
            if workload.fixed_shapes
            else rng
        )
        for length in _sentence_lengths(workload.sentences, shape_rng):
            words = [rng.choice(VOCAB) for _ in range(length)]
            words[-1] += "."
            sentences.append(tuple(words))
        timed = []
        t = 0.0
        for sentence in sentences:
            for text in sentence:
                timed.append((text, t, t + WORD_DURATION_S))
                t += WORD_DURATION_S
        talks.append(
            Talk(
                index=index,
                script_seed=rng.randrange(2**31),
                sentences=tuple(sentences),
                words=tuple(timed),
                duration_s=t,
                word_map=word_map,
            )
        )
    return talks


@dataclass(frozen=True)
class TalkFiles:
    config: Path
    script: Path
    trace: Path
    refs: Path


def write_talk(workload: Workload, talk: Talk, directory: Path, python: str) -> TalkFiles:
    """Write the config, mock script, trace and references of one talk."""
    stem = f"talk{talk.index:02d}"
    files = TalkFiles(
        config=directory / f"{stem}.config.json",
        script=directory / f"{stem}.script.json",
        trace=directory / f"{stem}.trace.jsonl",
        refs=directory / f"{stem}.refs.jsonl",
    )
    script = {
        "seed": talk.script_seed,
        "asr": {
            "words": [{"text": w, "start_s": s, "end_s": e} for w, s, e in talk.words],
            "audio_duration_s": talk.duration_s,
            "stabilization_delay_s": workload.stabilization_delay_s,
        },
        "mt": {
            "word_map": talk.word_map,
            "tail_truncate_max": workload.tail_truncate_max,
            "tail_perturb_prob": workload.tail_perturb_prob,
            "attention_blur": workload.attention_blur,
        },
    }
    files.script.write_text(json.dumps(script), encoding="utf-8")
    if workload.backend == "wire":
        backend = {
            "kind": "wire",
            "command": [python, "-m", "simulstream.wire_server", str(files.script.resolve())],
            "timeout_s": 60,
        }
    else:
        backend = {"kind": "mock"}
    config = {"table3": workload.mode, "mock_script": files.script.name, "backend": backend}
    files.config.write_text(json.dumps(config), encoding="utf-8")
    lines = []
    t = 0.0
    for dur in talk.chunks():
        t += dur
        lines.append(json.dumps({"t": t, "kind": "audio", "dur": dur}))
    files.trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    files.refs.write_text(
        "".join(json.dumps(r) + "\n" for r in talk.references()), encoding="utf-8"
    )
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs to")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for talk in make_talks(workload, args.seed):
        write_talk(workload, talk, out, "python3")
    print(f"wrote {workload.talks} talks to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
