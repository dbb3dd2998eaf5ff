"""Metamorphic latency relations: how runs under two policy settings relate.

A larger wait-k or a stricter RALCP agreement buys quality with latency.
On prefix-stable (clean) mocks neither changes what is emitted, so one step
up either knob must emit the same tokens, none of them at an earlier NCA
time, and every run must still stream the offline translation. A relation
needs no expected table, so it holds at any length and seed. The noisy
mocks key their draws to the request, so another setting sees other noise:
the relations are stated for prefix-stable MT only, as the equality with
the offline translation is.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from helpers import build_scripts, chunked_trace, offline_translation, synth_sentences
from simulstream.backends import MockAsrBackend, MockMtBackend
from simulstream.core import EmissionRecord
from simulstream.metrics import strip_sentinels
from simulstream.pipeline import PIPELINE_MODES, Pipeline, preset_config

# Each knob's values from the loosest to the strictest.
KNOBS = {
    "wait_k": [1, 2, 3, 4, 5, 6],
    "agreement_ratio": [k / 10 for k in range(1, 11)],
}
SEEDS = range(3)
SENTENCES = 40


def _run(sentences, seed: int, mode: str, knob: str, value) -> list[EmissionRecord]:
    """The emission log of one clean talk; it must stream the offline translation."""
    asr_script, mt_script, duration = build_scripts(sentences, seed=seed)
    config = preset_config(mode)
    config = replace(config, mt=replace(config.mt, **{knob: value}))
    pipeline = Pipeline(config, MockAsrBackend(asr_script), MockMtBackend(mt_script))
    records, _ = pipeline.run_trace(chunked_trace(duration))
    streamed = strip_sentinels(r.token for r in records)
    assert streamed == offline_translation(mt_script, pipeline.asr.transcript()), (
        f"seed {seed} {mode} {knob}={value}: stream diverged from offline"
    )
    return records


@pytest.mark.parametrize("mode", PIPELINE_MODES)
@pytest.mark.parametrize("knob", list(KNOBS))
def test_a_stricter_policy_emits_the_same_tokens_no_earlier(knob, mode) -> None:
    values = KNOBS[knob]
    for seed in SEEDS:
        sentences = synth_sentences(random.Random(seed), SENTENCES)
        runs = [_run(sentences, seed, mode, knob, value) for value in values]
        for looser, stricter, value in zip(runs, runs[1:], values[1:]):
            where = f"seed {seed} {mode} {knob}={value}"
            assert [r.token for r in stricter] == [r.token for r in looser], where
            earlier = [
                i for i, (a, b) in enumerate(zip(looser, stricter)) if b.nca_time_s < a.nca_time_s
            ]
            assert not earlier, f"{where}: tokens {earlier[:5]} emitted earlier"
