"""Metamorphic latency relations: how runs under two settings relate.

A larger wait-k or a stricter RALCP agreement buys quality with latency.
On prefix-stable (clean) mocks neither changes what is emitted, so one step
up either knob must emit the same tokens, none of them at an earlier NCA
time, and every run must still stream the offline translation. The same
holds for the run's surroundings: larger audio chunks make no NCA time
earlier, and a higher MT cost rate makes no CA time earlier. A relation
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
CHUNKS_S = [0.25, 0.5, 1.0, 2.0, 4.0]
MT_COSTS_PER_WORD_S = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1]
SEEDS = range(6)
SENTENCES = 40


def _run(
    sentences, seed: int, mode: str, chunk_s: float = 1.0, mt_cost_per_word_s: float = 0.01,
    **mt,
) -> list[EmissionRecord]:
    """The emission log of one clean talk; it must stream the offline translation."""
    asr_script, mt_script, duration = build_scripts(
        sentences, seed=seed, mt_cost=(0.1, mt_cost_per_word_s)
    )
    config = preset_config(mode)
    config = replace(config, mt=replace(config.mt, **mt))
    pipeline = Pipeline(config, MockAsrBackend(asr_script), MockMtBackend(mt_script))
    records, _ = pipeline.run_trace(chunked_trace(duration, chunk_s))
    streamed = strip_sentinels(r.token for r in records)
    assert streamed == offline_translation(mt_script, pipeline.asr.transcript()), (
        f"seed {seed} {mode} chunk {chunk_s} s, MT {mt_cost_per_word_s} s/word, {mt}: "
        "stream diverged from offline"
    )
    return records


def _check_no_earlier(mode: str, setting: str, values, clock: str, **fixed) -> None:
    """Runs at adjacent ``values`` of ``setting`` emit the same tokens, and
    the later value makes no token's ``clock`` time earlier."""
    for seed in SEEDS:
        sentences = synth_sentences(random.Random(seed), SENTENCES)
        runs = [_run(sentences, seed, mode, **fixed, **{setting: v}) for v in values]
        for looser, stricter, value in zip(runs, runs[1:], values[1:]):
            where = f"seed {seed} {mode} {setting}={value}"
            assert [r.token for r in stricter] == [r.token for r in looser], where
            earlier = [
                i
                for i, (a, b) in enumerate(zip(looser, stricter))
                if getattr(b, clock) < getattr(a, clock)
            ]
            assert not earlier, f"{where}: tokens {earlier[:5]} emitted earlier"


@pytest.mark.parametrize("mode", PIPELINE_MODES)
@pytest.mark.parametrize("knob", list(KNOBS))
def test_a_stricter_policy_emits_the_same_tokens_no_earlier(knob, mode) -> None:
    _check_no_earlier(mode, knob, KNOBS[knob], "nca_time_s")


@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_larger_chunks_emit_the_same_tokens_no_earlier(mode) -> None:
    _check_no_earlier(mode, "chunk_s", CHUNKS_S, "nca_time_s")


@pytest.mark.parametrize("mode", PIPELINE_MODES)
def test_a_costlier_mt_emits_the_same_tokens_no_earlier_on_the_compute_clock(mode) -> None:
    _check_no_earlier(mode, "mt_cost_per_word_s", MT_COSTS_PER_WORD_S, "ca_time_s")
