from __future__ import annotations

import pytest

from helpers import DEEP_JSON
from simulstream.core import (
    SENTINEL,
    AsrHypothesis,
    BeamHypothesis,
    BeamSet,
    EmissionRecord,
    InvalidArgumentError,
    StreamHistory,
    TimedWord,
    VirtualClock,
    check_emission_log,
    strict_json_loads,
)


def test_clock_starts_together() -> None:
    clock = VirtualClock()
    clock.advance_audio(1.0)
    assert clock.audio_available_s == 1.0
    assert clock.now_s == 1.0


def test_clock_compute_lag_preserved_when_audio_stays_behind() -> None:
    clock = VirtualClock(audio_available_s=2.0, now_s=3.5)
    clock.advance_audio(1.0)
    assert clock.audio_available_s == 3.0
    assert clock.now_s == 3.5


def test_clock_audio_catches_up_past_small_lag() -> None:
    clock = VirtualClock(audio_available_s=2.0, now_s=2.2)
    clock.advance_audio(1.0)
    assert clock.audio_available_s == 3.0
    assert clock.now_s == 3.0


def test_clock_charge_compute() -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    clock.charge_compute(0.3)
    assert clock.audio_available_s == 5.0
    assert clock.now_s == 5.3


def test_clock_charge_zero_is_identity() -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    clock.charge_compute(0.0)
    assert clock.audio_available_s == 5.0
    assert clock.now_s == 5.0


def test_clock_charges_are_additive() -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    clock.charge_compute(0.2)
    clock.charge_compute(0.3)
    assert clock.now_s == pytest.approx(5.5)


def test_clock_rejects_negative_amounts() -> None:
    clock = VirtualClock()
    with pytest.raises(InvalidArgumentError):
        clock.advance_audio(-0.1)
    with pytest.raises(InvalidArgumentError):
        clock.charge_compute(-0.1)


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
def test_clock_rejects_non_finite_compute_cost(cost) -> None:
    clock = VirtualClock(audio_available_s=5.0, now_s=5.0)
    with pytest.raises(InvalidArgumentError):
        clock.charge_compute(cost)
    assert clock.now_s == 5.0


def test_timed_word_validation() -> None:
    TimedWord("ok", 0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("", 0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("two words", 0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("ok", -0.1, 0.5)
    with pytest.raises(InvalidArgumentError):
        TimedWord("ok", 0.6, 0.5)


def test_timed_word_rejects_sentinel() -> None:
    with pytest.raises(InvalidArgumentError):
        TimedWord(SENTINEL, 0.0, 0.5)


def test_asr_hypothesis_requires_ordered_ends() -> None:
    words = (TimedWord("a", 0.0, 1.0), TimedWord("b", 0.5, 0.8))
    with pytest.raises(InvalidArgumentError):
        AsrHypothesis(words, 0.0)


def test_beam_hypothesis_needs_one_cut_per_token() -> None:
    assert BeamHypothesis(["a", "b"], 0.0, [0, 1]).cuts == (0, 1)
    with pytest.raises(InvalidArgumentError, match="2 tokens but 1 cuts"):
        BeamHypothesis(("a", "b"), 0.0, (0,))
    with pytest.raises(InvalidArgumentError, match="1 tokens but 2 cuts"):
        BeamHypothesis(("a",), 0.0, (0, 0))


def test_beam_set_checks() -> None:
    beam = BeamHypothesis(("a",), 0.0, (0,))
    BeamSet((beam,), 2)
    with pytest.raises(InvalidArgumentError):
        BeamSet((beam, beam, beam), 2)
    better = BeamHypothesis(("a",), 1.0, (0,))
    with pytest.raises(InvalidArgumentError):
        BeamSet((beam, better), 2)  # ascending scores


def test_emission_record_requires_nca_before_ca() -> None:
    EmissionRecord("tok", 0, 1.0, 1.5)
    with pytest.raises(InvalidArgumentError):
        EmissionRecord("tok", 0, 2.0, 1.5)


def test_emission_log_monotonicity() -> None:
    log = [EmissionRecord("a", 0, 1.0, 1.5), EmissionRecord("b", 0, 2.0, 2.0)]
    check_emission_log(log)
    bad = [EmissionRecord("a", 0, 2.0, 2.5), EmissionRecord("b", 0, 1.0, 1.5)]
    with pytest.raises(InvalidArgumentError):
        check_emission_log(bad)


def test_stream_history_counts_and_pairing() -> None:
    history = StreamHistory(
        source_sentences=[["a", "b"], ["c"]],
        target_sentences=[["x"], ["y", "z"]],
        active_source=["d", "e"],
        active_target_committed=["w"],
    )
    assert history.history_source_words() == 3
    assert history.buffered_source_words() == 5
    history.check_paired()
    history.target_sentences.pop()
    with pytest.raises(InvalidArgumentError):
        history.check_paired()


def test_strict_json_loads_reports_deep_nesting_as_value_error() -> None:
    assert strict_json_loads("[[1]]") == [[1]]
    with pytest.raises(ValueError, match="nested too deeply"):
        strict_json_loads(DEEP_JSON)
