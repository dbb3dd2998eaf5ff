from __future__ import annotations

import math
import random
from dataclasses import replace
from functools import partial
from itertools import chain
from types import SimpleNamespace

import pytest

from helpers import make_beam, oracle_validated, segment_source
from simulstream.backends import MockMtBackend, MtRequest, MtResponse, MtScript
from simulstream.core import (
    SENTINEL,
    BackendError,
    BeamHypothesis,
    BeamSet,
    InvalidArgumentError,
    ProtocolError,
    VirtualClock,
)
from simulstream.mt_stream import MtStreamConfig, MtStreamController


def _controller(backend=None, **config_kwargs) -> MtStreamController:
    backend = backend if backend is not None else MockMtBackend(MtScript())
    config = MtStreamConfig(**config_kwargs)
    return MtStreamController(config, backend, VirtualClock())


def test_segment_source_examples() -> None:
    assert segment_source([0.0, 0.0, 1.0, 0.0]) == 2
    assert segment_source([0.25, 0.25, 0.25, 0.25]) == 3  # tie takes the largest
    assert segment_source([0.1, 0.7, 0.2]) == 1
    with pytest.raises(InvalidArgumentError):
        segment_source([])
    with pytest.raises(InvalidArgumentError):
        segment_source([0.5, -0.1])


def test_full_sentence_closes_one_segment() -> None:
    controller = _controller(wait_k=3)
    records = controller.step(["der", "hund", "lief", "nach", "hause."])
    tokens = [r.token for r in records]
    assert tokens == ["DER", "HUND", "LIEF", "NACH", "HAUSE.", SENTINEL]
    assert controller.history.history_source == (
        ("der", "hund", "lief", "nach", "hause."),
    )
    assert controller.history.history_target == (
        ("DER", "HUND", "LIEF", "NACH", "HAUSE."),
    )
    assert controller.history.active_source == ()
    assert controller.segment_ordinal == 1


def test_one_step_closes_every_ready_segment() -> None:
    controller = _controller(wait_k=3)
    records = controller.step(["eins", "zwei", "drei.", "vier", "fünf", "sechs."])
    assert [r.token for r in records] == [
        "EINS", "ZWEI", "DREI.", SENTINEL, "VIER", "FÜNF", "SECHS.", SENTINEL
    ]
    assert controller.segment_ordinal == 2
    assert controller.translate_calls == 2
    assert controller.history.active_source == ()


def test_drain_stops_at_the_waitk_gate_and_charges_each_call() -> None:
    clock = VirtualClock()
    backend = MockMtBackend(MtScript(cost_base_s=0.5, cost_per_word_s=0.0))
    controller = MtStreamController(MtStreamConfig(wait_k=3), backend, clock)
    records = controller.step(["eins", "zwei.", "drei", "vier.", "fünf", "sechs"])
    # Once "vier." closes the second segment, the third has read only two
    # words, so wait-k holds "fünf sechs" for a later step.
    assert [r.token for r in records] == [
        "EINS", "ZWEI.", SENTINEL, "DREI", "VIER.", SENTINEL
    ]
    assert controller.translate_calls == 2
    assert controller.history.active_source == ("fünf", "sechs")
    assert [r.ca_time_s for r in records] == [0.5] * 3 + [1.0] * 3
    assert clock.now_s == 1.0


def test_backend_failure_on_first_call_leaves_step_retryable() -> None:
    class FailOnce:
        def __init__(self) -> None:
            self.inner = MockMtBackend(MtScript())
            self.failed = False

        def translate(self, request: MtRequest) -> MtResponse:
            if not self.failed:
                self.failed = True
                raise BackendError("unavailable")
            return self.inner.translate(request)

    controller = _controller(FailOnce(), wait_k=3)
    words = ["eins", "zwei", "drei."]
    with pytest.raises(BackendError):
        controller.step(words)
    assert controller.history.active_source == ()
    records = controller.step(words)
    assert [r.token for r in records] == ["EINS", "ZWEI", "DREI.", SENTINEL]


class _FailsOnCall:
    """The clean mock MT, except that call ``n`` raises a ``BackendError``
    or answers with beam 0's cuts past the active source."""

    def __init__(self, n: int, fault: str) -> None:
        self.inner = MockMtBackend(MtScript())
        self.n, self.fault, self.calls = n, fault, 0

    def translate(self, request: MtRequest) -> MtResponse:
        self.calls += 1
        response = self.inner.translate(request)
        if self.calls != self.n:
            return response
        if self.fault == "backend_error":
            raise BackendError("unavailable")
        first, *rest = response.beams.beams
        past = tuple(c + len(request.active_source) for c in first.cuts)
        return replace(response, beams=BeamSet((replace(first, cuts=past), *rest)))


@pytest.mark.parametrize("fault", ["backend_error", "bad_cut"])
@pytest.mark.parametrize("call", ["step", "flush"])
def test_a_failure_on_a_later_call_rolls_the_whole_call_back(call, fault) -> None:
    # wait-k 2 lets the step drain both sentences; wait-k 5 holds them for
    # the flush. Either way the call's first translation closes a segment
    # and its second fails.
    wait_k = 2 if call == "step" else 5
    words = ["eins", "zwei.", "drei", "vier."]
    flaky = _FailsOnCall(3, fault)
    controller = _controller(flaky, wait_k=wait_k)
    healthy = _controller(wait_k=wait_k)
    for c in (controller, healthy):
        c.clock.advance_audio(1.0)
        assert len(c.step(["null"] * (wait_k - 1) + ["null."])) == wait_k + 1
        c.clock.advance_audio(1.0)
        if call == "flush":
            assert c.step(words) == []

    def run(c: MtStreamController):
        return c.step(words) if call == "step" else c.flush()

    before = controller.history
    with pytest.raises(BackendError if fault == "backend_error" else ProtocolError):
        run(controller)
    assert flaky.calls == 3
    assert controller.history is before
    assert controller.segment_ordinal == 1
    # The counters keep the work done: a refused reply was still a call.
    assert controller.translate_calls == (2 if fault == "backend_error" else 3)
    controller.backend = MockMtBackend(MtScript())
    retried, expected = run(controller), run(healthy)
    assert [(r.token, r.nca_time_s) for r in retried] == [
        (r.token, r.nca_time_s) for r in expected
    ]
    assert [r.token for r in expected].count(SENTINEL) == 2
    assert controller.history == healthy.history
    assert controller.segment_ordinal == healthy.segment_ordinal == 3


def test_waitk_gate_holds_short_input() -> None:
    controller = _controller(wait_k=3)
    assert controller.step(["nur", "zwei"]) == []
    assert controller.translate_calls == 0
    # the third word opens the gate
    records = controller.step(["drei."])
    assert [r.token for r in records] == ["NUR", "ZWEI", "DREI.", SENTINEL]


def test_waitk_gate_restarts_after_closure() -> None:
    controller = _controller(wait_k=3)
    controller.step(["eins", "zwei", "drei."])
    assert controller.segment_ordinal == 1
    # New segment: a single word stays gated even though the stream is warm.
    assert controller.step(["vier"]) == []
    assert controller.translate_calls == 1


def test_empty_step_is_a_noop() -> None:
    controller = _controller()
    assert controller.step([]) == []
    assert controller.translate_calls == 0


def test_step_rejects_bad_words() -> None:
    controller = _controller()
    with pytest.raises(InvalidArgumentError):
        controller.step(["ok", SENTINEL])
    with pytest.raises(InvalidArgumentError):
        controller.step(["two words"])


def test_emission_is_append_only_across_steps() -> None:
    rng = random.Random(71)
    backend = MockMtBackend(MtScript(tail_truncate_max=2, tail_perturb_prob=0.4, seed=7))
    controller = MtStreamController(
        MtStreamConfig(agreement_ratio=0.5, beam_size=10),
        backend,
        VirtualClock(),
    )
    emitted: list[str] = []
    vocab = ["eins", "zwei", "drei", "vier", "fünf"]
    for i in range(30):
        word = rng.choice(vocab) + ("." if rng.random() < 0.25 else "")
        records = controller.step([word])
        for r in records:
            emitted.append(r.token)
        # Committed target of the open segment always extends what we saw.
        segment = controller.history.committed_target
        if segment:
            assert tuple(emitted[-len(segment) :]) == segment


def _with_history(controller, source, target, active) -> None:
    """Set the controller's history sides and active source."""
    config = controller.config
    controller.history = MtRequest(
        source, target, active, (), config.beam_size, config.attention_layer_tag
    )


def test_eviction_adapted_drops_oldest_pair() -> None:
    controller = _controller(max_buffer_words=80)
    # 90 buffered in total
    _with_history(controller, (("w",) * 15, ("w",) * 10), (("t",) * 15, ("t",) * 10), ("w",) * 65)
    controller._evict()
    history = controller.history
    assert history.history_source == (("w",) * 10,)
    assert history.buffered_source_words() == 75
    assert controller.evictions == 1
    assert len(history.history_source) == len(history.history_target)


def test_eviction_baseline_drops_words_from_both_sides() -> None:
    controller = _controller(
        max_buffer_words=80, history_remove="word_count", history_remove_words=20
    )
    _with_history(controller, (("s",) * 15, ("s",) * 10), (("t",) * 12, ("t",) * 9), ("w",) * 65)
    controller._evict()
    history = controller.history
    # 90 source words -> one pass removes 20 from each side's history
    assert history.history_source_words() == 5
    assert sum(len(s) for s in history.history_target) == 1
    assert len(history.history_source) == len(history.history_target)
    assert history.buffered_source_words() == 70


def test_eviction_stops_when_only_active_remains() -> None:
    controller = _controller(max_buffer_words=10)
    _with_history(controller, (), (), ("w",) * 25)
    controller._evict()  # nothing evictable; must not spin forever
    assert controller.history.buffered_source_words() == 25
    assert controller.budget_overflows == 1
    assert controller.max_buffered_words == 25
    _with_history(controller, (), (), ("w",) * 5)
    controller._evict()
    assert controller.budget_overflows == 1
    assert controller.max_buffered_words == 25


def test_a_step_that_wait_k_holds_evicts_before_the_next_request() -> None:
    class Recording(MockMtBackend):
        def translate(self, request: MtRequest) -> MtResponse:
            requests.append(request)
            return super().translate(request)

    requests: list[MtRequest] = []
    controller = _controller(Recording(MtScript()), max_buffer_words=10, wait_k=3)
    controller.step(["a", "b", "c", "d", "e", "f", "g", "h", "i."])
    assert controller.history.buffered_source_words() == 9
    controller.step(["j", "k"])  # wait-k holds: no request, but 11 words are buffered
    assert controller.history.buffered_source_words() == 2
    requests.clear()
    controller.step(["l"])
    assert [r.buffered_source_words() for r in requests] == [3]


def test_a_run_on_sentence_counts_one_overflow_per_step_over_budget() -> None:
    controller = _controller(max_buffer_words=10, wait_k=3)
    for i in range(15):
        controller.step([f"w{i}"])
    # No segment closes, so only the steps that bring the open segment to
    # 11..15 words end over budget; a commit that closes nothing evicts nothing.
    assert controller.history.buffered_source_words() == 15
    assert controller.budget_overflows == 5
    assert controller.max_buffered_words == 15


@pytest.mark.parametrize("bad", ["minus_one", "active_len"])
def test_out_of_range_cut_is_a_protocol_error(bad) -> None:
    class BadBackend:
        def translate(self, request: MtRequest) -> MtResponse:
            cut = -1 if bad == "minus_one" else len(request.active_source)
            beam = BeamHypothesis(("X", "Y"), 0.0, (0, cut))
            return MtResponse(BeamSet((beam,)), 0.0)

    controller = _controller(BadBackend(), wait_k=1)
    with pytest.raises(ProtocolError, match=r"cut outside the 2 active source words"):
        controller.step(["a", "b"])
    assert controller.history.committed_target == ()


def test_sentinel_opening_a_segment_closes_an_empty_target() -> None:
    class SentinelFirst:
        def translate(self, request: MtRequest) -> MtResponse:
            return MtResponse(BeamSet((BeamHypothesis((SENTINEL,), 0.0, (0,)),)), 0.0)

    controller = _controller(SentinelFirst(), beam_size=1, wait_k=1)
    records = controller.step(["a", "b"])
    assert [r.token for r in records] == [SENTINEL, SENTINEL]
    assert controller.segment_ordinal == 2
    history = controller.history
    assert history.history_source == (("a",), ("b",))
    assert history.history_target == ((), ())
    assert history.active_source == () and history.committed_target == ()


def test_beams_rewriting_committed_prefix_are_dropped() -> None:
    class Rewriter:
        def translate(self, request: MtRequest) -> MtResponse:
            good = make_beam(
                (*request.committed_target, "NEXT"),
                score=0.0,
                src_len=len(request.active_source),
            )
            bad = make_beam(
                ("ROGUE",) * (len(request.committed_target) + 1),
                score=-1.0,
                src_len=len(request.active_source),
            )
            return MtResponse(BeamSet((good, bad)), 0.0)

    controller = _controller(
        Rewriter(), agreement_ratio=0.5, beam_size=2, wait_k=1
    )
    controller.step(["a"])
    assert controller.history.committed_target == ("NEXT",)
    records = controller.step(["b"])
    assert controller.dropped_beams >= 1
    assert all(r.token != "ROGUE" for r in records)


def _checked(check, beams: BeamSet, request: MtRequest, counters):
    """What a reply check returns or the error it raises, and the beams it
    counted as dropped."""
    try:
        return check(beams, request), None, counters.dropped_beams
    except ProtocolError as exc:
        return None, str(exc), counters.dropped_beams


def _random_reply(rng: random.Random) -> tuple[BeamSet, MtRequest]:
    """A request and a reply whose beams may rewrite the committed target,
    stop inside it, cut outside the active source, hold a cut that is not an
    int, or outnumber the beam size.

    The beams' cuts are their own, or prefixes of one list of cuts: shared
    by identity where two beams are as long (as the mock MT builds them),
    or equal by value only (as the wire decodes them). A bad cut is put
    into one beam's own copy, so an equal tuple of another beam can hide
    it from a check by value (``(1,) == (1.0,)``).
    """
    active = tuple(f"w{i}" for i in range(rng.randint(0, 4)))
    committed = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
    beam_size = rng.randint(1, 6)
    request = MtRequest((), (), active, committed, beam_size, "6")
    sharing = rng.choice(["own", "identity", "value"])
    shared_cuts = [rng.randrange(len(active)) if active else 0 for _ in range(len(committed) + 3)]
    by_length: dict[int, tuple] = {}
    beams = []
    for b in range(rng.randint(0, beam_size + (rng.random() < 0.05))):
        tokens = list(committed) + [rng.choice("abc") for _ in range(rng.randint(0, 3))]
        if committed and rng.random() < 0.3:
            tokens[rng.randrange(len(committed))] = "x"
        del tokens[rng.randint(0, len(tokens)) if rng.random() < 0.2 else len(tokens) :]
        if sharing == "own":
            cuts = tuple(rng.randrange(len(active)) if active else 0 for _ in tokens)
        elif sharing == "identity":
            cuts = by_length.setdefault(len(tokens), tuple(shared_cuts[: len(tokens)]))
        else:
            cuts = tuple(list(shared_cuts[: len(tokens)]))
        if cuts and rng.random() < 0.1:
            bad = list(cuts)
            j = rng.randrange(len(bad))
            bad[j] = rng.choice(
                [-1, len(active), float(bad[j]), bad[j] + 0.5, math.nan, bool(bad[j] % 2)]
            )
            cuts = tuple(bad)
        beams.append(BeamHypothesis(tuple(tokens), float(-b), cuts))
    return BeamSet(tuple(beams)), request


def test_reply_checks_match_the_walk_oracle() -> None:
    rng = random.Random(67)
    seen = {
        "kept all": 0,
        "dropped": 0,
        "refused": 0,
        "dropped then refused": 0,
        "not an int": 0,
        "not an int, hidden by value": 0,
    }
    for _ in range(6000):
        beams, request = _random_reply(rng)
        controller = _controller()
        got = _checked(controller._validated, beams, request, controller)
        counters = SimpleNamespace(dropped_beams=0)
        expected = _checked(partial(oracle_validated, counters), beams, request, counters)
        assert got == expected
        kept, error, dropped = got
        assert (kept is beams) == (expected[0] is beams)
        seen["kept all"] += kept is beams
        seen["dropped"] += kept is not None and kept is not beams
        seen["refused"] += error is not None
        seen["dropped then refused"] += error is not None and dropped > 0
        if error is not None and "not an integer" in error:
            seen["not an int"] += 1
            # Refused although the distinct tuples by value hold only ints.
            distinct = set(beam.cuts for beam in beams.beams)
            seen["not an int, hidden by value"] += set(map(type, chain(*distinct))) <= {int}
    assert min(seen.values()) >= 20, seen


def test_a_refused_reply_counts_the_rewriting_beams_before_the_bad_cut() -> None:
    request = MtRequest((), (), ("a", "b"), ("A",), 4, "6")
    beams = BeamSet(
        (
            BeamHypothesis(("A", "B"), 0.0, (0, 1)),
            BeamHypothesis(("X", "B"), -1.0, (0, 1)),  # rewrites "A"
            BeamHypothesis(("A", "C"), -2.0, (0, 2)),  # cuts past the source
            BeamHypothesis(("Y", "C"), -3.0, (0, 1)),  # rewrites, but after
        )
    )
    controller = _controller(beam_size=4)
    with pytest.raises(
        ProtocolError, match=r"^beam 2 has a cut outside the 2 active source words: \[0, 2\]$"
    ):
        controller._validated(beams, request)
    assert controller.dropped_beams == 1


class _CutsBackend:
    """Two beams translating two words, with the cuts of each beam given:
    beam 0's tuple is shared with beam 1 unless beam 1's is given."""

    def __init__(self, cuts0: tuple, cuts1: tuple | None = None) -> None:
        self.cuts0, self.cuts1 = cuts0, cuts0 if cuts1 is None else cuts1

    def translate(self, request: MtRequest) -> MtResponse:
        tokens = ("A", "B.", SENTINEL)
        beams = (
            BeamHypothesis(tokens, 0.0, self.cuts0),
            BeamHypothesis(tokens, -1.0, self.cuts1),
        )
        return MtResponse(BeamSet(beams), 0.0)


@pytest.mark.parametrize(
    "cuts0, cuts1, bad_beam",
    [
        ((0, 1.0, 1), None, 0),  # closing the segment would slice by a float
        ((0, 1, 1), (0, 1.0, 1), 1),  # equal in value to beam 0's cuts
        ((0, 1, 1.5), None, 0),
        ((0, math.nan, 1), None, 0),
        ((0, 1, 1), (0, math.nan, 1), 1),  # only a later beam holds the NaN
        ((0, True, 1), None, 0),
        ((0, 1, 1), (0, 1, "1"), 1),
        ((0, 1, 1), (0, 1, [1]), 1),  # unhashable
    ],
)
def test_a_cut_that_is_not_an_int_is_refused_naming_its_beam(cuts0, cuts1, bad_beam) -> None:
    controller = _controller(_CutsBackend(cuts0, cuts1), beam_size=2, wait_k=1)
    bad = cuts0 if cuts1 is None else cuts1
    message = f"beam {bad_beam} has a cut that is not an integer: {list(bad)}"
    with pytest.raises(ProtocolError) as caught:
        controller.step(["a", "b."])
    assert str(caught.value) == message
    assert controller.history.active_source == () and controller.segment_ordinal == 0


def test_int_cuts_shared_by_identity_or_by_value_close_the_segment() -> None:
    for cuts1 in (None, (0, 1, 1)):
        controller = _controller(_CutsBackend((0, 1, 1), cuts1), beam_size=2, wait_k=1)
        assert [r.token for r in controller.step(["a", "b."])] == ["A", "B.", SENTINEL]
        assert controller.history.history_source == (("a", "b."),)


def test_flush_translates_leftovers_without_waitk() -> None:
    controller = _controller(wait_k=5)
    assert controller.step(["nur", "zwei."]) == []
    records = controller.flush()
    assert [r.token for r in records] == ["NUR", "ZWEI.", SENTINEL]
    assert controller.history.active_source == ()


def test_records_carry_clock_times() -> None:
    backend = MockMtBackend(MtScript(cost_base_s=0.5, cost_per_word_s=0.0))
    clock = VirtualClock()
    clock.advance_audio(4.0)
    controller = MtStreamController(MtStreamConfig(), backend, clock)
    records = controller.step(["a", "b", "c."])
    assert records
    for r in records:
        assert r.nca_time_s == 4.0
        assert r.ca_time_s == pytest.approx(4.5)


def test_config_validation() -> None:
    with pytest.raises(InvalidArgumentError):
        MtStreamConfig(max_buffer_words=0)
    with pytest.raises(InvalidArgumentError):
        MtStreamConfig(history_remove="nonsense")
