"""Rounds of one workload: simulate, evaluate, check and measure each talk.

A round streams every talk of the workload once. Every run repeats whole
rounds of the same talks, so the share of failed operations is the same
in every run however many rounds fit in it.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from simulstream import metrics

import checks
from gen import Talk, TalkFiles, Workload
from hostspeed import probe, probes, scaled
from talk_setup import open_talk
from tracing import Tracer

# The faults known to fail operations today, by the reason an operation
# gives. Both show only on talks_long_noisy.
KNOWN_FAULTS = {
    ("step", "MT buffer over 80 words"): "mt_backlog",
    ("finalize", "streamed tokens differ from the translation of the transcript"): "noisy_flush",
}
NOISY_WORKLOAD = "talks_long_noisy"
# An evaluate reads and scores the log this many times: the noisy talk's
# one evaluate a round takes a third of a second, long enough for the
# host's speed to change under it.
EVAL_REPEATS = 5


@dataclass
class Times:
    """Host seconds of one talk's operations."""

    step_s: list[float] = field(default_factory=list)
    finish_s: float = 0.0  # finalize plus writing the log
    eval_s: list[float] = field(default_factory=list)  # one per repetition


@dataclass
class TalkRun:
    audio_s: float
    setup_s: float = 0.0
    spawn_s: float = 0.0
    scaled: Times = field(default_factory=Times)  # at the reference host speed
    raw: Times = field(default_factory=Times)
    probe_s: list[float] = field(default_factory=list)  # one before each step, one after the last
    log: bytes = b""
    report: dict | None = None
    eval_failure: str | None = None
    # Failed operations: (kind, reason).
    failures: list[tuple[str, str]] = field(default_factory=list)
    attempted: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)


def _step_problem(pipeline, before: int, last, committed: int, emitted) -> str | None:
    reasons = []
    records = pipeline.records
    if len(records) != before + len(emitted) or (before and records[before - 1] is not last):
        reasons.append("retracted output")
    if len(pipeline.asr.state.committed) < committed:
        reasons.append("retracted transcript")
    if pipeline.asr.window_length_s > checks.ASR_WINDOW_MAX_S:
        reasons.append("ASR window over 30 s")
    if pipeline.mt.history.buffered_source_words() > checks.MT_BUFFER_MAX_WORDS:
        reasons.append("MT buffer over 80 words")
    return "; ".join(reasons) or None


def run_talk(
    workload: Workload,
    talk: Talk,
    files: TalkFiles,
    log_path: Path,
    first: TalkRun | None,
    tracer: Tracer | None,
) -> TalkRun:
    """Stream one talk, write and score its log, and check every operation.

    ``first`` is this talk's run from the first round: later rounds must
    replay it byte for byte. Without it the full output checks run. A
    host-speed probe runs between consecutive steps.
    """
    run = TalkRun(audio_s=talk.duration_s)
    started = perf_counter()
    opened = open_talk(files.config, files.trace)
    run.setup_s = perf_counter() - started
    run.spawn_s = opened.spawn_s
    pipeline = opened.pipeline
    raw, probe_s = run.raw, run.probe_s
    if tracer:
        tracer.talk = talk.index
        tracer.install()
    try:
        kind = "step"
        streamed = []
        try:
            probe_s.append(probe())
            for event in opened.events:
                records = pipeline.records
                before, committed = len(records), len(pipeline.asr.state.committed)
                last = records[-1] if records else None
                run.attempted["step"] += 1
                started = perf_counter()
                emitted = pipeline.feed_audio(event.duration_s)
                raw.step_s.append(perf_counter() - started)
                probe_s.append(probe())
                run.scaled.step_s.append(scaled(raw.step_s[-1], probe_s[-2], probe_s[-1]))
                streamed += emitted
                problem = _step_problem(pipeline, before, last, committed, emitted)
                if problem:
                    run.failures.append(("step", problem))
            kind = "finalize"
            run.attempted["finalize"] += 1
            started = perf_counter()
            streamed += pipeline.finalize()
            raw.finish_s = perf_counter() - started
        except Exception as exc:  # a raising operation fails and ends the talk
            run.failures.append((kind, f"raised {exc!r}"))
            return run
        finally:
            opened.close()
        transcript = pipeline.asr.transcript()
        tokens = [r.token for r in streamed if r.token != checks.SENTINEL]
        if tokens != [talk.translate(w) for w in transcript]:
            run.failures.append(
                ("finalize", "streamed tokens differ from the translation of the transcript")
            )
        started = perf_counter()
        metrics.write_emission_log(pipeline.records, log_path)
        raw.finish_s += perf_counter() - started
        run.scaled.finish_s = scaled(raw.finish_s, probe_s[-1], probe())

        run.attempted["evaluate"] += 1
        try:
            for _ in range(EVAL_REPEATS):
                before = probes(5)
                started = perf_counter()
                log = metrics.read_emission_log(log_path)
                refs = metrics.read_reference_segments(files.refs)
                report = metrics.evaluate(log, refs)
                elapsed = perf_counter() - started
                if run.report is not None and report != run.report:
                    raise AssertionError("repeated evaluate reports differ")
                run.report = report
                raw.eval_s.append(elapsed)
                run.scaled.eval_s.append(scaled(elapsed, before, probes(5)))
        except Exception as exc:
            run.eval_failure = f"raised {exc!r}"
        else:
            run.log = log_path.read_bytes()
            if first is not None:
                if run.log != first.log or run.report != first.report:
                    run.eval_failure = "log or report differs from the first round's"
                else:
                    run.eval_failure = first.eval_failure
                run.log, run.report = b"", None  # keep memory flat across rounds
            else:
                run.eval_failure = _check_output(
                    workload, talk, log, transcript, streamed, refs, run.report
                )
        if run.eval_failure:
            run.failures.append(("evaluate", run.eval_failure))
    finally:
        if tracer:
            tracer.remove()
    mt, asr = pipeline.mt, pipeline.asr
    run.counters.update(
        decodes=asr.decodes,
        force_trims=asr.force_trims,
        translate_calls=mt.translate_calls,
        segments_closed=mt.segment_ordinal,
        evictions=mt.evictions,
        dropped_beams=mt.dropped_beams,
    )
    return run


def _check_output(workload, talk, log, transcript, streamed, refs, report) -> str | None:
    hyp = metrics.strip_sentinels(r.token for r in log)
    slices = metrics.resegment(hyp, refs)
    problems = checks.check_log(talk, log, transcript, streamed, refs, slices, report)
    if workload.clean:
        problems += checks.check_clean(talk, log, transcript, refs, slices, report)
    else:
        problems += checks.check_noisy(talk, log, transcript, refs, slices)
    return "; ".join(problems) or None


Round = list[TalkRun]  # one run of every talk of the workload, in order


def host_times(rounds: list[Round], unscaled: bool = False) -> dict[str, float]:
    """Host-time metrics, scaled to the reference host speed (see
    hostspeed.py), or from the raw times with ``unscaled``.

    Every round repeats the same steps, so a step's fastest repetition is
    its cost with the least time taken from it by other processes on the
    host. An evaluate takes the median of its repetitions instead: over
    runs of 15 repetitions of the noisy talk's evaluate, the fastest scaled
    one moved by twice as much as the median, because the minimum picks
    the repetitions whose probes happened to read slow.
    """
    steps, finish, evaluate = [], 0.0, 0.0
    for talk_runs in zip(*rounds):
        times = [t.raw if unscaled else t.scaled for t in talk_runs]
        steps += [min(step) for step in zip(*(t.step_s for t in times))]
        finish += min(t.finish_s for t in times)
        repetitions = [e for t in times for e in t.eval_s]
        evaluate += statistics.median(repetitions) if repetitions else 0.0  # none if it raised
    audio_s = sum(t.audio_s for t in rounds[0])
    steps.sort()
    return {
        "sim_rtf": (sum(steps) + finish) / audio_s,
        "step_ms_p95": steps[math.ceil(0.95 * len(steps)) - 1] * 1e3,
        "eval_rtf": evaluate / audio_s,
    }


def run_round(workload, talks, files, workdir: Path, first: Round | None, tracer=None) -> Round:
    return [
        run_talk(
            workload,
            talk,
            files[talk.index],
            workdir / f"talk{talk.index:02d}.log.jsonl",
            first[talk.index] if first else None,
            tracer,
        )
        for talk in talks
    ]


def failure_summary(workload: Workload, rounds: list[Round]):
    """Attempted and failed counts by kind, known-fault counts, and problems.

    A problem is a failure that no known fault explains; any makes the run
    incorrect.
    """
    attempted, failed, faults = Counter(), Counter(), Counter()
    problems = []
    for rnd in rounds:
        for talk_index, run in enumerate(rnd):
            attempted.update(run.attempted)
            for kind, reason in run.failures:
                failed[kind] += 1
                fault = KNOWN_FAULTS.get((kind, reason))
                if fault and workload.name == NOISY_WORKLOAD:
                    faults[fault] += 1
                else:
                    problems.append(f"talk {talk_index} {kind}: {reason}")
    return attempted, failed, faults, problems


def untraced_metrics(rounds: list[Round]) -> dict[str, float]:
    reports = [t.report for t in rounds[0] if t.report]
    return {
        **host_times(rounds),
        "bleu": statistics.fmean(r["bleu"] for r in reports),
        "nca_laal_s": statistics.fmean(r["nca"]["mean_s"] for r in reports),
        "ca_laal_s": statistics.fmean(r["ca"]["mean_s"] for r in reports),
    }
