"""Benchmark of simulstream's streaming path on seeded synthetic talks.

    python3 perfbench/run.py --workload talks_short --seed 1 --seconds 20 --trace 0

Streams whole rounds of the workload's talks through the calls that
``simulstream simulate`` and ``simulstream eval`` make, until ``--seconds``
have passed, and checks every output. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and prints the per-layer metrics and the tracing overhead. Host times
are scaled to a reference host speed (see hostspeed.py). The last line of
standard output is one JSON object. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 9


def _use_checkout_source() -> None:
    if not (SRC / "simulstream" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'simulstream'}")
    sys.path.insert(0, str(SRC))
    # The wire servers and the set-up probes import the same source.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )


def _pin_to_one_cpu() -> None:
    """Run this process and the wire servers it spawns on one CPU.

    The host-speed probe runs in this process; on one CPU it measures the
    CPU that the wire server's work runs on too.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass


def _setup_seconds(files) -> tuple[float, float]:
    """Set-up time of a fresh interpreter on the given talk: (raw, scaled)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(files.config), str(files.trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    raw, at_reference = done.stdout.split()
    return float(raw), float(at_reference)


def main() -> int:
    _use_checkout_source()
    _pin_to_one_cpu()
    from bench import failure_summary, host_times, run_round, untraced_metrics
    from gen import WORKLOADS, make_talks, write_talk
    from hostspeed import REFERENCE_PROBE_S
    from tracing import Tracer, layer_metrics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        talks = make_talks(workload, args.seed)
        files = [write_talk(workload, talk, workdir, sys.executable) for talk in talks]
        tracer = Tracer() if args.trace else None
        # One set-up probe before each untraced round spreads them over the
        # run, so their median does not hang on one moment's host load.
        setup_times = []

        def untraced_round(first):
            if not tracer:
                setup_times.append(_setup_seconds(files[0]))
            return run_round(workload, talks, files, workdir, first)

        started = perf_counter()
        first = untraced_round(None)
        untraced, traced = [first], []
        while True:
            if tracer:
                traced.append(run_round(workload, talks, files, workdir, first, tracer))
                tracer.keep_spans = False  # spans of the first traced round only
            if perf_counter() - started >= args.seconds:
                break
            untraced.append(untraced_round(first))
        while not tracer and len(setup_times) < SETUP_PROBES:
            setup_times.append(_setup_seconds(files[0]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = untraced + traced
    attempted, failed, faults, problems = failure_summary(workload, rounds)
    audio_s = sum(t.duration_s for t in talks)
    print(
        f"{workload.name} seed {args.seed}: {len(talks)} talks, {audio_s:.1f} s of audio "
        f"per round; {len(untraced)} untraced and {len(traced)} traced rounds"
    )
    print(
        "operations attempted/failed: "
        + ", ".join(f"{k} {attempted[k]}/{failed[k]}" for k in ("step", "finalize", "evaluate"))
        + "; known faults: "
        + (", ".join(f"{k} {v}" for k, v in sorted(faults.items())) or "none")
    )
    for problem in problems[:10]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    probe_us = statistics.median(p for rnd in rounds for t in rnd for p in t.probe_s) * 1e6
    unscaled = host_times(untraced, unscaled=True)
    print(
        f"host speed: median probe {probe_us:.1f} us against the reference "
        f"{REFERENCE_PROBE_S * 1e6:.1f} us; unscaled untraced sim_rtf {unscaled['sim_rtf']:.6f} s/s, "
        f"step_ms_p95 {unscaled['step_ms_p95']:.3f} ms, eval_rtf {unscaled['eval_rtf']:.6f} s/s"
        + (f", setup_s {statistics.median(r for r, _ in setup_times):.4f} s" if setup_times else "")
    )

    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
        values = layer_metrics(
            tracer, traced, host_times(traced)["sim_rtf"], host_times(untraced)["sim_rtf"]
        )
        values["host.probe_us"] = (probe_us, "us")
        values["host.unscaled_sim_rtf"] = (unscaled["sim_rtf"], "s/s")
    else:
        measured = untraced_metrics(untraced)
        units = {"sim_rtf": "s/s", "step_ms_p95": "ms", "eval_rtf": "s/s", "bleu": "BLEU",
                 "nca_laal_s": "audio_s", "ca_laal_s": "virtual_s"}
        setup_s = statistics.median(s for _, s in setup_times)
        values = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        values.update((name, (measured[name], unit)) for name, unit in units.items())
    for name, (value, unit) in values.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
