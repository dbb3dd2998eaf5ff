"""Run alternating benchmark pairs and append them to a BENCH file.

    python tests/bench_pairs.py --parent HEAD --change . --workload talks_short \\
        --pairs 10 --seconds 30 --candidate "what the change side changes" \\
        --out BENCH_<n>.json

Each side runs ``perfbench/run.py --workload W --seed 1 --seconds T`` in a
fresh tree of its own: the parent side in a ``git archive`` of ``--parent``,
the change side in a copy of the ``--change`` directory. Pair i runs both
sides one after the other, the parent first when i is even. A
``--workload`` given more than once runs its pairs on each in turn.

Each invocation appends one comparison to ``--out`` in the layout that
``tests/test_bench_files.py`` checks. Its verdict is "keep" when, on some
workload, the change side's median of some judged metric is worse than the
parent side's by more than the parent runs' interquartile range, and
"delete" otherwise; ``--no-claim`` records "no claim" instead.
``--claim WORKLOAD:METRIC`` states a gain and records "gain" or "no gain":
"gain" when, on that workload, the change side's median of that metric
beats the parent side's by more than the parent IQR, the change side wins
at least 8 in 10 of the pairs on it, and no judged metric on any workload
is worse by more than its parent IQR. Run invocations one after another:
runs side by side disturb each other's timings.

``--trace`` runs ``--trace 1`` instead and records the per-layer metrics
each run prints, with "no claim": the host time of each layer, which the
untraced runs do not report.

A SIGTERM stops the running ``perfbench/run.py`` and removes both trees.
Exits 1, after writing, if any run failed an operation or printed
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JUDGED = ("sim_rtf", "step_ms_p95", "eval_rtf")
# Printed as each traced run ends.
TRACED_SHOWN = (
    "backends.asr_decode.us_per_call", "backends.mt_translate.us_per_call",
    "mt_stream.step.us_per_call",
)
SEED = 1
# A claimed gain must win at least 8 in 10 of its pairs.
WINS_IN_TEN = 8
PYTHON = f"{platform.python_implementation()} {platform.python_version()}"
_PROBE = re.compile(r"host speed: median probe ([0-9.]+) us")
_METHOD = (
    "Each run is `python3 perfbench/run.py --workload W --seed 1 --seconds T` (untraced) in a "
    "fresh tree: the parent side a `git archive` of the parent commit, the change side a copy of "
    "the changed tree. A pair runs both sides one after the other, and the side that runs first "
    "alternates. A candidate's verdict is 'keep' when, on a workload, the median of a judged "
    "metric on the change side is worse than the parent side's by more than the parent runs' "
    "interquartile range, and 'delete' otherwise. A claimed gain on a workload's metric is "
    "'gain' when the change side's median beats the parent side's by more than the parent IQR, "
    "the change side wins at least 8 in 10 of the pairs on it, and no judged metric on any "
    "workload is worse by more than its parent IQR, and 'no gain' otherwise. Made with "
    "tests/bench_pairs.py."
)


def _parent_tree(revision: str, into: Path) -> str:
    """Extract ``revision`` of this repo into ``into``; return its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", f"{revision}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return commit


def _change_tree(source: Path, into: Path) -> None:
    ignore = shutil.ignore_patterns(".git", ".perfbench-out", "__pycache__", "*.egg-info")
    shutil.copytree(source, into, ignore=ignore)


def _run(tree: Path, workload: str, seconds: float, order: int, trace: bool = False) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    probe = _PROBE.search(done.stdout)
    return {
        "order": order,
        "python": PYTHON,
        "seed": SEED,
        "seconds": seconds,
        "probe_us": float(probe.group(1)) if probe else None,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def _summary(parent: list, change: list) -> dict:
    def values(runs, metric):
        return [run["metrics"][metric]["value"] for run in runs]

    metrics = list(parent[0]["metrics"])
    iqr = {}
    for metric in metrics:
        low, _, high = statistics.quantiles(values(parent, metric), n=4)
        iqr[metric] = high - low
    return {
        "parent": parent,
        "change": change,
        "median": {
            side: {m: statistics.median(values(runs, m)) for m in metrics}
            for side, runs in (("parent", parent), ("change", change))
        },
        "parent_iqr": iqr,
    }


def _worse(workload: dict, metric: str, better: dict) -> float:
    """How much worse the change side's median is than the parent side's."""
    median = workload["median"]
    worse = median["change"][metric] - median["parent"][metric]
    return -worse if better[metric] == "higher" else worse


def _regressed(comparison: dict, better: dict) -> bool:
    """Whether some judged metric's change median is worse than the parent's
    by more than the parent IQR on some workload."""
    return any(
        _worse(workload, metric, better) > workload["parent_iqr"][metric]
        for workload in comparison["workloads"].values()
        for metric in comparison["judged"]
    )


def _gained(comparison: dict, better: dict) -> bool:
    """Whether the claimed metric beats the parent by more than its IQR in
    the medians and wins at least ``WINS_IN_TEN`` in 10 of the pairs."""
    name, metric = comparison["claim"].split(":")
    workload = comparison["workloads"][name]
    higher = better[metric] == "higher"
    wins = 0
    for p, c in zip(workload["parent"], workload["change"]):
        parent, change = p["metrics"][metric]["value"], c["metrics"][metric]["value"]
        wins += change > parent if higher else change < parent
    return (
        -_worse(workload, metric, better) > workload["parent_iqr"][metric]
        and 10 * wins >= WINS_IN_TEN * len(workload["parent"])
    )


def _verdict(comparison: dict, better: dict) -> str:
    """"gain" or "no gain" for a claim; otherwise "keep" if some judged
    metric regressed, else "delete"."""
    if "claim" in comparison:
        gained = _gained(comparison, better) and not _regressed(comparison, better)
        return "gain" if gained else "no gain"
    return "keep" if _regressed(comparison, better) else "delete"


def _better() -> dict:
    """Each end-to-end metric's better direction, from ``BENCHMARK.json``."""
    return {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }


def _append(out: Path, commit: str, comparison: dict) -> None:
    bench = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {
        "title": "Alternating benchmark pairs, parent against change",
        "parent": commit,
        "python": PYTHON,
        "host": f"{platform.system()} {platform.machine()}; run.py pins each run to one CPU",
        "method": _METHOD,
        "comparisons": [],
    }
    if bench["parent"] != commit:
        sys.exit(f"{out} compares against {bench['parent']}, not {commit}")
    bench["comparisons"].append(comparison)
    out.write_text(json.dumps(bench, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision of this repo")
    parser.add_argument("--change", required=True, type=Path, help="the changed tree")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--candidate", required=True, help="what the change side changes")
    claims = parser.add_mutually_exclusive_group()
    claims.add_argument("--no-claim", action="store_true", help='record "no claim" as the verdict')
    claims.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help='the gain the change claims: record "gain" or "no gain"')
    claims.add_argument("--trace", action="store_true",
                        help='traced runs: per-layer metrics and "no claim"')
    parser.add_argument("--out", required=True, type=Path, help="the BENCH file to append to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2: the parent IQR needs two runs")
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workload or metric not in _better():
            parser.error(f"--claim needs a --workload and an end-to-end metric, "
                         f"got {args.claim!r}")

    # A SIGTERM unwinds like an exception: ``subprocess.run`` kills the
    # running benchmark, and ``finally`` removes both trees.
    previous = signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    shown = TRACED_SHOWN if args.trace else JUDGED
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        commit = _parent_tree(args.parent, trees["parent"])
        _change_tree(args.change.resolve(), trees["change"])
        workloads = {}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for offset, side in enumerate(sides):
                    run = _run(trees[side], workload, args.seconds, 2 * i + offset, args.trace)
                    runs[side].append(run)
                    print(f"{workload} pair {i} {side}: "
                          + ", ".join(f"{m} {run['metrics'][m]['value']:.4g}" for m in shown),
                          flush=True)
            workloads[workload] = _summary(runs["parent"], runs["change"])
        comparison = {"candidate": args.candidate, "verdict": "no claim",
                      "judged": [] if args.trace else list(JUDGED), "workloads": workloads}
        if args.trace:
            comparison["traced"] = True
        elif args.claim is not None:
            comparison["claim"] = args.claim
        if not (args.trace or args.no_claim):
            comparison["verdict"] = _verdict(comparison, _better())
        _append(args.out, commit, comparison)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)
    bad = [
        (name, run["order"])
        for name, w in workloads.items()
        for run in w["parent"] + w["change"]
        if not run["correct"] or run["failed"]
    ]
    if bad:
        print(f"runs with failures or wrong output: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
