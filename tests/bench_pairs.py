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
"delete" otherwise; ``--no-claim`` records "no claim" instead. Run
invocations one after another: runs side by side disturb each other's
timings.

Exits 1, after writing, if any run failed an operation or printed
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JUDGED = ("sim_rtf", "step_ms_p95", "eval_rtf")
SEED = 1
_PROBE = re.compile(r"host speed: median probe ([0-9.]+) us")
_METHOD = (
    "Each run is `python3 perfbench/run.py --workload W --seed 1 --seconds T` (untraced) in a "
    "fresh tree: the parent side a `git archive` of the parent commit, the change side a copy of "
    "the changed tree. A pair runs both sides one after the other, and the side that runs first "
    "alternates. A candidate's verdict is 'keep' when, on a workload, the median of a judged "
    "metric on the change side is worse than the parent side's by more than the parent runs' "
    "interquartile range, and 'delete' otherwise. Made with tests/bench_pairs.py."
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


def _run(tree: Path, workload: str, seconds: float, order: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    probe = _PROBE.search(done.stdout)
    return {
        "order": order,
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


def _verdict(comparison: dict, better: dict) -> str:
    """"keep" if some judged metric's change median is worse than the
    parent's by more than the parent IQR on some workload, else "delete"."""
    for workload in comparison["workloads"].values():
        median, iqr = workload["median"], workload["parent_iqr"]
        for metric in comparison["judged"]:
            worse = median["change"][metric] - median["parent"][metric]
            if better[metric] == "higher":
                worse = -worse
            if worse > iqr[metric]:
                return "keep"
    return "delete"


def _append(out: Path, commit: str, candidate: str, no_claim: bool, workloads: dict) -> None:
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    bench = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {
        "title": "Alternating benchmark pairs, parent against change",
        "parent": commit,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "host": f"{platform.system()} {platform.machine()}; run.py pins each run to one CPU",
        "method": _METHOD,
        "comparisons": [],
    }
    if bench["parent"] != commit:
        sys.exit(f"{out} compares against {bench['parent']}, not {commit}")
    comparison = {"candidate": candidate, "verdict": "no claim",
                  "judged": list(JUDGED), "workloads": workloads}
    if not no_claim:
        comparison["verdict"] = _verdict(comparison, better)
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
    parser.add_argument("--no-claim", action="store_true", help='record "no claim" as the verdict')
    parser.add_argument("--out", required=True, type=Path, help="the BENCH file to append to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2: the parent IQR needs two runs")

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
                    run = _run(trees[side], workload, args.seconds, 2 * i + offset)
                    runs[side].append(run)
                    print(f"{workload} pair {i} {side}: "
                          + ", ".join(f"{m} {run['metrics'][m]['value']:.4g}" for m in JUDGED),
                          flush=True)
            workloads[workload] = _summary(runs["parent"], runs["change"])
        _append(args.out, commit, args.candidate, args.no_claim, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
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
