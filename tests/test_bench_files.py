"""Every ``BENCH_*.json`` at the repo root is a well-formed record of
alternating benchmark pairs, and its verdicts follow from its own figures.

A BENCH file records runs of ``perfbench/run.py``, the parent commit's
tree against a changed one, on the workloads that ``BENCHMARK.json``
lists. Its layout::

    {
      "parent": "<commit the parent runs used>",
      "comparisons": [
        {
          "candidate": "<what the change side changes>",
          "verdict": "keep" | "delete" | "no claim",
          "judged": ["<metric>", ...],
          "workloads": {
            "<workload>": {
              "parent": [<run>, ...],
              "change": [<run>, ...],
              "median": {"parent": {"<metric>": <value>, ...},
                         "change": {"<metric>": <value>, ...}},
              "parent_iqr": {"<metric>": <value>, ...}
            }
          }
        }
      ]
    }

with each run ``{"order": <int>, "seed": <int>, "seconds": <float>,
"metrics": {"<metric>": {"value": <float>, "unit": "<unit>"}}}``, the
``metrics`` being the end-to-end object ``run.py`` prints last, and any
other top-level or run keys free text or context (a host probe, say).
``parent[i]`` and ``change[i]`` are pair i: they ran one after the other,
at orders 2i and 2i + 1 in the workload's sequence, the side that ran
first alternating from pair to pair, and with the same seed and run
length. The medians are of each side's runs; ``parent_iqr`` is the parent
runs' interquartile range, by ``statistics.quantiles`` (its default,
exclusive method).

A candidate is a fast path: the change side runs without it. Its verdict
is "keep" exactly when, on some workload, the median of some ``judged``
metric is worse on the change side than on the parent side by more than
the parent's interquartile range (worse as ``BENCHMARK.json``'s ``better``
says), and "delete" otherwise. A "no claim" comparison states no verdict
to check.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import pytest

from simulstream.core import read_json_file

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = read_json_file(ROOT / "BENCHMARK.json")
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def test_the_repo_has_a_bench_file() -> None:
    assert BENCH_FILES


def _workloads(path: Path):
    for comparison in read_json_file(path)["comparisons"]:
        for name, workload in comparison["workloads"].items():
            yield comparison, name, workload


def _values(runs: list, metric: str) -> list:
    return [run["metrics"][metric]["value"] for run in runs]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_bench_file_names_only_what_the_benchmark_lists(path) -> None:
    bench = read_json_file(path)
    assert type(bench["parent"]) is str and bench["parent"]
    assert bench["comparisons"]
    for comparison, name, workload in _workloads(path):
        assert type(comparison["candidate"]) is str and comparison["candidate"]
        assert comparison["verdict"] in ("keep", "delete", "no claim")
        assert set(comparison["judged"]) <= set(END_TO_END), comparison["candidate"]
        assert name in WORKLOADS, name
        for run in workload["parent"] + workload["change"]:
            assert type(run["seed"]) is int and run["seconds"] > 0
            assert run["metrics"], (name, run)
            for metric, figure in run["metrics"].items():
                assert metric in END_TO_END, (name, metric)
                assert figure["unit"] == END_TO_END[metric]["unit"], (name, metric)
                assert type(figure["value"]) in (int, float), (name, metric)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_pairs_alternate_which_side_ran_first(path) -> None:
    for comparison, name, workload in _workloads(path):
        parent, change = workload["parent"], workload["change"]
        where = (comparison["candidate"], name)
        assert parent and len(parent) == len(change), where
        for i, (p, c) in enumerate(zip(parent, change)):
            assert {p["order"], c["order"]} == {2 * i, 2 * i + 1}, (where, i)
            assert (p["order"] < c["order"]) == (i % 2 == 0), (where, i)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_both_runs_of_a_pair_are_like_for_like(path) -> None:
    for comparison, name, workload in _workloads(path):
        for i, (p, c) in enumerate(zip(workload["parent"], workload["change"])):
            where = (comparison["candidate"], name, i)
            assert (p["seed"], p["seconds"]) == (c["seed"], c["seconds"]), where


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_recorded_medians_and_ranges_are_those_of_the_runs(path) -> None:
    for comparison, name, workload in _workloads(path):
        where = (comparison["candidate"], name)
        for side in ("parent", "change"):
            runs = workload[side]
            assert set(workload["median"][side]) == set(runs[0]["metrics"]), where
            for metric, median in workload["median"][side].items():
                assert median == statistics.median(_values(runs, metric)), (where, side, metric)
        assert set(workload["parent_iqr"]) == set(workload["median"]["parent"]), where
        for metric, iqr in workload["parent_iqr"].items():
            low, _, high = statistics.quantiles(_values(workload["parent"], metric), n=4)
            assert iqr == high - low, (where, metric)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_each_verdict_follows_from_the_medians(path) -> None:
    moved: dict[str, list] = {}
    for comparison, name, workload in _workloads(path):
        median, iqr = workload["median"], workload["parent_iqr"]
        for metric in comparison["judged"]:
            worse = median["change"][metric] - median["parent"][metric]
            if END_TO_END[metric]["better"] == "higher":
                worse = -worse
            if worse > iqr[metric]:
                moved.setdefault(comparison["candidate"], []).append((name, metric))
    for comparison in read_json_file(path)["comparisons"]:
        candidate, verdict = comparison["candidate"], comparison["verdict"]
        if verdict != "no claim":
            expected = "keep" if candidate in moved else "delete"
            assert verdict == expected, (candidate, moved.get(candidate))
