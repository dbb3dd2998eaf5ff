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
          "claim": "<workload>:<metric>",  (only on a claimed gain)
          "verdict": "keep" | "delete" | "no claim" | "gain" | "no gain",
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
``metrics`` being the end-to-end object ``run.py`` prints last, an
optional ``"python"`` naming the interpreter that ran it, and any other
top-level or run keys free text or context (a host probe, say). A
comparison marked ``"traced": true`` holds traced runs instead: their
``metrics`` are the per-layer object a ``--trace 1`` run prints, and its
verdict is "no claim". ``parent[i]`` and ``change[i]`` are pair i: they
ran one after the other, at orders 2i and 2i + 1 in the workload's
sequence, the side that ran first alternating from pair to pair, and with
the same seed and run length. The medians are of each side's runs;
``parent_iqr`` is the parent runs' interquartile range, by
``statistics.quantiles`` (its default, exclusive method).

A comparison with a ``claim`` states a gain on one workload's metric. Its
verdict is "gain" exactly when, on that workload, the change side's median
of that metric is better than the parent side's by more than the parent's
interquartile range, the change side is better in at least 8 in 10 of the
pairs, and no ``judged`` metric regressed (below); "no gain" otherwise.

Any other candidate is a fast path: the change side runs without it. Its
verdict is "keep" exactly when some ``judged`` metric regressed, that is,
on some workload its median is worse on the change side than on the
parent side by more than the parent's interquartile range (worse and
better as ``BENCHMARK.json``'s ``better`` says), and "delete" otherwise. A
"no claim" comparison states no verdict to check.
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
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


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
        if "claim" in comparison:
            claimed, _, metric = comparison["claim"].partition(":")
            assert claimed in comparison["workloads"] and metric in END_TO_END, comparison
            assert comparison["verdict"] in ("gain", "no gain"), comparison["candidate"]
        elif comparison.get("traced"):
            assert comparison["verdict"] == "no claim", comparison["candidate"]
        else:
            assert comparison["verdict"] in ("keep", "delete", "no claim")
        listed = PER_LAYER if comparison.get("traced") else END_TO_END
        assert set(comparison["judged"]) <= set(END_TO_END), comparison["candidate"]
        assert name in WORKLOADS, name
        for run in workload["parent"] + workload["change"]:
            assert type(run["seed"]) is int and run["seconds"] > 0
            assert type(run.get("python", "")) is str, (name, run["order"])
            assert run["metrics"], (name, run)
            for metric, figure in run["metrics"].items():
                assert metric in listed, (name, metric)
                assert figure["unit"] == listed[metric]["unit"], (name, metric)
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


def _worse(workload: dict, metric: str) -> float:
    """How much worse the change side's median is than the parent side's."""
    median = workload["median"]
    worse = median["change"][metric] - median["parent"][metric]
    return -worse if END_TO_END[metric]["better"] == "higher" else worse


def _pair_wins(workload: dict, metric: str) -> int:
    """The pairs in which the change side's run is better than the parent's."""
    higher = END_TO_END[metric]["better"] == "higher"
    wins = 0
    for p, c in zip(_values(workload["parent"], metric), _values(workload["change"], metric)):
        wins += c > p if higher else c < p
    return wins


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_each_verdict_follows_from_the_medians(path) -> None:
    for comparison in read_json_file(path)["comparisons"]:
        candidate, verdict = comparison["candidate"], comparison["verdict"]
        regressed = [
            (name, metric)
            for name, workload in comparison["workloads"].items()
            for metric in comparison["judged"]
            if _worse(workload, metric) > workload["parent_iqr"][metric]
        ]
        if "claim" in comparison:
            name, _, metric = comparison["claim"].partition(":")
            workload = comparison["workloads"][name]
            gained = (
                -_worse(workload, metric) > workload["parent_iqr"][metric]
                and 10 * _pair_wins(workload, metric) >= 8 * len(workload["parent"])
                and not regressed
            )
            assert verdict == ("gain" if gained else "no gain"), (candidate, regressed)
        elif verdict != "no claim":
            assert verdict == ("keep" if regressed else "delete"), (candidate, regressed)
