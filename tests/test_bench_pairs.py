"""The pair runner ``tests/bench_pairs.py``: its gain verdict and its clean-up."""

from __future__ import annotations

import os
import signal
import sys
import tempfile

import pytest

import bench_pairs

# Writes its pid, sends SIGTERM to the runner that started it, and waits to
# be killed.
_SIGNALS_ITS_PARENT = """\
import os, signal, sys, time
with open(sys.argv[1], "w") as f:
    f.write(str(os.getpid()))
os.kill(os.getppid(), signal.SIGTERM)
time.sleep(30)
"""


class _Unhandled(Exception):
    pass


def _unhandled(signum, _frame):
    raise _Unhandled(signum)


def test_sigterm_kills_the_running_benchmark_and_removes_both_trees(tmp_path, monkeypatch) -> None:
    work = tmp_path / "tmp"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    pid_file = tmp_path / "pid"

    def run(*_args):
        bench_pairs.subprocess.run(
            [sys.executable, "-c", _SIGNALS_ITS_PARENT, str(pid_file)], check=True
        )
        pytest.fail("the SIGTERM did not stop the run")

    monkeypatch.setattr(bench_pairs, "_parent_tree", lambda revision, into: into.mkdir())
    monkeypatch.setattr(bench_pairs, "_change_tree", lambda source, into: into.mkdir())
    monkeypatch.setattr(bench_pairs, "_run", run)
    # Without the runner's own handler, the test's raises instead of
    # killing the test process.
    outer = signal.signal(signal.SIGTERM, _unhandled)
    try:
        with pytest.raises(SystemExit) as stopped:
            bench_pairs.main([
                "--parent", "HEAD", "--change", str(tmp_path), "--workload", "talks_short",
                "--pairs", "2", "--seconds", "1", "--candidate", "c", "--no-claim",
                "--out", str(tmp_path / "BENCH.json"),
            ])
        assert signal.getsignal(signal.SIGTERM) is _unhandled  # restored
    finally:
        signal.signal(signal.SIGTERM, outer)
    assert stopped.value.code == 128 + signal.SIGTERM
    assert list(work.iterdir()) == []
    assert not (tmp_path / "BENCH.json").exists()
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(int(pid_file.read_text()), os.WNOHANG)


def _run_of(sim_rtf: float, step_ms_p95: float) -> dict:
    return {"metrics": {"sim_rtf": {"value": sim_rtf}, "step_ms_p95": {"value": step_ms_p95}}}


def _comparison(parent: list, change: list, change_step_ms: float = 1.0) -> dict:
    workload = bench_pairs._summary(
        [_run_of(v, 1.0) for v in parent], [_run_of(v, change_step_ms) for v in change]
    )
    return {
        "claim": "w:sim_rtf",
        "judged": ["sim_rtf", "step_ms_p95"],
        "workloads": {"w": workload},
    }


BETTER = {"sim_rtf": "lower", "step_ms_p95": "lower"}
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_a_gain_needs_the_median_past_the_iqr_and_eight_pair_wins_in_ten() -> None:
    faster = [v - 1.0 for v in PARENT]
    assert bench_pairs._verdict(_comparison(PARENT, faster), BETTER) == "gain"
    # Two pairs lost: still eight wins in ten.
    two_lost = faster[:8] + [v + 1.0 for v in PARENT[8:]]
    assert bench_pairs._verdict(_comparison(PARENT, two_lost), BETTER) == "gain"
    # Three pairs lost, though the median still moves by far more than the IQR.
    three_lost = faster[:7] + [v + 1.0 for v in PARENT[7:]]
    assert bench_pairs._verdict(_comparison(PARENT, three_lost), BETTER) == "no gain"
    # Every pair won, by less than the parent's IQR.
    barely = [v - 0.01 for v in PARENT]
    assert bench_pairs._verdict(_comparison(PARENT, barely), BETTER) == "no gain"


def test_a_gain_is_refused_when_another_judged_metric_regresses() -> None:
    comparison = _comparison(PARENT, [v - 1.0 for v in PARENT], change_step_ms=2.0)
    assert bench_pairs._verdict(comparison, BETTER) == "no gain"


def test_the_change_tree_digest_is_of_the_files_the_runs_see(tmp_path) -> None:
    source = tmp_path / "source"
    (source / "src" / "__pycache__").mkdir(parents=True)
    (source / "src" / "a.py").write_text("a = 1\n")
    (source / "b.txt").write_text("b")
    digest = bench_pairs._change_tree(source, tmp_path / "first")
    assert len(digest) == 64 and digest == bench_pairs._tree_digest(source)
    # What the copy ignores, bytecode and test caches that git ignores too,
    # leaves the digest as it is: it is the digest of the committed files.
    (source / "src" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    (source / ".pytest_cache").mkdir()
    (source / ".pytest_cache" / "README.md").write_text("cache")
    assert bench_pairs._change_tree(source, tmp_path / "second") == digest
    # A changed byte, or a file moved, gives another digest.
    (source / "b.txt").write_text("c")
    changed = bench_pairs._tree_digest(source)
    (source / "b.txt").rename(source / "src" / "b.txt")
    moved = bench_pairs._tree_digest(source)
    assert len({digest, changed, moved}) == 3
