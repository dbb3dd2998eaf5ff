"""The benchmark's own talk runner still runs on the package.

``perfbench/talk_setup.py`` builds an ``AsrRequest`` by position, and
``perfbench/bench.py`` reads controller attributes after each talk, so a
rename in ``src/`` would otherwise break only the benchmark. This streams
one short talk of each workload through ``bench.run_talk``, which also
runs the benchmark's own output checks, and requires no failed operation.
The wire server imports this checkout's ``src`` through the ``PYTHONPATH``
that ``conftest.py`` sets.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# perfbench's modules import each other by these bare names.
_MODULES = ("bench", "checks", "gen", "hostspeed", "talk_setup", "tracing")


@pytest.fixture(scope="module")
def perfbench():
    """The ``bench`` and ``gen`` modules; loading them writes nothing under perfbench/."""
    saved = {name: sys.modules.pop(name) for name in _MODULES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        try:
            modules = importlib.import_module("bench"), importlib.import_module("gen")
        finally:
            sys.dont_write_bytecode = dont_write
        yield modules
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in _MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("name", ["talks_short", "talks_long_noisy", "wire_talk"])
def test_bench_runs_a_short_talk_of_each_workload_without_failures(
    perfbench, tmp_path, name
) -> None:
    bench, gen = perfbench
    workload = replace(gen.WORKLOADS[name], talks=1, sentences=24)
    (talk,) = gen.make_talks(workload, 1)
    files = gen.write_talk(workload, talk, tmp_path, sys.executable)
    run = bench.run_talk(workload, talk, files, tmp_path / "talk.log.jsonl", None, None)
    assert run.failures == []
    assert run.attempted == {"step": len(talk.chunks()), "finalize": 1, "evaluate": 1}
    assert run.report is not None and run.counters["translate_calls"] > 0
