"""The host's speed, from a fixed pure-Python loop timed between operations.

On a shared host the same code runs up to 1.6x slower for minutes at a
time, and a whole run can fall in such a stretch. The probe loop slows
with it: over runs whose step times moved by 40%, the step times divided
by the probe times around them moved by 5%. So every host time the
benchmark reports is scaled by ``REFERENCE_PROBE_S`` over the probe times
taken just before and just after it: the seconds the work would have
taken on a host on which the probe takes ``REFERENCE_PROBE_S``. The probe
is benchmark code, so a change to the program moves the scaled times as
it moves the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the probe's time on an unloaded 2-vCPU host with Python 3.11.
REFERENCE_PROBE_S = 160e-6


def probe() -> float:
    """Seconds one fixed loop takes now."""
    started = perf_counter()
    table: dict[int, int] = {}
    for i in range(2000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return perf_counter() - started


def probes(count: int) -> float:
    """Median time of ``count`` probes in a row."""
    return statistics.median(probe() for _ in range(count))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes around it."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)
