"""Scoring a run: resegmentation, BLEU, and stream-level lagging.

The emission log is one long token stream; references are timed segments.
Resegmentation splits the stream to minimize word edit distance against
each reference, BLEU scores the quality, and per-segment length-adaptive
average lagging summarizes latency twice: NCA counts only audio consumed,
CA also counts compute time on the virtual clock.

Run:  python demos/03_latency_metrics.py
"""

from simulstream.core import SENTINEL, EmissionRecord
from simulstream.metrics import (
    ReferenceSegment,
    corpus_bleu,
    evaluate,
    resegment,
    strip_sentinels,
)

refs = [
    ReferenceSegment(("das", "wetter", "ist", "gut."), 0.0, 2.0),
    ReferenceSegment(("wir", "gehen", "raus."), 2.0, 4.5),
]

# A plausible emission log: tokens arrive a little after their audio, and
# the CA clock trails the NCA clock by the decoder's compute cost.
log = [
    EmissionRecord("das", 1.0, 1.15),
    EmissionRecord("wetter", 1.0, 1.15),
    EmissionRecord("ist", 1.8, 2.05),
    EmissionRecord("gut.", 2.4, 2.70),
    EmissionRecord(SENTINEL, 2.4, 2.70),
    EmissionRecord("wir", 3.2, 3.55),
    EmissionRecord("gehen", 3.9, 4.30),
    EmissionRecord("raus.", 4.5, 4.95),
]

tokens = strip_sentinels(r.token for r in log)
slices = resegment(tokens, refs)
print("resegmented hypothesis:")
for i, (s, ref) in enumerate(zip(slices, refs)):
    print(f"  segment {i}: {' '.join(s)!r}  vs ref {' '.join(ref.tokens)!r}")

print(f"\ncorpus BLEU: {corpus_bleu(slices, [r.tokens for r in refs]):.2f}")

report = evaluate(log, refs)
print("\nlatency (seconds):")
header = f"{'mode':6}{'M':>8}{'mdn':>8}{'p90':>8}{'p95':>8}{'p99':>8}{'max':>8}"
print("  " + header)
for mode in ("nca", "ca"):
    r = report[mode]
    row = (f"{mode.upper():6}{r['mean_s']:8.3f}{r['median_s']:8.3f}{r['p90_s']:8.3f}"
           f"{r['p95_s']:8.3f}{r['p99_s']:8.3f}{r['max_s']:8.3f}")
    print("  " + row)
print("\nCA is never faster than NCA: compute can only add delay.")
