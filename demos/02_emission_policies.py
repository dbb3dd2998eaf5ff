"""The three emission gates, each in isolation.

Run:  python demos/02_emission_policies.py
"""

from simulstream.core import SENTINEL, BeamHypothesis, BeamSet
from simulstream.policy import agreed_prefix_len, ralcp_emit, waitk_allows

# 1. Relaxed prefix agreement: casing, punctuation and tiny misspellings
#    between consecutive ASR hypotheses should not stall commitment.
prev = ["Hello,", "wrld", "how", "are"]
curr = ["hello", "world", "how", "art", "you"]
n = agreed_prefix_len(prev, curr, committed=0, threshold=2)
print("relaxed agreement (at most 2 character edits per word)")
print(f"  prev: {prev}")
print(f"  curr: {curr}")
print(f"  agreed prefix length: {n}  (commits {curr[:n]})\n")

# 2. RALCP beam voting: a token is emitted once ceil(ratio * pool)
#    beams agree on it. The pool size is the beam count the request asked
#    for, not the count that came back, so a short reply never lowers the bar.
def beam(tokens, score):
    cuts = tuple(0 for _ in tokens)
    return BeamHypothesis(tuple(tokens), score, cuts)

beams = BeamSet(
    (
        beam(("das", "wetter", SENTINEL), 0.0),
        beam(("das", "wetter", SENTINEL), -0.1),
        beam(("das", "klima", SENTINEL), -0.2),
        beam(("die", "wetter",), -0.3),
    )
)
print("RALCP voting (4 beams asked for, ratio 0.5 -> 2 votes needed)")
print(f"  emitted: {ralcp_emit(beams, 0, agreement_ratio=0.5, pool=4)}")
print("  position 0: 'das' has 3 votes; position 1: 'wetter' has 3;")
print("  the sentinel wins next and closes the segment.")
short = BeamSet(beams.beams[:1])
print(f"  only the top beam back: {ralcp_emit(short, 0, agreement_ratio=0.5, pool=4)}")
print("  (1 vote never reaches the bar of 2 set by the request)\n")

# 3. Wait-k: at the start of every segment the translator holds its output
#    until k source words have been read, then never gates again until the
#    next segment begins.
print("wait-k gate (k=3)")
for read in range(5):
    print(f"  {read} words read -> emission allowed: {waitk_allows(3, read)}")
