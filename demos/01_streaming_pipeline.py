"""Watch the full cascade run on a tiny scripted talk.

Audio arrives in one-second chunks. The ASR controller re-decodes its
window and commits words once two consecutive decodes agree; committed
words flow into the MT controller, which emits translation tokens when
enough beams vote for them, closing a history segment every time the
sentinel token is committed.

Run:  python demos/01_streaming_pipeline.py
"""

from simulstream.backends import AsrScript, MockAsrBackend, MockMtBackend, MtScript
from simulstream.core import TimedWord
from simulstream.pipeline import Pipeline, preset_config

# One short scripted utterance: two sentences, 0.4 s per word.
TEXT = "the weather model improves daily. we trust its forecast now."
words = []
t = 0.0
for token in TEXT.split():
    words.append(TimedWord(token, t, t + 0.4))
    t += 0.4

asr_script = AsrScript(
    words=tuple(words),
    audio_duration_s=t,
    stabilization_delay_s=1.0,  # the freshest second of audio is unstable
    seed=3,
)
mt_script = MtScript(word_map={"the": "das", "we": "wir", "now.": "jetzt."})

pipeline = Pipeline(
    preset_config("adapted"),
    MockAsrBackend(asr_script),
    MockMtBackend(mt_script),
)

print(f"feeding {t:.1f} s of audio in 1 s chunks\n")
remaining = t
while remaining > 0:
    chunk = min(1.0, remaining)
    remaining -= chunk
    emitted = pipeline.feed_audio(chunk)
    clock = pipeline.clock
    transcript = " ".join(pipeline.asr.transcript())
    print(f"t={clock.audio_available_s:4.1f}s  committed: {transcript!r}")
    for record in emitted:
        print(f"         -> emit {record.token!r} "
              f"(nca {record.nca_time_s:.2f}s, ca {record.ca_time_s:.2f}s)")

print("\nend of stream: flushing both controllers")
for record in pipeline.finalize():
    print(f"         -> emit {record.token!r}")

print("\nhistory after the run:")
for src, tgt in zip(pipeline.mt.history.history_source,
                    pipeline.mt.history.history_target):
    print(f"  {' '.join(src)!r}  =>  {' '.join(tgt)!r}")
print(f"\nsegments closed: {pipeline.mt.segment_ordinal}, "
      f"ASR decodes: {pipeline.asr.decodes}, "
      f"virtual wall clock: {pipeline.clock.now_s:.2f}s")
