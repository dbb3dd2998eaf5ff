"""Time one talk's set-up in a fresh interpreter: ``setup_probe.py CONFIG TRACE``.

Set-up runs from the first statement until the first audio chunk can be
fed: importing the package as the ``simulstream`` command does, loading
the config and the mock script, reading the trace and building the
``Pipeline``. With a wire backend it also spawns the server and waits for
its first reply. Prints the seconds taken and, after host-speed probes
run once set-up is done, the seconds at the reference host speed.
"""

from time import perf_counter

started = perf_counter()

import sys  # noqa: E402

import simulstream.cli  # noqa: E402,F401  (the import the command pays for)

from talk_setup import open_talk  # noqa: E402

talk = open_talk(sys.argv[1], sys.argv[2])
elapsed = perf_counter() - started
talk.close()

from hostspeed import probes, scaled  # noqa: E402

speed = probes(11)
print(repr(elapsed), repr(scaled(elapsed, speed, speed)))
