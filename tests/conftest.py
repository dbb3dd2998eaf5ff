"""Let the processes the tests spawn import ``simulstream`` from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
path only; a wire server started as ``python -m simulstream.wire_server``
reads ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
