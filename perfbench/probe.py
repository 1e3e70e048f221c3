"""Set-up probe: a fresh process imports the package and parses inputs.

Reads a JSON list of presentation texts on stdin and prints one JSON line:
the CLOCK_MONOTONIC reading when it was ready (the parent subtracts its
spawn time), and how long the numpy and package imports took.  Run by
``run.py`` with ``src`` on ``PYTHONPATH``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed on its own: the largest import)

t1 = time.perf_counter()
import quiver_regrade.cli  # noqa: E402,F401
from quiver_regrade.fileformat import parse_presentation  # noqa: E402

t2 = time.perf_counter()
for text in json.load(sys.stdin):
    parse_presentation(text)
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
print(json.dumps({"ready": ready, "numpy_import_s": t1 - t0, "import_s": t2 - t1}))
