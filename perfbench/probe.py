"""One set-up sample for run.py, in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED SECONDS

Times importing the program, generating the workload's inputs and running
its warm-up ops, and prints the seconds.  Interpreter start-up is not
included.
"""

import sys
import time

start = time.perf_counter()

import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402

with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as work:
    run.prepare(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(work))
print(time.perf_counter() - start)
