"""Set-up time of one fresh interpreter: import the frontsteer CLI (and so
every layer, plus scipy), load a run configuration and build its problem.

Usage: python3 setup_probe.py <src directory> <config.json>
Prints the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from frontsteer import cli  # noqa: E402

cli.build_problem(cli.load_config(sys.argv[2]))
print(repr(time.perf_counter() - t0))
