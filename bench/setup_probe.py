"""Start-up probe timed by run.py: a fresh interpreter imports the package
and loads one workload's pinned files, then prints the time on the
system-wide monotonic clock.

    python3 bench/setup_probe.py <workload>
"""

import sys
import time

from workloads import WORKLOADS, load_expected, use_source_tree

use_source_tree()

import bhgreedy.cli  # noqa: E402,F401

load_expected(WORKLOADS[sys.argv[1]])
print(time.monotonic())
