"""Set-up probe: import stfosls, parse a config, build the initial mesh and
the problem, then print the CLOCK_MONOTONIC reading.  The parent process
subtracts its own reading taken just before it started this one.

    python3 perfbench/probe.py SRC_DIR CONFIG
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from pathlib import Path  # noqa: E402

from stfosls import cli  # noqa: E402

cli._build_run(cli.parse_config(Path(sys.argv[2]).read_text()))
print(repr(time.monotonic()))
