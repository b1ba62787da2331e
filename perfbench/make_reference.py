"""Write the reference run logs that the output gate compares against.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the solver's outputs, and say
so in that change: the gate exists to catch changes that are not meant to.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PIN, ROOT  # noqa: E402

os.environ.update(PIN)
sys.path.insert(0, str(ROOT / "src"))

from stfosls import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

for workload in WORKLOADS.values():
    target = HERE / "reference" / workload.name
    target.mkdir(parents=True, exist_ok=True)
    for run in workload.runs:
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "run.cfg"
            config.write_text(run.config_text())
            if cli.main(["run", str(config), "--out", tmp]) != 0:
                sys.exit(f"{workload.name}/{run.name} failed")
            shutil.copy(Path(tmp) / "runlog.csv", target / f"{run.name}.csv")
        print(f"wrote {target / run.name}.csv")
