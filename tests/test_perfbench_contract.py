"""The benchmark's contract with the program: its tracer and its output gate.

The tracer wraps names that the driver and the CLI import: the driver calls
every layer function through its module globals, ``compute_indicators`` gets
(mesh, solution, system) positionally, and the system constructors are
looked up in ``stfosls.cli``.  A change that breaks it blinds the benchmark;
these runs make it fail here.  Every benchmark run's log must also pass the
benchmark's own gate against its reference rows, so that an output drift
fails here before the benchmark runs.  The set-up probe calls
``cli.parse_config`` and ``cli._build_run`` in a process of its own; it must
keep running, or ``setup_s`` cannot be measured.
"""

import math
import subprocess
import sys
from pathlib import Path

from stfosls.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_tracer_sees_every_expected_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer
    from workloads import _run

    runs = [
        _run("incompatible-adaptive", case="incompatible", mode="adaptive", degree=1,
             marking="doerfler", theta=0.5, max_iterations=3, write_mesh="true"),
        _run("heat-uniform-p2", case="heat-smooth", mode="uniform", degree=2, levels=2),
        _run("poisson-uniform-p1", system="poisson", mode="uniform", degree=1, levels=2),
    ]
    tracer = Tracer("contract")
    tracer.install()
    try:
        for run in runs:
            cfg = tmp_path / f"{run.name}.cfg"
            cfg.write_text(run.config_text())
            tracer.start_run(run.name)
            assert main(["run", str(cfg), "--out", str(tmp_path / run.name)]) == 0
    finally:
        tracer.uninstall()
    for run in runs:
        assert run.expect <= tracer.called_layers(run.name), run.name
    assert tracer.counts["estimator.initial_facets"] > 0
    assert tracer.counts["assembly.solve_cg.false_converged"] == 0


def test_benchmark_runs_pass_the_output_gate(tmp_path, monkeypatch):
    """Every run of every workload, through the command line, against
    ``perfbench/reference/`` with the benchmark worker's ``gate``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import gate
    from workloads import WORKLOADS

    checked = 0
    for workload in WORKLOADS.values():
        for run in workload.runs:
            cfg = tmp_path / f"{run.name}.cfg"
            cfg.write_text(run.config_text())
            out = tmp_path / workload.name / run.name
            assert main(["run", str(cfg), "--out", str(out)]) == 0, run.name
            reference = PERFBENCH / "reference" / workload.name / f"{run.name}.csv"
            assert gate(out / "runlog.csv", reference) is None, run.name
            checked += 1
    assert checked == 15


def test_setup_probe_runs_on_each_workload(tmp_path, monkeypatch):
    """``perfbench/probe.py SRC CONFIG``, run as the benchmark runs it on each
    workload's first config, exits 0 with a float on its last line."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        cfg = tmp_path / f"{workload.name}.cfg"
        cfg.write_text(workload.runs[0].config_text())
        probe = subprocess.run([sys.executable, str(PERFBENCH / "probe.py"), str(ROOT / "src"), str(cfg)],
                               capture_output=True, text=True, timeout=120)
        assert probe.returncode == 0, (workload.name, probe.stderr)
        assert math.isfinite(float(probe.stdout.splitlines()[-1])), workload.name
