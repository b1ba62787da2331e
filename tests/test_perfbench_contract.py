"""The benchmark's tracer wraps names that the driver and the CLI import.

Its contract with the program: the driver calls every layer function through
its module globals, ``compute_indicators`` gets (mesh, solution, system)
positionally, and the system constructors are looked up in ``stfosls.cli``.
A change that breaks it blinds the benchmark; these runs make it fail here.
"""

from pathlib import Path

from stfosls.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
