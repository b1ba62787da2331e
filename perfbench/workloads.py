"""The benchmark's workloads: fixed `stfosls run` configurations.

A workload is a list of runs executed one after another in one process
(a closed loop: the next `stfosls run` call starts when the previous one
returns).  One pass over the list is one wall-time sample.  The seed only
permutes the order of the runs inside a pass; the solver has no randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

# Layers every run calls at least once; a traced pass that sees zero calls
# of an expected layer is a blind trace and fails the benchmark.
_ALWAYS = frozenset({
    "spaces.build_dofmap",
    "assembly.assemble",
    "assembly.solve_cg",
    "estimator.compute_indicators",
    "system.eval",
    "cli.write_runlog_csv",
})


@dataclass(frozen=True)
class Run:
    name: str
    config: Dict[str, str]
    expect: FrozenSet[str]

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def warmup_text(self) -> str:
        """The same run cut to two levels, to load lazy imports before timing."""
        return self.config_text() + "levels = 2\nmax_iterations = 1\n"


@dataclass(frozen=True)
class Workload:
    name: str
    runs: Tuple[Run, ...]

    def ordered(self, seed: int) -> List[Run]:
        runs = list(self.runs)
        random.Random(seed).shuffle(runs)
        return runs


def _run(name: str, **config) -> Run:
    config = {key: str(value) for key, value in config.items()}
    parabolic = config.get("system", "parabolic") == "parabolic"
    adaptive = config.get("mode") == "adaptive"
    expect = set(_ALWAYS)
    if adaptive or int(config.get("levels", "1")) > 1:
        expect.add("mesh.bisect")
    if adaptive:
        expect |= {"marking.mark", "marking.verify"}
    if config.get("case") != "incompatible":
        expect.add("estimator.u_norm_error")
    if parabolic:
        expect.add("system.data_initial")
    if config.get("write_mesh") == "true":
        expect.add("cli.write_mesh")
    return Run(name, config, frozenset(expect))


def _rate_sweep_runs() -> Tuple[Run, ...]:
    # Parabolic runs end at 2,112 dofs for p=1 and p=2, Poisson runs at 3,139:
    # one uniform level below 8,320 / 12,419 dofs, so that a pass takes seconds.
    levels = {1: 5, 2: 4}
    runs = []
    for case in ("heat-smooth", "convection-reaction", "variable-a"):
        for form in ("flux", "gradient"):
            for p in (1, 2):
                runs.append(_run(f"{case}-{form}-p{p}", case=case, form=form,
                                 degree=p, mode="uniform", levels=levels[p]))
    for p in (1, 2):
        runs.append(_run(f"poisson-p{p}", system="poisson", degree=p,
                         mode="uniform", levels=levels[p]))
    return tuple(runs)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's adaptive loop on incompatible data: solve-bound, with
        # closure-driven graded refinement.  It stops at 8,686 dofs, the
        # first level whose CG solve claims convergence with a true residual
        # above its tolerance.
        Workload(
            "graded-p1",
            (_run("incompatible-p1", case="incompatible", mode="adaptive", degree=1,
                  marking="doerfler", theta=0.5, estimator_tolerance=0.33,
                  max_iterations=40, write_mesh="true"),),
        ),
        # Every system branch, the p=2 dof map, the Poisson instance and the
        # exact-error path, at sizes where per-call overheads weigh most.
        Workload("rate-sweep", _rate_sweep_runs()),
    )
}
