"""Doerfler bulk marking versus maximum marking on the same adaptive problem.

Both strategies satisfy the property that no unmarked indicator exceeds the
smallest marked one.  Bulk marking with theta = 0.5 selects the minimal set
carrying half the squared estimator; maximum marking selects everything
within half of the largest indicator.  On the convection-reaction case the
two produce similar estimator trajectories with different mesh growth.
"""

import numpy as np

from stfosls import (
    ConvectionForm,
    MarkingConfig,
    MarkStrategy,
    StopCriteria,
    make_problem,
    run,
    uniform_initial_mesh,
)


def main():
    mesh0 = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    for form in (ConvectionForm.FLUX, ConvectionForm.GRADIENT):
        problem, _ = make_problem("convection-reaction", form)
        print(f"\nconvection handled through the {form.value} term")
        for strategy in (MarkStrategy.DOERFLER, MarkStrategy.MAXIMUM):
            marking = MarkingConfig(strategy, 0.5)
            log = run(problem, mesh0, 1, StopCriteria(max_iterations=12), marking)
            eta = log.estimators()
            print(
                f"  {strategy.value:8s}: {len(log.records):2d} levels, "
                f"dofs {log.records[-1].dofs:5d}, "
                f"estimator {eta[0]:.3e} -> {eta[-1]:.3e} "
                f"(monotone: {bool(np.all(np.diff(eta) < 0))})"
            )


if __name__ == "__main__":
    main()
