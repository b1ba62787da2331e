"""Convergence-rate study for the smooth heat case on uniformly refined meshes.

The solution u(t, x) = exp(-t) sin(pi x) is analytic, so the graph-norm
error decays like h^p: slope 1 for linears, slope 2 for quadratics.  The
global estimator tracks the error within a few percent on every level.
"""

from stfosls import (
    StopCriteria,
    make_problem,
    parabolic_system,
    rate_table,
    run,
    uniform_initial_mesh,
)


def main():
    problem, exact = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh0 = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)

    for p, levels in ((1, 5), (2, 4)):
        print(f"\ndegree p = {p}")
        print(f"{'dofs':>8} {'estimator':>12} {'error':>12} {'order':>7} {'eta/err':>8}")
        log = run(system, mesh0, p, StopCriteria(max_iterations=levels - 1), exact=exact)
        for dofs, eta, err, order in rate_table(log):
            order_str = "  --  " if order is None else f"{order:6.3f}"
            print(f"{dofs:8d} {eta:12.4e} {err:12.4e} {order_str:>7} {eta / err:8.4f}")

    print("\nexpected orders: 1 for p=1, 2 for p=2")


if __name__ == "__main__":
    main()
