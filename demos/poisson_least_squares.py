"""The stationary Poisson instance: same driver, different first-order system.

The assembly, estimation, marking and refinement machinery never inspects
the parabolic structure; it only sees residual evaluators.  Plugging in the
flux formulation of -laplace(u) = f (flux sigma = -grad u, so div sigma = f)
reuses the whole pipeline, here on u = sin(pi x1) sin(pi x2).
"""

from stfosls import StopCriteria, rate_table, run, uniform_initial_mesh
from stfosls.system import poisson_sine_case


def main():
    system, exact = poisson_sine_case()
    mesh0 = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(system, mesh0, 1, StopCriteria(max_iterations=4), exact=exact)

    print(f"{'dofs':>8} {'estimator':>12} {'error':>12} {'order':>7}")
    for dofs, eta, err, order in rate_table(log):
        order_str = "  --  " if order is None else f"{order:6.3f}"
        print(f"{dofs:8d} {eta:12.4e} {err:12.4e} {order_str:>7}")
    print(f"\nmax normalized orthogonality defect: "
          f"{max(r.solver.galerkin_defect for r in log.records):.2e}")


if __name__ == "__main__":
    main()
