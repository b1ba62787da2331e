"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion.  Every tolerance is pinned here; shared runs are computed once per
module in fixtures.

The estimator-reduction target for the incompatible-data case is implemented
exactly as stated but is marked as a known failure.  The exact solution of
that problem jumps at the two bottom corners, and the estimator decays far
too slowly for the stated budgets (25 adaptive iterations or 50000 dofs).
With Doerfler marking (theta = 0.5) the 25-iteration budget stops the run at
8,686 dofs with eta/eta_0 = 0.367 (maximum marking: 0.347 at 11,396); the
50k-dof budget never binds.  Run on, the ratio is 0.310 at 29,260 dofs,
0.253 at 105,996 and 0.208 at 367,596, and a fit of eta ~ dofs^s over the
second half of those levels gives s = -0.145.  At that rate the required
0.1 needs on the order of 10^7-10^8 dofs.  ``python
demos/adaptive_incompatible.py --max-dofs 367000`` reproduces these numbers.
The qualitative convergence statement (strictly decreasing estimator) does
hold and is asserted separately.
"""

import numpy as np
import pytest

from stfosls import oracles
from stfosls.assembly import assemble, solve_cg
from stfosls.driver import StopCriteria, rate_table, run
from stfosls.estimator import compute_indicators, data_norm
from stfosls.marking import (
    MarkingConfig,
    MarkStrategy,
    mark_doerfler,
    mark_maximum,
    verify_marking_property,
)
from stfosls.mesh import (
    bisect,
    element_measures,
    is_conforming,
    uniform_initial_mesh,
)
from stfosls.problem import ConvectionForm, make_problem
from stfosls.spaces import build_dofmap
from stfosls.system import parabolic_system, poisson_sine_case
from helpers import sorted_angles


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _mesh0():
    return uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def heat_uniform_runs():
    problem, exact = make_problem("heat-smooth")
    run_p1 = run(problem, _mesh0(), 1, StopCriteria(max_iterations=4), exact=exact)
    run_p2 = run(problem, _mesh0(), 2, StopCriteria(max_iterations=3), exact=exact)
    return run_p1, run_p2


@pytest.fixture(scope="module")
def adaptive_logs():
    """All adaptive runs of criterion 3, keyed by (case, strategy, form)."""
    logs = {}
    for case_name, strategies, forms in (
        ("incompatible", (MarkStrategy.DOERFLER, MarkStrategy.MAXIMUM), (ConvectionForm.FLUX,)),
        (
            "convection-reaction",
            (MarkStrategy.DOERFLER, MarkStrategy.MAXIMUM),
            (ConvectionForm.FLUX, ConvectionForm.GRADIENT),
        ),
    ):
        for form in forms:
            problem, _ = make_problem(case_name, form)
            for strategy in strategies:
                marking = MarkingConfig(strategy, 0.5)
                probe = run(problem, _mesh0(), 1, StopCriteria(max_iterations=0), marking)
                eta0 = probe.records[0].estimator
                log = run(
                    problem,
                    _mesh0(),
                    1,
                    StopCriteria(
                        max_iterations=25, max_dofs=50000, estimator_tolerance=0.1 * eta0
                    ),
                    marking,
                )
                logs[(case_name, strategy, form)] = log
    return logs


@pytest.fixture(scope="module")
def poisson_uniform_run():
    system, exact = poisson_sine_case()
    return run(system, _mesh0(), 1, StopCriteria(max_iterations=4), exact=exact)


def _orders_last_levels(log, n_levels=3):
    rows = rate_table(log)
    return [row[3] for row in rows[-(n_levels - 1):]]


# ---------------------------------------------------------------- criteria


def test_criterion_1_a_priori_rates(heat_uniform_runs):
    run_p1, run_p2 = heat_uniform_runs
    orders_p1 = _orders_last_levels(run_p1)
    orders_p2 = _orders_last_levels(run_p2)
    ok1 = all(0.85 <= o <= 1.15 for o in orders_p1)
    ok2 = all(1.8 <= o <= 2.2 for o in orders_p2)
    _report(
        "criterion-1 a-priori-rates",
        ok1 and ok2,
        f"p=1 orders {np.round(orders_p1, 3)}, p=2 orders {np.round(orders_p2, 3)}",
    )


def test_criterion_2_estimator_equivalence(heat_uniform_runs):
    worst = 0.0
    for log in heat_uniform_runs:
        ratios = log.estimators() / log.errors()
        worst = max(worst, float(ratios.max() / ratios.min()))
    _report("criterion-2 estimator-equivalence", worst <= 4.0, f"ratio band {worst:.3f}")


def test_criterion_3_convection_reaction(adaptive_logs):
    details = []
    ok = True
    for (case_name, strategy, form), log in adaptive_logs.items():
        if case_name != "convection-reaction":
            continue
        eta = log.estimators()
        reduced = eta[-1] <= 0.1 * eta[0]
        decreasing = bool(np.all(np.diff(eta[-5:]) < 0))
        ok = ok and reduced and decreasing
        details.append(f"{strategy.value}/{form.value}: {eta[-1] / eta[0]:.3f}")
    _report("criterion-3 convection-reaction", ok, ", ".join(details))


def test_criterion_3_incompatible_trend(adaptive_logs):
    details = []
    ok = True
    for strategy in (MarkStrategy.DOERFLER, MarkStrategy.MAXIMUM):
        log = adaptive_logs[("incompatible", strategy, ConvectionForm.FLUX)]
        eta = log.estimators()
        decreasing = bool(np.all(np.diff(eta[-5:]) < 0))
        ok = ok and decreasing
        details.append(f"{strategy.value}: last-5 strictly decreasing {decreasing}")
    _report("criterion-3 incompatible-trend", ok, ", ".join(details))


@pytest.mark.parametrize("strategy", [MarkStrategy.DOERFLER, MarkStrategy.MAXIMUM])
@pytest.mark.xfail(
    strict=True,
    reason="corner-singular incompatible case: the 25-iteration budget stops at "
    "eta/eta_0 = 0.367 (Doerfler, 8,686 dofs) and 0.347 (maximum, 11,396 dofs); "
    "Doerfler reaches 0.208 at 367,596 dofs with eta ~ dofs^-0.145, so 0.1 needs "
    "on the order of 1e7-1e8 dofs",
)
def test_criterion_3_incompatible_reduction(adaptive_logs, strategy):
    log = adaptive_logs[("incompatible", strategy, ConvectionForm.FLUX)]
    eta = log.estimators()
    reduction = eta[-1] / eta[0]
    _report(
        f"criterion-3 incompatible-reduction ({strategy.value})",
        reduction <= 0.1,
        f"final/initial {reduction:.3f} at {log.records[-1].dofs} dofs "
        f"after {len(log.records) - 1} iterations",
    )


def test_criterion_4_galerkin_orthogonality(heat_uniform_runs, adaptive_logs, poisson_uniform_run):
    defects = []
    for log in list(heat_uniform_runs) + list(adaptive_logs.values()) + [poisson_uniform_run]:
        defects.extend(r.solver.galerkin_defect for r in log.records)
    worst = max(defects)
    _report(
        "criterion-4 galerkin-orthogonality",
        worst <= 1e-7,
        f"max normalized defect {worst:.2e} over {len(defects)} solves",
    )


def test_criterion_5_coercivity():
    worst = np.inf
    details = []
    for name in ("heat-smooth", "convection-reaction", "variable-a", "poisson"):
        if name == "poisson":
            system, _ = poisson_sine_case()
        else:
            problem, _ = make_problem(name)
            system = parabolic_system(problem)
        mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 3, 3)
        dofmap = build_dofmap(
            mesh, 1, n_u2_components=system.n_flux, dirichlet_tags=system.dirichlet_tags
        )
        assert dofmap.n_dofs <= 200
        dense, _ = oracles.dense_assemble(mesh, dofmap, system)
        lam = oracles.min_eigenvalue(dense)
        worst = min(worst, lam)
        details.append(f"{name}: {lam:.2e}")
    _report("criterion-5 coercivity-spd", worst > 0.0, ", ".join(details))


def test_criterion_6_oracle_equivalence():
    worst_mat = 0.0
    worst_solve = 0.0
    for name, p in (
        ("heat-smooth", 1),
        ("heat-smooth", 2),
        ("variable-a", 1),
        ("poisson", 1),
        ("poisson", 2),
    ):
        if name == "poisson":
            system, _ = poisson_sine_case()
        else:
            problem, _ = make_problem(name)
            system = parabolic_system(problem)
        nt, nx = (4, 4) if p == 1 else (2, 2)
        mesh = uniform_initial_mesh(1.0, (0.0, 1.0), nt, nx)
        dofmap = build_dofmap(
            mesh, p, n_u2_components=system.n_flux, dirichlet_tags=system.dirichlet_tags
        )
        if dofmap.n_dofs > oracles.MAX_DENSE_DOFS:
            mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
            dofmap = build_dofmap(
                mesh, p, n_u2_components=system.n_flux, dirichlet_tags=system.dirichlet_tags
            )
        assert mesh.n_elements <= 32
        sparse_system = assemble(mesh, dofmap, system)
        dense, dense_rhs = oracles.dense_assemble(mesh, dofmap, system)
        rel = np.linalg.norm(sparse_system.matrix.toarray() - dense) / np.linalg.norm(dense)
        worst_mat = max(worst_mat, rel)
        x_cg, report = solve_cg(sparse_system.matrix, sparse_system.rhs)
        x_direct = oracles.dense_solve(dense, dense_rhs)
        worst_solve = max(
            worst_solve, float(np.linalg.norm(x_cg - x_direct) / np.linalg.norm(x_direct))
        )
        assert report.converged
    ok = worst_mat <= 1e-12 and worst_solve <= 1e-8
    _report(
        "criterion-6 oracle-equivalence",
        ok,
        f"max matrix rel {worst_mat:.2e}, max solve rel {worst_solve:.2e}",
    )


@pytest.mark.parametrize("p", [1, 2])
def test_criterion_7_exact_reproduction(p):
    rng = np.random.default_rng(17 + p)
    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh = _mesh0()
    dofmap = build_dofmap(mesh, p, n_u2_components=1, dirichlet_tags=system.dirichlet_tags)
    target = rng.standard_normal(dofmap.n_dofs)
    wrapped = oracles.discrete_image_system(mesh, dofmap, system, target)

    sparse_system = assemble(mesh, dofmap, wrapped)
    coeffs, report = solve_cg(sparse_system.matrix, sparse_system.rhs)
    eta = compute_indicators(mesh, coeffs, wrapped, sparse_system.level).total
    f_norm = data_norm(sparse_system.level)
    coeff_err = np.linalg.norm(coeffs - target) / np.linalg.norm(target)
    ok = report.converged and eta <= 1e-8 * f_norm and coeff_err <= 1e-8
    _report(
        f"criterion-7 exact-reproduction (p={p})",
        ok,
        f"eta/|f| {eta / f_norm:.2e}, coeff err {coeff_err:.2e}",
    )


def test_criterion_8_mesh_invariants():
    rng = np.random.default_rng(2024)
    initial = _mesh0()
    mesh = initial
    ancestor = np.arange(mesh.n_elements)
    classes = {k: set() for k in range(initial.n_elements)}
    ok = True
    for _ in range(100):
        marks = rng.choice(
            mesh.n_elements, size=rng.integers(1, max(2, mesh.n_elements // 4)), replace=False
        )
        refined = bisect(mesh, marks)
        ok = ok and is_conforming(refined)

        areas_prev = element_measures(mesh)
        areas = element_measures(refined)
        bisected = np.zeros(mesh.n_elements, dtype=bool)
        for child in range(refined.n_elements):
            parent = int(refined.refined_from[child])
            depth = int(refined.generation[child] - mesh.generation[parent])
            if depth > 0:
                bisected[parent] = True
            ok = ok and abs(areas[child] - areas_prev[parent] / 2.0**depth) <= 1e-12 * areas_prev[parent]
        ok = ok and bool(np.all(bisected[marks]))

        ancestor = ancestor[refined.refined_from]
        angles = np.round(sorted_angles(refined), 9)
        for e in range(refined.n_elements):
            classes[int(ancestor[e])].add(tuple(angles[e]))
        mesh = refined
        if mesh.n_elements > 10000:
            mesh = initial
            ancestor = np.arange(mesh.n_elements)
    max_classes = max(len(s) for s in classes.values())
    ok = ok and max_classes <= 8
    _report(
        "criterion-8 mesh-invariants",
        ok,
        f"100 trials, max similarity classes per initial triangle {max_classes}",
    )


def test_criterion_9_marking_properties():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        eta = rng.random(int(rng.integers(1, 50)))
        theta = float(rng.uniform(0.05, 1.0))
        md = mark_doerfler(eta, theta)
        mm = mark_maximum(eta, theta)
        unmarked_d = np.setdiff1d(np.arange(eta.size), md)
        unmarked_m = np.setdiff1d(np.arange(eta.size), mm)
        if unmarked_d.size:
            ok = ok and eta[unmarked_d].max() <= eta[md].min()
        if unmarked_m.size:
            ok = ok and eta[unmarked_m].max() <= eta[mm].min()
        ok = ok and verify_marking_property(eta, md) and verify_marking_property(eta, mm)
        if md.size > 1:
            drop = md[np.argmin(eta[md])]
            kept = np.array([k for k in md if k != drop])
            ok = ok and np.sum(eta[kept] ** 2) < theta * np.sum(eta**2)

    # theta edge cases
    eta = np.array([3.0, 2.0, 1.0, 0.0])
    ok = ok and set(mark_doerfler(eta, 1.0)) == {0, 1, 2}
    ok = ok and set(mark_maximum(eta, 0.0)) == {0}
    ok = ok and set(mark_maximum(eta, 1.0)) == {0, 1, 2, 3}
    try:
        mark_doerfler(eta, 0.0)
        ok = False
    except ValueError:
        pass
    _report("criterion-9 marking-properties", ok, "100 random vectors + edge cases")


def test_criterion_10_poisson_instance(poisson_uniform_run):
    orders = _orders_last_levels(poisson_uniform_run)
    rate_ok = all(0.85 <= o <= 1.15 for o in orders)
    defect_ok = max(r.solver.galerkin_defect for r in poisson_uniform_run.records) <= 1e-7
    _report(
        "criterion-10 poisson-instance",
        rate_ok and defect_ok,
        f"orders {np.round(orders, 3)}, max defect "
        f"{max(r.solver.galerkin_defect for r in poisson_uniform_run.records):.2e} "
        "(spd and oracle equivalence covered in criteria 5 and 6)",
    )
