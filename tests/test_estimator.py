import copy
import dataclasses

import numpy as np
import pytest

from helpers import efficiency_reliability_ratio, element_areas, error_contributions
from stfosls import oracles
from stfosls.assembly import assemble, solve_cg
from stfosls.estimator import _initial_trace, compute_indicators, data_norm, u_norm_error
from stfosls.marking import MarkingConfig, MarkStrategy, mark
from stfosls.mesh import bisect, uniform_initial_mesh
from stfosls.problem import make_problem
from stfosls.spaces import build_dofmap, level_tables
from stfosls.system import parabolic_system


def _solve(name="heat-smooth", p=1, nt=2, nx=2):
    problem, exact = make_problem(name)
    system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), nt, nx)
    dofmap = build_dofmap(mesh, p, system)
    level = assemble(mesh, dofmap, system)
    coeffs, report = solve_cg(level.matrix, level.rhs)
    assert report.converged
    return mesh, dofmap, system, coeffs, exact, level


def test_coefficient_vector_of_wrong_length_rejected():
    """The indicators and the error read one coefficient per dof of the
    level: a vector one short or one long raises ValueError naming both
    lengths instead of reading a padded zero or ignoring the extra entry."""
    mesh, dofmap, system, coeffs, exact, level = _solve()
    assert dofmap.n_dofs == 12
    for bad in (coeffs[:-1], np.append(coeffs, 7.0)):
        with pytest.raises(ValueError, match=rf"\({bad.size},\).* 12 dofs"):
            compute_indicators(mesh, bad, system, level)
        with pytest.raises(ValueError, match=rf"\({bad.size},\).* 12 dofs"):
            u_norm_error(bad, exact, system, level)
    with pytest.raises(ValueError):
        _initial_trace(coeffs[:-1], level)
    assert _initial_trace(coeffs, level).shape == level.facet_x.shape


def test_indicator_additivity():
    mesh, _, system, coeffs, _, level = _solve(nt=3, nx=3)
    ind = compute_indicators(mesh, coeffs, system, level)
    total_sq = float(np.sum(ind.per_element**2))
    assert abs(ind.total**2 - total_sq) <= 1e-13 * max(total_sq, 1.0)


def test_zero_solution_indicator_is_data_norm():
    """With u = 0 and data (0, f1, 0), each indicator is the local f1 mass."""
    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    # remove the initial datum so only f1 remains
    stripped = dataclasses.replace(problem, u0=lambda x: 0.0 * np.asarray(x, dtype=float))
    system = parabolic_system(stripped)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dofmap = build_dofmap(mesh, 1, system)
    rules = level_tables(1)
    ind = compute_indicators(mesh, np.zeros(dofmap.n_dofs), system, assemble(mesh, dofmap, system))

    coords = mesh.points[mesh.elements]
    for k in range(mesh.n_elements):
        pts = np.einsum("qk,kc->qc", rules.quad_points, coords[k])
        f1 = np.broadcast_to(stripped.f1(pts[:, 0], pts[:, 1]), pts.shape[:1])
        local = float(np.dot(rules.quad_weights, f1**2)) * 2.0 * element_areas(mesh)[k]
        assert ind.per_element[k] ** 2 == pytest.approx(local, rel=1e-10)


def test_global_estimator_matches_flat_sweep():
    """eta equals the residual norm computed without any element partition."""
    mesh, dofmap, system, coeffs, _, level = _solve("convection-reaction", p=1, nt=2, nx=3)
    ind = compute_indicators(mesh, coeffs, system, level)
    sweep = oracles.residual_norm_sweep(mesh, coeffs, dofmap, system)
    assert abs(ind.total - sweep) <= 1e-13 * max(1.0, sweep)


def test_exact_discrete_data_gives_zero_estimator():
    """Data manufactured as the image of a discrete field: eta ~ 0."""
    rng = np.random.default_rng(9)
    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dofmap = build_dofmap(mesh, 1, system)
    target = rng.standard_normal(dofmap.n_dofs)
    wrapped = oracles.discrete_image_system(mesh, dofmap, system, target)

    level = assemble(mesh, dofmap, wrapped)
    coeffs, report = solve_cg(level.matrix, level.rhs)
    assert report.converged
    assert np.linalg.norm(coeffs - target) <= 1e-8 * np.linalg.norm(target)
    eta = compute_indicators(mesh, coeffs, wrapped, level).total
    assert eta <= 1e-8 * data_norm(level)


def test_discrete_image_system_is_the_wrapped_system_but_its_data():
    """Every attribute but the two data methods is the wrapped system's, and
    a copy, whose attributes are looked up before any is set, does not
    recurse into the delegation."""
    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dofmap = build_dofmap(mesh, 1, system)
    wrapped = oracles.discrete_image_system(mesh, dofmap, system, np.zeros(dofmap.n_dofs))
    assert wrapped.problem is problem and wrapped.form is system.form
    assert wrapped.residual_u2 == system.residual_u2 and wrapped.divergence is system.divergence
    assert wrapped.data_initial != system.data_initial
    assert copy.copy(wrapped).n_interior == system.n_interior
    with pytest.raises(AttributeError):
        type(wrapped).__new__(type(wrapped)).n_flux


def test_unrefined_elements_keep_indicators():
    """Refining far-away elements leaves local indicators of a fixed field
    unchanged (pure re-evaluation; the held field is representable on both
    meshes)."""
    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 4, 4)
    dofmap = build_dofmap(mesh, 1, system)
    # u1 = 0, u2 = 1 is in the space on every refinement
    coeffs = np.zeros(dofmap.n_dofs)
    coeffs[dofmap.cell_dofs[3:]] = 1.0  # every u2 dof
    base = compute_indicators(mesh, coeffs, system, assemble(mesh, dofmap, system))

    marks = [k for k in range(mesh.n_elements) if mesh.points[mesh.elements][k, :, 0].min() > 0.5]
    refined = bisect(mesh, marks)
    dofmap_r = build_dofmap(refined, 1, system)
    coeffs_r = np.zeros(dofmap_r.n_dofs)
    coeffs_r[dofmap_r.cell_dofs[3:]] = 1.0
    after = compute_indicators(refined, coeffs_r, system, assemble(refined, dofmap_r, system))
    for new, old in enumerate(refined.refined_from):
        if refined.generation[new] == mesh.generation[old]:
            assert after.per_element[new] == pytest.approx(base.per_element[old], rel=1e-14)


def test_u_norm_error_zero_solution_equals_fine_norm():
    """Zero discrete solution: error report equals the reference norm."""
    mesh, dofmap, system, _, exact, level = _solve("heat-smooth", nt=3, nx=2)
    report = u_norm_error(np.zeros(dofmap.n_dofs), exact, system, level)
    reference = oracles.fine_norm(exact, mesh, system, degree=4)  # the p = 1 level rule
    assert report.total == pytest.approx(reference, rel=1e-10)


def test_error_report_sum_of_squares():
    mesh, _, system, coeffs, exact, level = _solve("convection-reaction")
    report = u_norm_error(coeffs, exact, system, level)
    parts = error_contributions(report)
    assert all(p >= 0 for p in parts)
    assert report.total**2 == pytest.approx(sum(p**2 for p in parts), rel=1e-13)


def test_efficiency_ratio_flags():
    from stfosls.estimator import ErrorReport, Indicators

    ind = Indicators(per_element=np.array([0.0]), total=0.0)
    zero_report = ErrorReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert efficiency_reliability_ratio(ind, zero_report) == float("inf")

    mesh, dofmap, system, _, exact, level = _solve("heat-smooth")
    zero = np.zeros(dofmap.n_dofs)
    report = u_norm_error(zero, exact, system, level)
    ind = compute_indicators(mesh, zero, system, level)
    ratio = efficiency_reliability_ratio(ind, report)
    assert 0.0 < ratio < float("inf")


def test_efficiency_ratio_stable_across_uniform_levels():
    """Estimator/error ratio: band < 2 over four uniform refinements and
    < 4 over a six-level sequence (two-sided equivalence)."""
    from stfosls.driver import StopCriteria, run

    problem, exact = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(parabolic_system(problem), mesh, 1, StopCriteria(max_iterations=5), exact=exact)
    ratios = log.estimators() / log.errors()
    assert ratios[:4].max() / ratios[:4].min() < 2.0
    assert ratios.max() / ratios.min() < 4.0


def test_fine_norm_examples():
    problem, exact = make_problem("heat-smooth")
    system = parabolic_system(problem)

    from stfosls.problem import ExactFields

    zero_field = ExactFields(
        u1=lambda t, x: 0.0,  # a number broadcasts against the points
        u1_grad=lambda t, x: np.zeros((2,) + np.shape(np.asarray(t))),
        u2=lambda t, x: np.zeros((1,) + np.shape(np.asarray(t))),
        div=lambda t, x: 0.0,
    )
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    assert oracles.fine_norm(zero_field, mesh, system) == 0.0

    # partition independence (additive seminorms)
    finer = bisect(mesh, [0, 1, 2])
    a = oracles.fine_norm(exact, mesh, system, degree=12)
    b = oracles.fine_norm(exact, finer, system, degree=12)
    assert a == pytest.approx(b, rel=1e-12)

    # the initial-trace component of u = e^{-t} sin(pi x) has norm sqrt(1/2)
    trace_only = ExactFields(
        u1=exact.u1,
        u1_grad=lambda t, x: np.zeros((2,) + np.shape(np.asarray(t))),
        u2=lambda t, x: np.zeros((1,) + np.shape(np.asarray(t))),
        div=lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
    )
    # isolate the trace term by subtracting the interior u1 mass
    full = oracles.fine_norm(trace_only, mesh, system, degree=12) ** 2
    no_trace_system, _ = (parabolic_system(problem), None)

    class NoTrace:
        spatial_axes = system.spatial_axes
        has_initial_trace = False

    interior = oracles.fine_norm(trace_only, mesh, NoTrace(), degree=12) ** 2
    assert full - interior == pytest.approx(0.5, rel=1e-12)


def _prolongation(coarse_mesh, coarse_dofmap, coarse_coeffs, dofmap, n_flux):
    """The coefficients, in the fine ``dofmap``, of the coarse solution:
    every fine dof takes the coarse field's value at its scalar node, found
    by the oracles' point location and field evaluation.  The scalar node
    of local function a on element K is read off the first u2 block."""
    nloc = dofmap.cell_dofs.shape[0] // (1 + n_flux)
    n_u1 = dofmap.n_dofs - n_flux * dofmap.node_coords.shape[0]
    coeffs, located = np.zeros(dofmap.n_dofs), {}
    for row, dofs in enumerate(dofmap.cell_dofs):
        field, a = divmod(row, nloc)
        for k, dof in enumerate(dofs):
            if dof < 0:  # a constrained u1 dof
                continue
            node = dofmap.cell_dofs[nloc + a, k] - n_u1
            if node not in located:
                located[node] = oracles.locate_point(coarse_mesh, *dofmap.node_coords[node])
            element, ref = located[node]
            coeffs[dof] = oracles.evaluate_field(coarse_coeffs, coarse_dofmap, coarse_mesh,
                                                 element, ref, field)[0]
    return coeffs


@pytest.mark.parametrize("name, p", [("incompatible", 1), ("incompatible", 2),
                                     ("heat-smooth", 2), ("convection-reaction", 1)])
def test_nested_levels_pythagoras(name, p):
    """On nested NVB levels the least-squares minimizer u of the fine level
    satisfies J(P u_c) = eta^2 + d^T M d, d = u - P u_c, with J the fine
    level's functional and P u_c the coarse minimizer written in the fine
    space (Fuehrer-Praetorius, CAMWA 2020).  Where the data are piecewise
    polynomial, as for ``incompatible`` (f = 0, u0 = 1), J(P u_c) is the
    coarse eta^2 too, so eta_c^2 - eta^2 = d^T M d.  The smooth cases miss
    that second identity by up to 1e-3 relative: their data's quadrature
    changes between the levels.  Four Doerfler steps from the 2 x 2 grid."""
    system = parabolic_system(make_problem(name)[0])
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    coarse = None
    for _ in range(5):
        dofmap = build_dofmap(mesh, p, system)
        level = assemble(mesh, dofmap, system)
        coeffs, report = solve_cg(level.matrix, level.rhs)
        assert report.converged
        indicators = compute_indicators(mesh, coeffs, system, level)
        eta2 = indicators.total ** 2
        if coarse is not None:
            coarse_mesh, coarse_dofmap, coarse_coeffs, coarse_eta2 = coarse
            prolonged = _prolongation(coarse_mesh, coarse_dofmap, coarse_coeffs, dofmap, system.n_flux)
            j_fine = compute_indicators(mesh, prolonged, system, level).total ** 2
            d = coeffs - prolonged
            update = d @ (level.matrix @ d)
            assert abs(j_fine - eta2 - update) <= 1e-10 * j_fine
            if name == "incompatible":
                assert abs(coarse_eta2 - eta2 - update) <= 1e-10 * coarse_eta2
        coarse = mesh, dofmap, coeffs, eta2
        mesh = bisect(mesh, mark(indicators.per_element, MarkingConfig(MarkStrategy.DOERFLER, 0.5)))
