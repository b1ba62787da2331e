"""Built-in self-checks backing the ``verify`` command.

Each check exercises a production path against an independent oracle or a
hand-computable property and reports pass/fail with a short detail string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .assembly import assemble, solve_cg
from .estimator import compute_indicators, data_norm
from .marking import mark_doerfler, mark_maximum, verify_marking_property
from .mesh import bisect, is_conforming, uniform_initial_mesh
from .problem import make_problem, sample
from .spaces import DegenerateElementError, affine_maps, build_dofmap, build_quadrature
from .system import parabolic_system, poisson_sine_case

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_quadrature_exactness() -> CheckResult:
    worst = 0.0
    for degree in range(0, 9):
        points, weights = build_quadrature(degree)
        xi, eta = points[:, 1], points[:, 2]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                approx = float(np.dot(weights, xi**a * eta**b))
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                worst = max(worst, abs(approx - exact) / exact)
    return CheckResult("quadrature-exactness", worst <= 1e-14, f"max rel err {worst:.2e}")


def _check_nvb_conformity(rng: np.random.Generator) -> CheckResult:
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    for _ in range(100):
        n_marks = int(rng.integers(0, max(2, mesh.n_elements // 3)))
        marks = rng.choice(mesh.n_elements, size=n_marks, replace=False)
        mesh = bisect(mesh, marks)
        if not is_conforming(mesh):
            return CheckResult("nvb-conformity", False, f"hanging node at {mesh.n_elements} elems")
        try:
            affine_maps(mesh)
        except DegenerateElementError as err:
            return CheckResult("nvb-conformity", False, str(err))
        if mesh.n_elements > 20000:
            mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    return CheckResult("nvb-conformity", True, "100 randomized refinement trials")


def _dense_case(name: str, p: int):
    if name == "poisson":
        system, _ = poisson_sine_case()
    else:
        problem, _ = make_problem(name)
        system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dofmap = build_dofmap(mesh, p, system)
    return mesh, dofmap, system


def _check_dense_equivalence() -> CheckResult:
    worst = 0.0
    for name, p in (("heat-smooth", 1), ("heat-smooth", 2), ("variable-a", 1), ("poisson", 1)):
        mesh, dofmap, system = _dense_case(name, p)
        level = assemble(mesh, dofmap, system)
        dense, dense_rhs = oracles.dense_assemble(mesh, dofmap, system)
        rel = np.linalg.norm(level.matrix.toarray() - dense) / np.linalg.norm(dense)
        rel_rhs = np.linalg.norm(level.rhs - dense_rhs) / max(np.linalg.norm(dense_rhs), 1e-30)
        worst = max(worst, rel, rel_rhs)
    return CheckResult("dense-assembly-equivalence", worst <= 1e-12, f"max rel err {worst:.2e}")


def _check_cg_vs_dense() -> CheckResult:
    mesh, dofmap, system = _dense_case("heat-smooth", 1)
    level = assemble(mesh, dofmap, system)
    x_direct = oracles.dense_solve(*oracles.dense_assemble(mesh, dofmap, system))
    solves = solve_cg(level.matrix, level.rhs), oracles.plain_cg(level.matrix, level.rhs)
    rel = [np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct) for x, _ in solves]
    ok = all(report.converged for _, report in solves) and max(rel) <= 1e-8
    return CheckResult("cg-vs-dense-solve", ok, f"rel diff LU solve {rel[0]:.2e}, plain CG {rel[1]:.2e}")


def _check_spd() -> CheckResult:
    worst = np.inf
    for name in ("heat-smooth", "convection-reaction", "variable-a", "poisson"):
        mesh, dofmap, system = _dense_case(name, 1)
        dense, _ = oracles.dense_assemble(mesh, dofmap, system)
        worst = min(worst, oracles.min_eigenvalue(dense))
    return CheckResult("spd-min-eigenvalue", worst > 0.0, f"min eigenvalue {worst:.3e}")


def _check_marking(rng: np.random.Generator) -> CheckResult:
    for _ in range(100):
        eta = rng.random(int(rng.integers(1, 40)))
        theta = float(rng.uniform(0.05, 1.0))
        for marks in (mark_doerfler(eta, theta), mark_maximum(eta, theta)):
            if not verify_marking_property(eta, marks):
                return CheckResult("marking-properties", False, "property violated")
        marks = mark_doerfler(eta, theta)
        if marks.size > 1:
            # minimality: dropping the smallest marked indicator breaks the bulk bound
            drop = marks[np.argmin(eta[marks])]
            reduced = np.array([m for m in marks if m != drop])
            if np.sum(eta[reduced] ** 2) >= theta * np.sum(eta**2) - 1e-14:
                return CheckResult("marking-properties", False, "Doerfler set not minimal")
    return CheckResult("marking-properties", True, "100 random indicator vectors")


def _check_exact_reproduction(rng: np.random.Generator) -> CheckResult:
    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dofmap = build_dofmap(mesh, 1, system)
    target = rng.standard_normal(dofmap.n_dofs)

    wrapped = oracles.discrete_image_system(mesh, dofmap, system, target)
    level = assemble(mesh, dofmap, wrapped)
    coeffs, report = solve_cg(level.matrix, level.rhs)
    err = np.linalg.norm(coeffs - target) / np.linalg.norm(target)
    eta = compute_indicators(mesh, coeffs, wrapped, level).total
    fnorm = data_norm(level)
    ok = report.converged and err <= 1e-8 and eta <= 1e-8 * fnorm
    return CheckResult(
        "exact-solution-reproduction", ok, f"coeff err {err:.2e}, eta/|f| {eta / fnorm:.2e}"
    )


def _check_manufactured_residual(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for name in ("heat-smooth", "convection-reaction", "variable-a"):
        problem, exact = make_problem(name)
        t = rng.random(1000)
        x = rng.random(1000)
        lhs = (
            exact.div(t, x)
            + sample(problem.convection, t, x) * exact.u1_grad(t, x)[1]
            + sample(problem.reaction, t, x) * exact.u1(t, x)
        )
        resid = np.abs(sample(problem.f1, t, x) - lhs).max()
        worst = max(worst, resid)
    return CheckResult("manufactured-residual", worst <= 1e-12, f"max residual {worst:.2e}")


def run_checks(seed: int = 0):
    """Run all built-in checks; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return [
        _check_quadrature_exactness(),
        _check_nvb_conformity(rng),
        _check_dense_equivalence(),
        _check_cg_vs_dense(),
        _check_spd(),
        _check_marking(rng),
        _check_exact_reproduction(rng),
        _check_manufactured_residual(rng),
    ]
