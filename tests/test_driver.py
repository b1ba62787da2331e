import math
import time

import numpy as np
import pytest

from stfosls.driver import (
    RunLog,
    RunRecord,
    SolverReport,
    StopCriteria,
    rate_table,
    run,
    write_runlog_csv,
)
from stfosls.marking import MarkingConfig, MarkStrategy
from stfosls.mesh import is_conforming, uniform_initial_mesh
from stfosls.problem import ParabolicProblem, make_problem
from helpers import galerkin_defect

DOERFLER = MarkingConfig(MarkStrategy.DOERFLER, 0.5)


def _zero_problem():
    zero = lambda t, x: np.zeros_like(np.asarray(t, dtype=float))
    return ParabolicProblem(
        lambda t, x: np.ones_like(np.asarray(t, dtype=float)), zero, zero,
        f1=zero, f2=zero, u0=lambda x: 0.0 * np.asarray(x, dtype=float),
    )


def test_stop_criteria_requires_a_criterion():
    with pytest.raises(ValueError):
        StopCriteria()
    with pytest.raises(ValueError):
        StopCriteria(max_iterations=-1)
    with pytest.raises(ValueError):
        StopCriteria(max_dofs=0)
    for tol in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="estimator_tolerance"):
            StopCriteria(max_iterations=3, estimator_tolerance=tol)


def test_solver_failure_aborts_run(monkeypatch):
    import stfosls.driver as driver_mod
    from stfosls.driver import SolverFailure

    def stalled(matrix, rhs):
        return np.zeros_like(rhs), SolverReport(
            iterations=1, relative_residual=1.0, backward_error=1.0, galerkin_defect=1.0, converged=False
        )

    monkeypatch.setattr(driver_mod, "solve_cg", stalled)
    problem, _ = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    with pytest.raises(SolverFailure):
        run(problem, mesh, 1, StopCriteria(max_iterations=2), DOERFLER)


def test_non_finite_level_solve_aborts_run(monkeypatch):
    """A NaN in the fourth LU solve of a run ends the run at that level
    with a SolverFailure naming its dofs, after 4 solves in all."""
    from stfosls import assembly
    from stfosls.driver import SolverFailure

    factor = assembly._lu_solve
    solves = []

    def poisoned(matrix):
        solve = factor(matrix)

        def nan_after_three(r):
            solves.append(r.size)
            x = solve(r)
            if len(solves) >= 4:
                x[0] = np.nan
            return x

        return nan_after_three

    monkeypatch.setattr(assembly, "_lu_solve", poisoned)
    problem, _ = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    message = r"on 544 dofs stopped after 1 LU solve\(s\) at relative residual nan"
    with pytest.raises(SolverFailure, match=message):
        run(problem, mesh, 1, StopCriteria(max_iterations=5))
    assert solves == [12, 40, 144, 544]


def _record_level_solves(monkeypatch):
    """Make the driver's level solve append (matrix, rhs, x, report) to the
    returned list."""
    import stfosls.driver as driver_mod
    from stfosls.assembly import solve_cg

    solves = []

    def recording(matrix, rhs):
        x, report = solve_cg(matrix, rhs)
        solves.append((matrix, rhs, x, report))
        return x, report

    monkeypatch.setattr(driver_mod, "solve_cg", recording)
    return solves


def _solved_in_double(matrix, rhs, x):
    """Whether x solves matrix x = rhs in the documented sense, recomputed
    from (matrix, x, rhs): a relative residual ||r||_2 / ||b||_2 <= 1e-10, or
    a normwise backward error ||r||_inf / (||M||_inf ||x||_inf + ||b||_inf)
    at most 16 u."""
    r = rhs - matrix @ x
    if np.linalg.norm(r) <= 1e-10 * np.linalg.norm(rhs):
        return True
    m_inf = abs(matrix).sum(axis=1).max()
    return np.abs(r).max() <= 16 * 2.0**-53 * (m_inf * np.abs(x).max() + np.abs(rhs).max())


def test_level_solve_on_graded_mesh(monkeypatch):
    """Every level solve of a graded run takes at most two LU solves and
    is solved in the true residual or backward error; the finest one agrees
    with plain CG."""
    from stfosls import oracles

    solves = _record_level_solves(monkeypatch)
    problem, _ = make_problem("incompatible")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_dofs=1000), DOERFLER)
    assert 1000 <= log.records[-1].dofs <= 2000
    assert len(solves) == len(log.records) >= 10
    for matrix, rhs, x, report in solves:
        assert report.converged and report.iterations <= 2
        assert _solved_in_double(matrix, rhs, x)
    matrix, rhs, x, _ = solves[-1]
    x_cg, cg_report = oracles.plain_cg(matrix, rhs, rel_tol=1e-12)
    assert cg_report.converged
    assert np.linalg.norm(x - x_cg) / np.linalg.norm(x_cg) <= 1e-8


@pytest.fixture(scope="module")
def benchmark_solves():
    """(matrix, rhs, x, report) of every level solve of the benchmark's
    ``graded-p1`` run and of its ``rate-sweep`` run heat-smooth-flux-p2,
    with the records of each run."""
    runs = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, case, p, stop, marking in (
            ("graded-p1", "incompatible", 1, StopCriteria(max_iterations=40, estimator_tolerance=0.33), DOERFLER),
            ("heat-smooth-flux-p2", "heat-smooth", 2, StopCriteria(max_iterations=3), None),
        ):
            solves = _record_level_solves(monkeypatch)
            log = run(make_problem(case)[0], uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), p, stop, marking)
            runs[name] = solves, log.records
    return runs


def test_level_report_carries_the_galerkin_defect(benchmark_solves):
    """On every level of both runs the report's defect is max|b - M x| / ||b||_2
    of the returned x, and the run record carries that report."""
    graded, sweep = benchmark_solves["graded-p1"], benchmark_solves["heat-smooth-flux-p2"]
    assert graded[1][-1].dofs == 8686 and sweep[1][-1].dofs == 2112
    for solves, records in (graded, sweep):
        assert [r.solver for r in records] == [report for *_, report in solves]
        for matrix, rhs, x, report in solves:
            assert report.galerkin_defect == pytest.approx(galerkin_defect(matrix, rhs, x), rel=1e-15)
            assert 0.0 < report.galerkin_defect <= 1e-7


@pytest.mark.parametrize("name", ["graded-p1", "heat-smooth-flux-p2"])
def test_tiny_load_is_solved_like_its_unscaled_load(benchmark_solves, name):
    """A load scaled by 2^-900, whose 2-norm underflows in plain double
    precision, is still solved: the same solves and flag as unscaled, and
    the unscaled solution times 2^-900."""
    from stfosls.assembly import solve_cg

    matrix, rhs, x, report = benchmark_solves[name][0][-1]
    scaled_x, scaled = solve_cg(matrix, np.ldexp(rhs, -900))
    assert np.linalg.norm(np.ldexp(rhs, -900)) == 0.0
    assert scaled.iterations == report.iterations >= 1
    assert scaled.converged == report.converged
    assert np.abs(np.ldexp(scaled_x, 900) - x).max() <= 1e-12 * np.abs(x).max()


def test_one_geometry_per_level_with_exact_solution(monkeypatch):
    """Assembly, indicators and the error share one geometry per level."""
    from stfosls import assembly

    calls = {"affine_maps": 0, "_initial_facet_tables": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(assembly, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(assembly, name, counted)
    problem, exact = make_problem("heat-smooth")
    log = run(problem, uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), 1,
              StopCriteria(max_iterations=2), exact=exact)
    assert [r.error is not None for r in log.records] == [True] * 3
    assert calls == {"affine_maps": 3, "_initial_facet_tables": 3}


@pytest.mark.parametrize("name", ["heat-smooth", "incompatible"])
def test_level_forms_block_geometry_twice(name, monkeypatch):
    """A solved level forms each block's points and weights times det J
    twice: in assemble's one block walk, which writes the data and the
    images from them, and in element_fields, whose blocks the indicators
    share with the error when the case has an exact solution."""
    from stfosls import assembly

    calls = {"points": 0, "wdet": 0}
    for method in calls:
        def counted(level, block=slice(None), _method=method, _original=getattr(assembly.LevelData, method)):
            calls[_method] += 1
            return _original(level, block)
        monkeypatch.setattr(assembly.LevelData, method, counted)
    problem, exact = make_problem(name)
    assert (exact is None) == (name == "incompatible")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 40, 40)
    n_blocks = len(assembly._blocks(mesh.n_elements))
    assert mesh.n_elements == 3200 and n_blocks == 4
    assert len(run(problem, mesh, 1, StopCriteria(max_iterations=0), exact=exact).records) == 1
    assert calls == {"points": 2 * n_blocks, "wdet": 2 * n_blocks}


def test_zero_data_stops_at_level_zero():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(_zero_problem(), mesh, 1, StopCriteria(max_iterations=10), DOERFLER)
    assert len(log.records) == 1
    assert log.reason == "converged"
    assert log.records[0].estimator == 0.0


def test_adaptive_heat_estimator_decreases():
    problem, exact = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_dofs=5000), DOERFLER, exact=exact)
    eta = log.estimators()
    assert log.reason == "max_dofs"
    assert np.all(np.diff(eta[-5:]) < 0)
    assert eta[-1] < eta[0]
    assert all(r.solver.galerkin_defect <= 1e-7 for r in log.records)
    dofs = log.dofs()
    assert np.all(np.diff(dofs) >= 0)


def test_adaptive_meshes_stay_conforming():
    problem, _ = make_problem("incompatible")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_iterations=8), DOERFLER)
    assert log.final_mesh is not None
    assert is_conforming(log.final_mesh)


def test_incompatible_concentrates_near_initial_time():
    """By level 10 the share of elements near t = 0 exceeds the share a
    uniform mesh of comparable size would have."""
    problem, _ = make_problem("incompatible")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_iterations=10), DOERFLER)
    final = log.final_mesh

    def fraction_near_zero(m, cut=0.1):
        tmin = m.points[m.elements][:, :, 0].min(axis=1)
        return float(np.mean(tmin < cut))

    n = max(2, int(round(math.sqrt(final.n_elements / 2.0))))
    uniform = uniform_initial_mesh(1.0, (0.0, 1.0), n, n)
    assert fraction_near_zero(final) > fraction_near_zero(uniform)


def test_uniform_run_zero_data():
    from stfosls.problem import _parabolic_case

    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    problem = _zero_problem()
    zero = lambda t, x: np.zeros_like(np.asarray(t, dtype=float))
    _, zero_exact = _parabolic_case(problem.diffusion, problem.convection, problem.reaction, problem.form,
                                    *[zero] * 5)
    log = run(problem, mesh, 1, StopCriteria(max_iterations=2), exact=zero_exact)
    assert len(log.records) == 3 and log.reason == "levels"
    assert np.all(log.estimators() == 0.0)
    assert np.all(log.errors() == 0.0)


def test_uniform_run_halves_mesh_width():
    problem, _ = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_iterations=2))
    elems = np.array([r.elements for r in log.records])
    assert np.array_equal(elems, [8, 32, 128])


def test_uniform_p1_33k_level_solve_has_no_cliff(monkeypatch):
    """Seven uniform levels to 33,024 dofs.  SuperLU's default relaxed
    supernodes took about 42 s for the last level's factorization; without them the
    whole run takes about a second."""
    solves = _record_level_solves(monkeypatch)
    problem, _ = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    start = time.perf_counter()
    log = run(problem, mesh, 1, StopCriteria(max_iterations=6))
    elapsed = time.perf_counter() - start
    assert log.records[-1].dofs == 33_024 and len(log.records) == len(solves) == 7
    for matrix, rhs, x, report in solves:
        assert report.converged and report.iterations <= 2
        assert _solved_in_double(matrix, rhs, x)
    assert elapsed < 10.0, f"uniform run to 33,024 dofs took {elapsed:.1f} s"


def test_estimator_monotone_under_uniform_refinement():
    problem, _ = make_problem("convection-reaction")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_iterations=3))
    eta = log.estimators()
    assert np.all(eta[1:] <= eta[:-1] + 1e-10)


def _fake_log(entries):
    records = [
        RunRecord(
            level=i, dofs=d, elements=d, estimator=e, error=err, marked=0,
            solver=SolverReport(1, 0.0, 0.0, 0.0, True),
        )
        for i, (d, e, err) in enumerate(entries)
    ]
    return RunLog(records=records, reason="levels")


def test_rate_table_hand_examples():
    # error ratio 2 under mesh-width ratio 2 (dofs ratio 4) -> order 1
    log = _fake_log([(100, 1.0, 2.0), (400, 0.5, 1.0)])
    rows = rate_table(log)
    assert rows[0][3] is None
    assert rows[1][3] == pytest.approx(1.0, abs=1e-12)

    constant = _fake_log([(100, 1.0, 0.7), (400, 1.0, 0.7)])
    assert rate_table(constant)[1][3] == 0.0

    # a record without an error: the orders rate the estimator (ratio 4 -> order 2)
    partial = _fake_log([(100, 1.0, 2.0), (400, 0.25, None)])
    assert rate_table(partial)[1][3] == pytest.approx(2.0, abs=1e-12)

    with pytest.raises(ValueError):
        rate_table(_fake_log([(100, 1.0, 1.0)]))


def test_rate_table_reproduces_uniform_rates():
    problem, exact = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_iterations=3), exact=exact)
    orders = [row[3] for row in rate_table(log)[1:]]
    assert all(0.85 <= o <= 1.3 for o in orders)


def test_runlog_csv_format(tmp_path):
    problem, exact = make_problem("heat-smooth")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    log = run(problem, mesh, 1, StopCriteria(max_iterations=1), exact=exact)
    path = tmp_path / "runlog.csv"
    write_runlog_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,dofs,elements,estimator,error,marked,cg_iters"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "12" and first[2] == "8"
    assert float(first[3]) > 0 and float(first[4]) > 0

    # error column is empty without a manufactured reference
    problem2, _ = make_problem("incompatible")
    log2 = run(problem2, mesh, 1, StopCriteria(max_iterations=1), DOERFLER)
    path2 = tmp_path / "runlog2.csv"
    write_runlog_csv(log2, path2)
    row = path2.read_text().splitlines()[1].split(",")
    assert row[4] == ""


def test_runs_are_deterministic(tmp_path):
    problem, _ = make_problem("incompatible")
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    out = []
    for tag in ("a", "b"):
        log = run(problem, mesh, 1, StopCriteria(max_iterations=6), DOERFLER)
        path = tmp_path / f"log_{tag}.csv"
        write_runlog_csv(log, path)
        out.append(path.read_bytes())
    assert out[0] == out[1]


def test_marking_property_holds_every_iteration():
    """Replicate the loop by hand and verify the marking property per level."""
    from stfosls.assembly import assemble, solve_cg
    from stfosls.estimator import compute_indicators
    from stfosls.marking import mark, verify_marking_property
    from stfosls.mesh import bisect
    from stfosls.spaces import build_dofmap
    from stfosls.system import parabolic_system

    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    for _ in range(5):
        dofmap = build_dofmap(mesh, 1, n_u2_components=1, dirichlet_tags=system.dirichlet_tags)
        sparse_system = assemble(mesh, dofmap, system)
        coeffs, report = solve_cg(sparse_system.matrix, sparse_system.rhs)
        assert report.converged
        indicators = compute_indicators(mesh, coeffs, system, sparse_system.level)
        marks = mark(indicators.per_element, DOERFLER)
        assert verify_marking_property(indicators.per_element, marks)
        mesh = bisect(mesh, marks)

    log = run(problem, uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), 1,
              StopCriteria(max_iterations=5), DOERFLER)
    assert log.reason == "max_iterations"
    assert all(r.marked > 0 for r in log.records[:-1])
