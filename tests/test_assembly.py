import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from stfosls import assembly, oracles
from stfosls.assembly import (
    _basis_gradients,
    _initial_facet_tables,
    _points,
    _residual_tables,
    _wdet,
    assemble,
    solve_cg,
)
from stfosls.driver import StopCriteria, run
from stfosls.estimator import compute_indicators, u_norm_error
from stfosls.marking import MarkingConfig, MarkStrategy
from stfosls.mesh import bisect, initial_facet_list, uniform_initial_mesh
from stfosls.problem import ParabolicProblem, make_problem
from stfosls.spaces import (
    build_dofmap,
    edge_reference_points,
    level_tables,
    reference_basis,
)
from stfosls.oracles import affine_map, eval_G
from stfosls.system import ConvectionForm, parabolic_system, poisson_sine_case
from helpers import galerkin_defect


def _setup(name="heat-smooth", p=1, nt=2, nx=2, form=ConvectionForm.FLUX):
    if name == "poisson":
        system, _ = poisson_sine_case()
    else:
        system = parabolic_system(make_problem(name)[0], form)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), nt, nx)
    dofmap = build_dofmap(mesh, p, system)
    return mesh, dofmap, system


def test_zero_data_zero_load():
    mesh, dofmap, system = _setup("incompatible")
    # strip the initial datum as well
    zero = lambda t, x: np.zeros_like(np.asarray(t, dtype=float))
    problem = ParabolicProblem(
        lambda t, x: np.ones_like(np.asarray(t, dtype=float)), zero, zero,
        f1=zero, f2=zero, u0=lambda x: 0.0 * np.asarray(x, dtype=float),
    )
    level = assemble(mesh, dofmap, parabolic_system(problem))
    assert np.all(level.rhs == 0.0)


def _graded_incompatible(max_iterations):
    """Mesh of a Doerfler run on incompatible data, graded towards the corners."""
    system = parabolic_system(make_problem("incompatible")[0])
    log = run(
        system, uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), 1,
        StopCriteria(max_iterations=max_iterations), MarkingConfig(MarkStrategy.DOERFLER, 0.5),
    )
    return log.final_mesh, system


def test_matrix_exactly_symmetric():
    """Bit-exact symmetry, including a graded mesh with initial facets and the
    widest local blocks (Poisson, p = 2)."""
    cases = [_setup(name, p) for name, p in
             (("heat-smooth", 1), ("convection-reaction", 2), ("poisson", 1), ("poisson", 2))]
    mesh, system = _graded_incompatible(18)
    assert mesh.n_elements >= 1000
    dofmap = build_dofmap(mesh, 1, system)
    cases.append((mesh, dofmap, system))
    for mesh, dofmap, system in cases:
        matrix = assemble(mesh, dofmap, system).matrix
        diff = (matrix - matrix.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def _variable_coefficient_system(form):
    return parabolic_system(ParabolicProblem(
        diffusion=lambda t, x: 1.0 + 0.5 * np.sin(3.0 * (t + 2.0 * x)),
        convection=lambda t, x: 1.5 * np.cos(np.pi * (x - t)),
        reaction=lambda t, x: -0.7 * (1.0 + t * x),
        f1=lambda t, x: 1.0 + t * x, f2=lambda t, x: t * x * (1.0 - x),
        u0=lambda x: np.sin(np.pi * x),
    ), form)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", ["flux", "gradient", "poisson"])
def test_table_written_in_place_matches_pointwise_images(name, p):
    """Every image the systems write into the table through ``out`` equals
    eval_G of that basis function at the point, times sqrt(w)."""
    if name == "poisson":
        system, _ = poisson_sine_case()
    else:
        system = _variable_coefficient_system(ConvectionForm(name))
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), np.array([0, 3]))
    dofmap = build_dofmap(mesh, p, system)
    level = assemble(mesh, dofmap, system)
    tables = level.tables
    points, sqrt_w = _points(tables, level.coords), np.sqrt(_wdet(tables, level.det))
    images = _residual_tables(system, tables, level.inv_t, *points, sqrt_w)
    grads = _basis_gradients(tables, level.inv_t)
    nloc, nq = tables.values.shape
    rng = np.random.default_rng(0)
    for e, q in zip(rng.integers(mesh.n_elements, size=12), rng.integers(nq, size=12)):
        point = points[:, q, e]
        for a in range(images.shape[0]):
            field, loc = divmod(a, nloc)
            fields = np.zeros((1 + system.n_flux, 3))  # value, d/dt, d/dx per field
            fields[field] = tables.values[loc, q], *grads[:, loc, q, e]
            image = eval_G(system, point, fields[0, 0], fields[0, 1:], fields[1:, 0], fields[1:, 1:])
            expected = np.append(image.flux, image.div) * sqrt_w[q, e]
            got = images[a, :, q, e]
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def _table_nbytes(mesh, dofmap, system):
    """Bytes of the level's whole image table, (nloc_total, n_int, nq, ne) floats."""
    nloc_total = dofmap.cell_dofs.shape[0]
    nq = level_tables(dofmap.degree).quad_weights.size
    return 8 * nloc_total * system.n_interior * nq * mesh.n_elements


def _level_arrays(level):
    """Every array of a level's geometry and data by name: its own fields and
    those of its tables, without the dof map that the level was built from
    and the matrix and load assembled on it."""
    skip = ("tables", "dofmap", "matrix", "rhs")
    return {f: a for f, a in vars(level).items() if f not in skip} | vars(level.tables)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_traced_peak_bounded_by_table(monkeypatch):
    """Assembly holds at most a small multiple of the image table at once,
    and with the level spread over many blocks its working memory (the
    traced peak less the arrays it returns) stays below one whole table:
    the images are built, contracted and freed block by block."""
    mesh, system = _graded_incompatible(18)
    dofmap = build_dofmap(mesh, 1, system)
    table = _table_nbytes(mesh, dofmap, system)
    _, peak = _traced_peak(assemble, mesh, dofmap, system)
    assert peak <= 3.0 * table

    monkeypatch.setattr(assembly, "_BLOCK", 64)
    level, peak = _traced_peak(assemble, mesh, dofmap, system)
    kept = sum(a.nbytes for a in (level.matrix.data, level.matrix.indices, level.matrix.indptr,
                                  level.rhs))
    kept += sum(a.nbytes for a in _level_arrays(level).values())
    assert peak - kept < table


def _solved_level(mesh, dofmap, system):
    level = assemble(mesh, dofmap, system)
    coeffs, report = solve_cg(level.matrix, level.rhs)
    assert report.converged
    return level, coeffs


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", ["heat-smooth", "poisson"])
def test_relabelled_dof_table_permutes_the_level(name, p):
    """Every consumer reads the one cell dof table: relabelling its dofs
    with a permutation P gives P b exactly, P A P^T with the same pattern
    and entries up to the order in which scipy sums an entry's element
    contributions (its COO->CSR sort is not stable), and the solved level
    the same indicators and error."""
    if name == "poisson":
        system, exact = poisson_sine_case()
    else:
        problem, exact = make_problem(name)
        system = parabolic_system(problem)
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 3, 3), [0, 4, 7])
    dofmap = build_dofmap(mesh, p, system)
    perm = np.random.default_rng(7).permutation(dofmap.n_dofs)  # old dof -> new dof
    dofs = dofmap.cell_dofs
    relabelled = dataclasses.replace(dofmap, cell_dofs=np.where(dofs >= 0, perm[dofs], -1).astype(np.int32))
    level, coeffs = _solved_level(mesh, dofmap, system)
    level_p, coeffs_p = _solved_level(mesh, relabelled, system)
    assert level_p.dofmap is relabelled  # the level reads the table it was built from
    old = np.argsort(perm)  # new dof -> old dof
    assert np.array_equal(level_p.rhs, level.rhs[old])
    assert level_p.matrix.nnz == level.matrix.nnz
    permuted = level.matrix.toarray()[np.ix_(old, old)]
    defect = np.abs(level_p.matrix.toarray() - permuted).max()
    assert defect <= 4 * np.finfo(float).eps * np.abs(permuted).max()

    eta, eta_p = (compute_indicators(mesh, c, system, lv) for c, lv in ((coeffs, level), (coeffs_p, level_p)))
    assert np.allclose(eta_p.per_element, eta.per_element, rtol=1e-12, atol=0.0)
    err, err_p = (u_norm_error(c, exact, system, lv) for c, lv in ((coeffs, level), (coeffs_p, level_p)))
    assert np.allclose(dataclasses.astuple(err_p), dataclasses.astuple(err), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p", [1, 2])
def test_streamed_level_independent_of_block_size(p, monkeypatch):
    """One block, 7-element blocks and the default blocks give the same
    matrix, load and indicators (einsum's vector kernels may round the tail
    of a short block differently, by a few 1e-16), and the matrix stays
    bit-exactly symmetric."""
    mesh, system = _graded_incompatible(18)
    dofmap = build_dofmap(mesh, p, system)
    assert mesh.n_elements > assembly._BLOCK
    reference, coeffs = _solved_level(mesh, dofmap, system)
    eta = compute_indicators(mesh, coeffs, system, reference).per_element
    for block in (mesh.n_elements, 7):
        monkeypatch.setattr(assembly, "_BLOCK", block)
        level = assemble(mesh, dofmap, system)
        assert np.array_equal(level.matrix.indptr, reference.matrix.indptr)
        assert np.array_equal(level.matrix.indices, reference.matrix.indices)
        diff = np.abs(level.matrix.data - reference.matrix.data).max()
        assert diff <= 1e-15 * np.abs(reference.matrix.data).max()
        assert np.abs(level.rhs - reference.rhs).max() <= 1e-15 * np.abs(reference.rhs).max()
        assert (level.matrix != level.matrix.T).nnz == 0
        got = compute_indicators(mesh, coeffs, system, level).per_element
        assert np.abs(got - eta).max() <= 1e-15 * eta.max()


@pytest.mark.parametrize("name", ["heat-smooth", "incompatible", "poisson"])
@pytest.mark.parametrize("p", [1, 2])
def test_indicators_match_table_contraction(name, p):
    """eta_K^2 read off the solution's own image equals the contraction of
    the whole image table, ||D_K - R_K^T c_K||^2 plus the same on an
    initial facet of K."""
    if name == "poisson":
        system, _ = poisson_sine_case()
        mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 4, 4), [0, 5, 17])
    else:
        mesh, system = _graded_incompatible(10)
        if name == "heat-smooth":
            system = parabolic_system(make_problem(name)[0])
    dofmap = build_dofmap(mesh, p, system)
    level, coeffs = _solved_level(mesh, dofmap, system)
    tables = level.tables
    images = _residual_tables(system, tables, level.inv_t, *_points(tables, level.coords),
                              np.sqrt(_wdet(tables, level.det)))
    dofs = dofmap.cell_dofs
    local = np.where(dofs >= 0, coeffs[dofs], 0.0)
    resid = level.data - np.einsum("arqe,ae->rqe", images, local)
    expected = np.einsum("rqe,rqe->e", resid, resid)
    nloc, elems = level.tables.values.shape[0], level.facet_elements
    facet_images = (level.facet_basis * np.sqrt(level.facet_wlen)[..., None]).T
    facet_resid = level.facet_data - np.einsum("aqf,af->qf", facet_images, local[:nloc, elems])
    np.add.at(expected, elems, np.einsum("qf,qf->f", facet_resid, facet_resid))
    got = compute_indicators(mesh, coeffs, system, level).per_element ** 2
    assert np.abs(got - expected).max() <= 1e-13 * expected.max()


@pytest.mark.parametrize("p", [1, 2])
def test_plus_transpose_matches_coo_route(p, monkeypatch):
    """H + H^T mirrored from H's CSR arrays has the same indptr, indices
    and data as the route through H.tocoo(), exact zeros included."""
    mesh, system = _graded_incompatible(18)
    dofmap = build_dofmap(mesh, p, system)
    halves = []
    plus_transpose = assembly._plus_transpose
    monkeypatch.setattr(assembly, "_plus_transpose", lambda h: plus_transpose(halves.append(h) or h))
    matrix = assemble(mesh, dofmap, system).matrix
    coo = halves[0].tocoo()
    mirrored = (np.concatenate([coo.row, coo.col]), np.concatenate([coo.col, coo.row]))
    expected = sp.csr_matrix((np.tile(coo.data, 2), mirrored), shape=coo.shape)
    assert np.array_equal(matrix.indptr, expected.indptr)
    assert np.array_equal(matrix.indices, expected.indices)
    assert np.array_equal(matrix.data, expected.data)
    assert np.count_nonzero(matrix.data == 0.0) > 0


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", ["heat-smooth", "poisson"])
def test_matrix_is_canonical_int32_csr(name, p):
    """The level's matrix is n_dofs x n_dofs canonical CSR (sorted column
    indices, no duplicates) with int32 indices and indptr, so that scipy's
    sum_duplicates and the index cast before the factorization are no-ops.
    The format is checked on a copy built from the bare arrays, which has no
    cached flag."""
    system = _setup(name)[2]
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 3, 3), [0, 4, 7])
    dofmap = build_dofmap(mesh, p, system)
    matrix = assemble(mesh, dofmap, system).matrix
    assert matrix.format == "csr" and matrix.shape == (dofmap.n_dofs, dofmap.n_dofs)
    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    assert sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape).has_canonical_format


def test_geometry_matches_per_element_affine_map():
    """The element-last geometry (physical basis gradients, points, weighted
    determinants) agrees with affine_map applied element by element."""
    mesh, system = _graded_incompatible(18)
    assert mesh.n_elements >= 1000
    for p in (1, 2):
        dofmap = build_dofmap(mesh, p, system)
        rules = level_tables(p)
        refpts = rules.quad_points[:, 1:]
        level = assemble(mesh, dofmap, system)
        grads = _basis_gradients(rules, level.inv_t)
        ref_grads = reference_basis(p, refpts)[1]  # (nq, nloc, 2)
        points, wdet, expected = [], [], []
        for k in range(mesh.n_elements):
            jac, inv_t, det = affine_map(mesh, k)
            corner = mesh.points[mesh.elements[k, 0]]
            points.append((corner + refpts @ jac.T).T)
            wdet.append(rules.quad_weights * det)
            expected.append(np.einsum("ab,qib->aiq", inv_t, ref_grads))
        np.testing.assert_allclose(_points(rules, level.coords), np.stack(points, axis=-1), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(_wdet(rules, level.det), np.stack(wdet, axis=-1), rtol=1e-14, atol=0)
        expected = np.stack(expected, axis=-1)
        scale = np.abs(expected).max(axis=(0, 1, 2))
        assert np.all(np.abs(grads - expected) <= 1e-14 * scale)


@pytest.mark.parametrize("p", [1, 2])
def test_geometry_keeps_element_size_arrays(p, monkeypatch):
    """The level geometry keeps no per-element array with a quadrature axis:
    vertex coordinates, det J and J^{-T} total at most 11 doubles per
    element; its other arrays besides the facet arrays (the rule and the
    reference tables) do not grow with the mesh.  Points and weights formed
    block by block match those of the whole level."""
    mesh, system = _graded_incompatible(10)
    coarse = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    geometry, small = (
        assemble(m, build_dofmap(m, p, system), system)
        for m in (mesh, coarse)
    )
    ne, nq = mesh.n_elements, level_tables(p).quad_weights.size
    arrays, small_arrays = _level_arrays(geometry), _level_arrays(small)
    fields = [f for f in arrays if not f.startswith("facet_") and f != "data"]
    per_element = [arrays[f] for f in fields if arrays[f].shape[-1] == ne]
    assert not any(nq in a.shape for a in per_element)
    assert sum(a.size for a in per_element) <= 11 * ne
    for f in fields:
        if arrays[f].shape[-1] != ne:
            assert arrays[f].shape == small_arrays[f].shape, f

    monkeypatch.setattr(assembly, "_BLOCK", 64)
    blocks = assembly._blocks(ne)
    assert len(blocks) > 1
    tables, coords, det = geometry.tables, geometry.coords, geometry.det
    np.testing.assert_allclose(np.concatenate([_points(tables, coords[..., b]) for b in blocks], axis=-1),
                               _points(tables, coords), rtol=1e-15, atol=0)
    assert np.array_equal(np.concatenate([_wdet(tables, det[b]) for b in blocks], axis=-1), _wdet(tables, det))


def test_initial_facet_tables_match_per_facet_loop():
    """The vectorized trace table agrees with a facet-by-facet evaluation
    through the oracles' independent edge scan."""
    mesh, system = _graded_incompatible(10)
    for p in (1, 2):
        dofmap = build_dofmap(mesh, p, system)
        rules = level_tables(p)
        elems, basis, xs, wlen = _initial_facet_tables(mesh, rules, system)
        edges = oracles._initial_edges(mesh)
        assert len(edges) > 4  # refinement reached the initial boundary
        assert np.array_equal(elems, [e for e, _ in edges])
        for f, (e, loc) in enumerate(edges):
            xs_ref, length = oracles._edge_geometry(mesh, e, loc, rules.edge_points)
            values = reference_basis(p, edge_reference_points(loc, rules.edge_points))[0]
            np.testing.assert_allclose(basis[f], values, rtol=0, atol=1e-15)
            np.testing.assert_allclose(xs[f], xs_ref, rtol=1e-15, atol=1e-15)
            np.testing.assert_allclose(wlen[f], rules.edge_weights * length, rtol=1e-15, atol=0)
    poisson, _ = poisson_sine_case()
    assert _initial_facet_tables(mesh, rules, poisson)[0].size == 0


@pytest.mark.parametrize("p", [1, 2])
def test_initial_facets_on_distinct_elements(p):
    """An element owns at most one initial facet (two on t = 0 would make
    its det J zero), so assembly and the indicators scatter the facet terms
    by indexed ``+=``: the level's facet elements are distinct, also on a
    mesh graded towards the initial corners."""
    mesh, system = _graded_incompatible(18)
    level = assemble(mesh, build_dofmap(mesh, p, system), system)
    assert level.facet_elements.size > 20
    assert np.unique(level.facet_elements).size == level.facet_elements.size


@pytest.mark.parametrize("p", [1, 2])
def test_reference_tables_shared_and_read_only(p):
    """Two levels of one degree hold the very same table of rules and
    reference basis, built once per degree, and no caller can write to any
    of its arrays; the facet basis is rows of its edge table."""
    fine, system = _graded_incompatible(10)
    coarse = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    a, b = (assemble(m, build_dofmap(m, p, system),
                     system) for m in (coarse, fine))
    tables = level_tables(p)
    assert a.tables is b.tables is tables and tables.edge_values.shape[0] == 3
    locs = initial_facet_list(fine)[:, 1]
    assert np.array_equal(b.facet_basis, tables.edge_values[locs])
    for table in vars(tables).values():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1.0


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", ["heat-smooth", "convection-reaction", "variable-a", "poisson"])
def test_dense_oracle_equivalence(p, name):
    """Sparse assembly agrees with the brute-force dense oracle."""
    mesh, dofmap, system = _setup(name, p, nt=4, nx=4)  # 32 elements
    if dofmap.n_dofs > oracles.MAX_DENSE_DOFS:
        mesh, dofmap, system = _setup(name, p, nt=2, nx=2)
    level = assemble(mesh, dofmap, system)
    dense, dense_rhs = oracles.dense_assemble(mesh, dofmap, system)
    rel = np.linalg.norm(level.matrix.toarray() - dense) / np.linalg.norm(dense)
    assert rel <= 1e-12
    rel_rhs = np.linalg.norm(level.rhs - dense_rhs) / np.linalg.norm(dense_rhs)
    assert rel_rhs <= 1e-12


def test_gradient_form_assembly_matches_dense():
    mesh, dofmap, system = _setup("convection-reaction", 1, form=ConvectionForm.GRADIENT)
    level = assemble(mesh, dofmap, system)
    dense, _ = oracles.dense_assemble(mesh, dofmap, system)
    rel = np.linalg.norm(level.matrix.toarray() - dense) / np.linalg.norm(dense)
    assert rel <= 1e-12


def test_cg_identity_matrix():
    matrix = sp.identity(7, format="csr")
    rhs = np.arange(1.0, 8.0)
    x, report = oracles.plain_cg(matrix, rhs)
    assert np.allclose(x, rhs, atol=1e-14)
    assert report.iterations == 1
    assert report.converged


def test_cg_zero_rhs():
    matrix = sp.identity(5, format="csr")
    x, report = oracles.plain_cg(matrix, np.zeros(5))
    assert np.all(x == 0.0)
    assert report.iterations == 0
    assert report.converged


def test_cg_matches_dense_solve():
    mesh, dofmap, system = _setup("heat-smooth", 1)
    level = assemble(mesh, dofmap, system)
    x, report = oracles.plain_cg(level.matrix, level.rhs)
    dense, dense_rhs = oracles.dense_assemble(mesh, dofmap, system)
    x_direct = oracles.dense_solve(dense, dense_rhs)
    assert report.converged
    assert np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct) <= 1e-8


def test_cg_non_convergence_flagged():
    mesh, dofmap, system = _setup("heat-smooth", 1, nt=3, nx=3)
    level = assemble(mesh, dofmap, system)
    _, report = oracles.plain_cg(level.matrix, level.rhs, rel_tol=1e-12, max_iters=2)
    assert not report.converged
    assert report.relative_residual > 1e-12


def _ill_conditioned_spd(n, kappa):
    """Q diag(logspace(0, log10 kappa)) Q^T with a random orthogonal Q, and a
    random rhs.  The product is one einsum, not a BLAS matmul, so its bytes
    do not depend on the number of BLAS threads."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = np.einsum("ik,k,jk->ij", q, np.logspace(0, np.log10(kappa), n), q)
    return sp.csr_matrix(0.5 * (dense + dense.T)), rng.standard_normal(n)


def _recursive_cg(matrix, rhs, rel_tol):
    """Textbook CG that trusts its recursively updated residual."""
    x, r = np.zeros_like(rhs), rhs.copy()
    p, rho = r.copy(), float(r @ r)
    while np.sqrt(rho) > rel_tol * np.linalg.norm(rhs):
        q = matrix @ p
        alpha = rho / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rho, rho_old = float(r @ r), rho
        p = r + (rho / rho_old) * p
    return x


@pytest.mark.parametrize("kappa", [1e7, 1e8])
def test_cg_converged_flag_means_true_residual(kappa):
    """n = 40.  On kappa = 1e7 the recursive residual meets 1e-10 while the
    true one is 2.26e-10, 2.26 times the tolerance; residual replacement
    carries CG to a true 1e-10 (in 373 of its 800 iterations).  On kappa =
    1e8 the tolerance is out of reach and the report says so."""
    matrix, rhs = _ill_conditioned_spd(40, kappa)
    if kappa == 1e7:
        x_rec = _recursive_cg(matrix, rhs, 1e-10)
        assert np.linalg.norm(rhs - matrix @ x_rec) / np.linalg.norm(rhs) > 1e-10
    x, report = oracles.plain_cg(matrix, rhs, rel_tol=1e-10)
    true = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
    assert report.relative_residual == pytest.approx(true, rel=1e-12)
    assert report.converged == (kappa == 1e7)
    assert report.converged == (true <= 1e-10)


def test_plain_cg_stops_at_non_finite_residual():
    """A NaN from the fourth matvec on ends the oracle CG there, unconverged,
    instead of ending the loop silently because NaN > tol is False."""
    matrix, rhs = _ill_conditioned_spd(50, 1e6)

    class Poisoned:
        calls = 0

        def __matmul__(self, v):
            self.calls += 1
            out = matrix @ v
            if self.calls >= 4:
                out[0] = np.nan
            return out

    poisoned = Poisoned()
    _, report = oracles.plain_cg(poisoned, rhs)
    assert not report.converged
    assert np.isnan(report.relative_residual)
    assert report.iterations == poisoned.calls == 4


def test_level_solve_converges_on_backward_error():
    """kappa = 1e12 with b along the lowest eigenvector: the LU solve's
    relative residual misses 1e-10 by orders of magnitude, and so does plain
    CG, but its normwise backward error is far below 16 u, which the level
    solve reports as converged after its one LU solve."""
    n = 50
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = (q * np.logspace(0, 12, n)) @ q.T
    dense = 0.5 * (dense + dense.T)
    eigenvalues, vectors = np.linalg.eigh(dense)
    assert 0.5e12 <= eigenvalues[-1] / eigenvalues[0] <= 2e12
    matrix, rhs = sp.csr_matrix(dense), vectors[:, 0]

    x_lu = assembly._lu_solve(matrix)(rhs)
    assert np.linalg.norm(rhs - matrix @ x_lu) / np.linalg.norm(rhs) > 1e-10
    assert not oracles.plain_cg(matrix, rhs)[1].converged

    x, report = solve_cg(matrix, rhs)
    r = rhs - matrix @ x
    backward = np.abs(r).max() / (np.abs(dense).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())
    assert report.converged and report.iterations == 1
    assert report.relative_residual == pytest.approx(np.linalg.norm(r) / np.linalg.norm(rhs), rel=1e-12)
    assert report.relative_residual > 1e-10
    assert report.backward_error == pytest.approx(backward, rel=1e-12)
    assert report.backward_error <= 16 * 2.0**-53


def test_level_solve_judges_its_one_solve(monkeypatch):
    """With a solve that returns 1.5 M^{-1} r, the level solve takes that
    one solution, reports it unconverged after one LU solve, and judges it
    by its own residual."""
    matrix, rhs = _ill_conditioned_spd(20, 10.0)
    monkeypatch.setattr(assembly, "_lu_solve", lambda m: (lambda r: 1.5 * np.linalg.solve(m.toarray(), r)))
    x, report = solve_cg(matrix, rhs)
    assert report.iterations == 1 and not report.converged
    np.testing.assert_allclose(x, 1.5 * np.linalg.solve(matrix.toarray(), rhs), rtol=1e-15)
    r = rhs - matrix @ x
    backward = np.abs(r).max() / (np.abs(matrix.toarray()).sum(axis=1).max() * np.abs(x).max()
                                  + np.abs(rhs).max())
    assert report.relative_residual == pytest.approx(np.linalg.norm(r) / np.linalg.norm(rhs), rel=1e-12)
    assert report.backward_error == pytest.approx(backward, rel=1e-12)


def test_level_solve_reports_non_finite_solution(monkeypatch):
    """A solve that returns NaN is reported unconverged with NaN backward
    error and defect, without a numpy warning (the suite turns
    RuntimeWarning into an error)."""
    matrix, rhs = _ill_conditioned_spd(20, 10.0)
    monkeypatch.setattr(assembly, "_lu_solve", lambda m: (lambda r: np.full_like(r, np.nan)))
    _, report = solve_cg(matrix, rhs)
    assert report.iterations == 1 and not report.converged
    assert np.isnan([report.backward_error, report.galerkin_defect]).all()


@pytest.mark.parametrize("name", ["heat-smooth", "convection-reaction", "variable-a", "poisson"])
def test_spd_on_small_meshes(name):
    """Smallest eigenvalue of the assembled matrix is positive (coercivity)."""
    mesh, dofmap, system = _setup(name, 1, nt=3, nx=3)
    assert dofmap.n_dofs <= 200
    dense, _ = oracles.dense_assemble(mesh, dofmap, system)
    assert oracles.min_eigenvalue(dense) > 0.0


def test_functional_non_increasing_under_uniform_refinement():
    """Nested spaces: the minimal residual cannot grow under refinement."""
    problem, _ = make_problem("heat-smooth")
    system = parabolic_system(problem)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    values = []
    for _ in range(3):
        dofmap = build_dofmap(mesh, 1, system)
        level = assemble(mesh, dofmap, system)
        coeffs, report = solve_cg(level.matrix, level.rhs)
        assert report.converged
        values.append(compute_indicators(mesh, coeffs, system, level).total ** 2)
        mesh = bisect(mesh, np.arange(mesh.n_elements))
        mesh = bisect(mesh, np.arange(mesh.n_elements))
    assert values[1] <= values[0] + 1e-10
    assert values[2] <= values[1] + 1e-10


def test_galerkin_defect_small_after_solve():
    mesh, dofmap, system = _setup("heat-smooth", 1, nt=3, nx=3)
    level = assemble(mesh, dofmap, system)
    matrix, rhs = level.matrix, level.rhs

    dense, dense_rhs = oracles.dense_assemble(mesh, dofmap, system)
    assert galerkin_defect(matrix, rhs, oracles.dense_solve(dense, dense_rhs)) <= 1e-10

    x, _ = oracles.plain_cg(matrix, rhs, rel_tol=1e-10)
    assert galerkin_defect(matrix, rhs, x) <= 1e-8


def test_galerkin_defect_zero_data():
    """A zero load: x = 0 has no defect, and the level solve returns it,
    converged, without a solve."""
    mesh, dofmap, system = _setup("heat-smooth", 1)
    matrix, zero = assemble(mesh, dofmap, system).matrix, np.zeros(dofmap.n_dofs)
    assert galerkin_defect(matrix, zero, np.zeros(dofmap.n_dofs)) == 0.0
    x, report = solve_cg(matrix, zero)
    assert not x.any()
    assert report == assembly.SolverReport(0, 0.0, 0.0, 0.0, True)


_COEFFICIENT = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(-0.9, 0.9, allow_nan=False), k=st.floats(0.5, 6.0, allow_nan=False),
       beta=_COEFFICIENT, gamma=_COEFFICIENT, form=st.sampled_from(list(ConvectionForm)),
       p=st.sampled_from([1, 2]))
def test_random_smooth_coefficients_spd_and_galerkin(alpha, k, beta, gamma, form, p):
    """A = 1 + alpha sin(k (t + 2x)) with |alpha| <= 0.9 and variable b and c:
    the assembled matrix is SPD and the LU-preconditioned solve meets
    Galerkin orthogonality."""
    system = parabolic_system(ParabolicProblem(
        diffusion=lambda t, x: 1.0 + alpha * np.sin(k * (t + 2.0 * x)),
        convection=lambda t, x: beta * np.cos(np.pi * (x - t)),
        reaction=lambda t, x: gamma * (1.0 + t * x),
        f1=lambda t, x: 1.0 + t * x, f2=lambda t, x: t * x * (1.0 - x),
        u0=lambda x: np.sin(np.pi * x),
    ), form)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dofmap = build_dofmap(mesh, p, system)
    level = assemble(mesh, dofmap, system)
    assert oracles.min_eigenvalue(level.matrix.toarray()) > 0
    coeffs, report = solve_cg(level.matrix, level.rhs)
    assert report.converged
    assert report.galerkin_defect <= 1e-7


def test_dense_oracle_size_guard():
    mesh, dofmap, system = _setup("heat-smooth", 2, nt=6, nx=6)
    assert dofmap.n_dofs > oracles.MAX_DENSE_DOFS
    with pytest.raises(ValueError):
        oracles.dense_assemble(mesh, dofmap, system)


def test_dense_solve_identity_and_guards():
    assert np.allclose(oracles.dense_solve(np.eye(4), np.arange(4.0)), np.arange(4.0))
    assert np.all(oracles.dense_solve(np.eye(3), np.zeros(3)) == 0.0)
    with pytest.raises(Exception):
        oracles.dense_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))  # indefinite


def test_min_eigenvalue_examples():
    assert oracles.min_eigenvalue(np.eye(5)) == pytest.approx(1.0, rel=1e-12)
    assert oracles.min_eigenvalue(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0, rel=1e-12)
