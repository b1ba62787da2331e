import math
from types import SimpleNamespace

import numpy as np
import pytest

from stfosls.mesh import FacetTag, bisect, facet_tags, uniform_initial_mesh
from stfosls.oracles import affine_map, element_measure, evaluate_field
from stfosls.problem import make_problem
from stfosls.spaces import (
    affine_maps,
    build_dofmap,
    build_edge_quadrature,
    build_quadrature,
    edge_reference_points,
    reference_basis,
)
from stfosls.system import parabolic_system, poisson_sine_case
from helpers import interpolate_nodes


# The Lagrange nodes of the reference triangle: the vertices, then for p = 2
# the midpoints of the edges (v0,v1), (v1,v2), (v2,v0).
_REFERENCE_NODES = {
    1: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    2: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]],
}
_LATERAL = (FacetTag.LATERAL_DIRICHLET,)
_PARABOLIC = parabolic_system(make_problem("heat-smooth")[0])  # one flux, lateral facets constrained


def _layout(n_flux, dirichlet_tags):
    """The two attributes of a system that ``build_dofmap`` reads, also in
    layouts that no system has."""
    return SimpleNamespace(n_flux=n_flux, dirichlet_tags=dirichlet_tags)


_FREE = _layout(1, ())  # one flux, nothing constrained


@pytest.mark.parametrize("p", [1, 2])
def test_reference_basis_is_nodal(p):
    nodes = np.array(_REFERENCE_NODES[p])
    vals = reference_basis(p, nodes)[0]
    assert np.allclose(vals, np.eye(len(nodes)), atol=1e-14)


@pytest.mark.parametrize("p", [1, 2])
def test_partition_of_unity(p):
    rng = np.random.default_rng(3)
    pts = rng.random((20, 2)) * 0.5
    values, gradients = reference_basis(p, pts)
    assert np.allclose(values.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(gradients.sum(axis=1), 0.0, atol=1e-14)


def test_reference_p1_values_at_vertices():
    vals = reference_basis(1, np.array([[0.0, 0.0], [1.0, 0.0]]))[0]
    assert vals[0, 0] == 1.0 and vals[1, 0] == 0.0
    barycenter = reference_basis(1, np.array([[1 / 3, 1 / 3]]))[0]
    assert barycenter.sum() == pytest.approx(1.0, abs=1e-15)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        reference_basis(3, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        build_quadrature(-1)


def test_quadrature_barycentric_monomial():
    points, weights = build_quadrature(2)
    val = float(np.dot(weights, points[:, 0] * points[:, 1]))
    assert val == pytest.approx(1.0 / 24.0, rel=1e-14)


@pytest.mark.parametrize("degree", range(0, 11))
def test_quadrature_exactness(degree):
    points, weights = build_quadrature(degree)
    assert weights.sum() == pytest.approx(0.5, rel=1e-14)
    xi, eta = points[:, 1], points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            approx = float(np.dot(weights, xi**a * eta**b))
            assert approx == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("degree", range(0, 11))
def test_edge_quadrature_exactness(degree):
    points, weights = build_edge_quadrature(degree)
    assert weights.sum() == pytest.approx(1.0, rel=1e-14)
    for k in range(degree + 1):
        assert float(np.dot(weights, points**k)) == pytest.approx(
            1.0 / (k + 1), rel=1e-13
        )


def test_dofmap_counts_single_cell():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    free = build_dofmap(mesh, 1, _FREE)
    assert free.node_coords.shape[0] == 4
    assert free.n_dofs == 8
    constrained = build_dofmap(mesh, 1, _PARABOLIC)
    # all four corners sit on the lateral boundary x in {0, 1}
    assert np.all(constrained.cell_dofs[:3] == -1)
    assert constrained.n_dofs == 4


def test_dofmap_counts_two_by_two():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dm = build_dofmap(mesh, 1, _PARABOLIC)
    assert set(dm.cell_dofs[:3].ravel()) == {-1, 0, 1, 2}  # the x = 1/2 column
    assert dm.n_dofs == 3 + 9


def test_constrained_nodes_match_geometry():
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), [0, 1, 4])
    for p in (1, 2):
        dm = build_dofmap(mesh, p, _PARABOLIC)
        on_lateral = np.flatnonzero((dm.node_coords[:, 1] == 0.0) | (dm.node_coords[:, 1] == 1.0))
        assert np.array_equal(dm.constrained_nodes, on_lateral)


def _facet_nodes(mesh, dm, system):
    """Scalar nodes of the facets whose tag is in ``system.dirichlet_tags``:
    their end points and, for p = 2, their edge nodes, with the scalar node
    of local function a on element K read off the first u2 block."""
    nloc = dm.cell_dofs.shape[0] // (1 + system.n_flux)
    n_u1 = dm.n_dofs - system.n_flux * dm.node_coords.shape[0]
    nodes = dm.cell_dofs[nloc:2 * nloc].T - n_u1
    assert np.array_equal(nodes[:, :3], mesh.elements)
    elems, locs = np.nonzero(np.isin(facet_tags(mesh), [int(t) for t in system.dirichlet_tags]))
    ends = [nodes[elems, locs], nodes[elems, (locs + 1) % 3]]
    if dm.degree == 2:
        ends.append(nodes[elems, 3 + locs])
    return nodes, np.unique(np.concatenate(ends))


def _random_refinements(t_end, omega, nt, nx, levels, n_marks, seed):
    """The meshes of ``levels`` rounds of ``n_marks`` random marks each."""
    rng = np.random.default_rng(seed)
    mesh = uniform_initial_mesh(t_end, omega, nt, nx)
    for _ in range(levels):
        mesh = bisect(mesh, rng.choice(mesh.n_elements, size=min(mesh.n_elements, n_marks), replace=False))
        yield mesh


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("system", [_PARABOLIC, poisson_sine_case()[0]], ids=["parabolic", "poisson"])
@pytest.mark.parametrize("t_end, omega, nt, nx, n_marks", [
    (1.0, (0.0, 1.0), 2, 2, 12), (1e-300, (-1e300, 1e300), 3, 4, 6), (1e300, (-0.0, 1e-300), 3, 4, 6),
], ids=["unit", "wide", "tall"])
def test_constrained_nodes_are_dirichlet_facet_nodes(p, system, t_end, omega, nt, nx, n_marks):
    """The nodes that u1 drops, read off their coordinates, are exactly the
    end points (and p = 2 edge nodes) of the facets tagged Dirichlet, on
    random NVB refinements of the unit square and of rectangles with
    extents near the ends of the float range."""
    for mesh in _random_refinements(t_end, omega, nt, nx, 25, n_marks, seed=7):
        dm = build_dofmap(mesh, p, system)
        nodes, expected = _facet_nodes(mesh, dm, system)
        nloc = nodes.shape[1]
        assert np.array_equal(dm.constrained_nodes, expected)
        assert np.array_equal(dm.cell_dofs[:nloc].T < 0, np.isin(nodes, expected))


def _edge_nodes_by_scan(mesh):
    """p = 2 edge node ids, numbered after the vertices in order of first
    appearance, and their coordinates, by a plain scan of the elements."""
    edge_id, cell_edges = {}, []
    for tri in mesh.elements.tolist():
        row = []
        for loc in range(3):
            key = tuple(sorted((tri[loc], tri[(loc + 1) % 3])))
            row.append(edge_id.setdefault(key, mesh.n_points + len(edge_id)))
        cell_edges.append(row)
    ends = np.array(list(edge_id))
    return np.array(cell_edges), 0.5 * (mesh.points[ends[:, 0]] + mesh.points[ends[:, 1]])


def test_dofmap_numbering_on_graded_mesh():
    """Edge nodes follow the element scan, constrained nodes are exactly the
    nodes on the tagged sides, and the cell dof table holds the ascending
    free numbering of the scalar nodes (or -1) in its u1 block and
    n_u1 + c n_scalar + node in the block of u2 component c."""
    rng = np.random.default_rng(3)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    for _ in range(6):
        mesh = bisect(mesh, rng.choice(mesh.n_elements, size=mesh.n_elements // 3, replace=False))
    cell_edges, midpoints = _edge_nodes_by_scan(mesh)
    whole = (FacetTag.LATERAL_DIRICHLET, FacetTag.INITIAL, FacetTag.FINAL)
    for p in (1, 2):
        nodes = mesh.elements if p == 1 else np.hstack([mesh.elements, cell_edges])
        coords = mesh.points if p == 1 else np.vstack([mesh.points, midpoints])
        n_scalar = coords.shape[0]
        t, x = coords[:, 0], coords[:, 1]
        for tags in (_LATERAL, whole, ()):
            on_side = (x == 0.0) | (x == 1.0)
            if tags == whole:
                on_side |= (t == 0.0) | (t == 1.0)
            elif tags == ():
                on_side[:] = False
            n_u1 = np.count_nonzero(~on_side)
            free = np.full(n_scalar, -1)
            free[~on_side] = np.arange(n_u1)
            for n_comp in (1, 2):
                dm = build_dofmap(mesh, p, _layout(n_comp, tags))
                assert np.array_equal(dm.node_coords, coords)
                assert np.array_equal(dm.constrained_nodes, np.flatnonzero(on_side))
                u2_blocks = [n_u1 + c * n_scalar + nodes.T for c in range(n_comp)]
                expected = np.vstack([free[nodes.T]] + u2_blocks)
                assert dm.cell_dofs.dtype == np.int32
                assert np.array_equal(dm.cell_dofs, expected)
                assert dm.n_dofs == n_u1 + n_comp * n_scalar


def test_affine_maps_reject_inverted_element():
    """The batched maps raise the same typed error as the single-element map,
    instead of handing a negative determinant to sqrt(w) downstream."""
    import dataclasses

    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    elements = mesh.elements.copy()
    elements[3] = elements[3, [1, 0, 2]]  # clockwise: det < 0
    flipped = dataclasses.replace(mesh, elements=elements)
    with pytest.raises(ValueError, match="element 3 is degenerate or inverted") as batched:
        affine_maps(flipped)
    with pytest.raises(ValueError) as single:
        affine_map(flipped, 3)
    assert str(batched.value) == str(single.value)

    elements[3] = elements[3, [0, 0, 2]]  # collapsed: det = 0
    with pytest.raises(ValueError, match="element 3 is degenerate or inverted"):
        affine_maps(dataclasses.replace(mesh, elements=elements))


def test_affine_map_properties():
    mesh = uniform_initial_mesh(2.0, (0.0, 3.0), 2, 2)
    for k in range(mesh.n_elements):
        jac, inv_t, det = affine_map(mesh, k)
        assert det == pytest.approx(2.0 * element_measure(mesh, k), rel=1e-14)
        assert np.allclose(inv_t.T @ jac, np.eye(2), atol=1e-14)


def test_affine_map_reference_element():
    import dataclasses

    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    ref_mesh = dataclasses.replace(
        mesh,
        points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        generation=np.zeros(1, dtype=np.int64),
        refined_from=np.zeros(1, dtype=np.int64),
    )
    jac, inv_t, det = affine_map(ref_mesh, 0)
    assert np.allclose(jac, np.eye(2))
    assert det == 1.0


@pytest.mark.parametrize("p", [1, 2])
def test_interpolation_reproduces_polynomials(p):
    """Nodal interpolation of total degree <= p is exact in value and gradient."""
    rng = np.random.default_rng(11)
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), [0, 3])
    dm = build_dofmap(mesh, p, _FREE)

    if p == 1:
        f = lambda t, x: 0.5 + 2.0 * t - x
        grad = lambda t, x: (2.0, -1.0)
    else:
        f = lambda t, x: 1.0 + t - 2 * x + t * t - t * x + 0.5 * x * x
        grad = lambda t, x: (1.0 + 2 * t - x, -2.0 - t + x)

    coeffs = interpolate_nodes(f, dm)
    # unconstrained map: the u1 dofs number the scalar nodes themselves
    assert dm.constrained_nodes.size == 0

    for k in range(mesh.n_elements):
        pts = rng.random((20, 2))
        pts = pts[pts.sum(axis=1) <= 1.0]
        val, g = evaluate_field(coeffs, dm, mesh, k, pts, field=0)
        jac, _, _ = affine_map(mesh, k)
        p0 = mesh.points[mesh.elements[k, 0]]
        phys = p0[None, :] + pts @ jac.T
        for i in range(pts.shape[0]):
            assert val[i] == pytest.approx(f(*phys[i]), abs=1e-13)
            gt, gx = grad(*phys[i])
            assert g[i, 0] == pytest.approx(gt, abs=1e-12)
            assert g[i, 1] == pytest.approx(gx, abs=1e-12)


def test_evaluate_field_linear_interpolant():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dm = build_dofmap(mesh, 1, _FREE)
    coeffs = interpolate_nodes(lambda t, x: x, dm)
    val, grad = evaluate_field(coeffs, dm, mesh, 3, np.array([0.3, 0.2]), field=0)
    jac, _, _ = affine_map(mesh, 3)
    p0 = mesh.points[mesh.elements[3, 0]]
    phys = p0 + jac @ np.array([0.3, 0.2])
    assert val == pytest.approx(phys[1], abs=1e-14)
    assert np.allclose(grad, [0.0, 1.0], atol=1e-13)


def test_evaluate_field_zero_coefficients():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    dm = build_dofmap(mesh, 1, _PARABOLIC)
    val, grad = evaluate_field(np.zeros(dm.n_dofs), dm, mesh, 0, np.array([0.25, 0.25]), field=1)
    assert val == 0.0
    assert np.all(grad == 0.0)


def test_evaluate_field_p2_quadratic_exact():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dm = build_dofmap(mesh, 2, _FREE)
    coeffs = interpolate_nodes(lambda t, x: t * t, dm)
    for k in (0, 5):
        val, grad = evaluate_field(coeffs, dm, mesh, k, np.array([0.2, 0.3]), field=0)
        jac, _, _ = affine_map(mesh, k)
        p0 = mesh.points[mesh.elements[k, 0]]
        phys = p0 + jac @ np.array([0.2, 0.3])
        assert val == pytest.approx(phys[0] ** 2, abs=1e-14)
        assert grad[0] == pytest.approx(2 * phys[0], abs=1e-13)
        assert grad[1] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("p", [1, 2])
def test_global_continuity_across_edges(p):
    """Traces of every field from both sides of interior edges agree."""
    rng = np.random.default_rng(5)
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), [0, 2, 7])
    dm = build_dofmap(mesh, p, _FREE)
    coeffs = rng.standard_normal(dm.n_dofs)

    incidence = {}
    for e in range(mesh.n_elements):
        for loc in range(3):
            a, b = int(mesh.elements[e, loc]), int(mesh.elements[e, (loc + 1) % 3])
            incidence.setdefault((min(a, b), max(a, b)), []).append((e, loc, a < b))

    s = np.linspace(0.1, 0.9, p + 1)
    for (a, b), sides in incidence.items():
        if len(sides) != 2:
            continue
        traces = []
        for e, loc, increasing in sides:
            pts = edge_reference_points(loc, s if increasing else 1.0 - s)
            val, _ = evaluate_field(coeffs, dm, mesh, e, pts, field=0)
            traces.append(val)
        assert np.allclose(traces[0], traces[1], atol=1e-13)


def test_p1_dofmap_shares_mesh_arrays():
    """At p = 1 the scalar nodes are the mesh vertices: the dof map
    references the mesh's points instead of copying them."""
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), [0, 3])
    dm = build_dofmap(mesh, 1, _PARABOLIC)
    assert np.shares_memory(dm.node_coords, mesh.points)
