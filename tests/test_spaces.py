import math

import numpy as np
import pytest

from stfosls.mesh import FacetTag, bisect, uniform_initial_mesh
from stfosls.oracles import affine_map, element_measure, evaluate_field
from stfosls.spaces import (
    affine_maps,
    build_dofmap,
    build_edge_quadrature,
    build_quadrature,
    build_reference,
    edge_reference_points,
)
from helpers import interpolate_nodes


# The Lagrange nodes of the reference triangle: the vertices, then for p = 2
# the midpoints of the edges (v0,v1), (v1,v2), (v2,v0).
_REFERENCE_NODES = {
    1: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    2: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]],
}


@pytest.mark.parametrize("p", [1, 2])
def test_reference_basis_is_nodal(p):
    nodes = np.array(_REFERENCE_NODES[p])
    vals = build_reference(p).values(nodes)
    assert np.allclose(vals, np.eye(len(nodes)), atol=1e-14)


@pytest.mark.parametrize("p", [1, 2])
def test_partition_of_unity(p):
    ref = build_reference(p)
    rng = np.random.default_rng(3)
    pts = rng.random((20, 2)) * 0.5
    assert np.allclose(ref.values(pts).sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(ref.gradients(pts).sum(axis=1), 0.0, atol=1e-14)


def test_reference_p1_values_at_vertices():
    ref = build_reference(1)
    vals = ref.values(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert vals[0, 0] == 1.0 and vals[1, 0] == 0.0
    barycenter = ref.values(np.array([[1 / 3, 1 / 3]]))
    assert barycenter.sum() == pytest.approx(1.0, abs=1e-15)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        build_reference(3)
    with pytest.raises(ValueError):
        build_quadrature(-1)


def test_quadrature_barycentric_monomial():
    rule = build_quadrature(2)
    val = float(np.dot(rule.weights, rule.points[:, 0] * rule.points[:, 1]))
    assert val == pytest.approx(1.0 / 24.0, rel=1e-14)


@pytest.mark.parametrize("degree", range(0, 11))
def test_quadrature_exactness(degree):
    rule = build_quadrature(degree)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    xi, eta = rule.points[:, 1], rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            approx = float(np.dot(rule.weights, xi**a * eta**b))
            assert approx == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("degree", range(0, 11))
def test_edge_quadrature_exactness(degree):
    rule = build_edge_quadrature(degree)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    for k in range(degree + 1):
        assert float(np.dot(rule.weights, rule.points**k)) == pytest.approx(
            1.0 / (k + 1), rel=1e-13
        )


def test_dofmap_counts_single_cell():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    free = build_dofmap(mesh, 1, dirichlet_tags=())
    assert free.n_scalar == 4
    constrained = build_dofmap(mesh, 1)
    # all four corners sit on the lateral boundary x in {0, 1}
    assert constrained.n_u1 == 0
    assert constrained.n_dofs == 4


def test_dofmap_counts_two_by_two():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dm = build_dofmap(mesh, 1)
    assert dm.n_u1 == 3  # the x = 1/2 column
    assert dm.n_dofs == 3 + 9


def test_constrained_nodes_match_geometry():
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), [0, 1, 4])
    for p in (1, 2):
        dm = build_dofmap(mesh, p)
        on_lateral = np.flatnonzero(
            (dm.node_coords[:, 1] == mesh.x_lo) | (dm.node_coords[:, 1] == mesh.x_hi)
        )
        assert np.array_equal(dm.constrained_nodes, on_lateral)


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
    nodes on the tagged sides, and the free u1 dofs number the remaining
    scalar nodes in ascending order."""
    rng = np.random.default_rng(3)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    for _ in range(6):
        mesh = bisect(mesh, rng.choice(mesh.n_elements, size=mesh.n_elements // 3, replace=False))
    cell_edges, midpoints = _edge_nodes_by_scan(mesh)
    dm = build_dofmap(mesh, 2)
    assert np.array_equal(dm.cell_nodes[:, 3:], cell_edges)
    assert np.array_equal(dm.node_coords[mesh.n_points:], midpoints)
    whole = (FacetTag.LATERAL_DIRICHLET, FacetTag.INITIAL, FacetTag.FINAL)
    for p in (1, 2):
        for tags in (None, whole, ()):
            dm = build_dofmap(mesh, p, dirichlet_tags=tags)
            t, x = dm.node_coords[:, 0], dm.node_coords[:, 1]
            on_side = (x == mesh.x_lo) | (x == mesh.x_hi)
            if tags == whole:
                on_side |= (t == 0.0) | (t == mesh.t_end)
            elif tags == ():
                on_side[:] = False
            assert np.array_equal(dm.constrained_nodes, np.flatnonzero(on_side))
            expected = np.full(dm.n_scalar, -1)
            expected[~on_side] = np.arange(np.count_nonzero(~on_side))
            assert np.array_equal(dm.free_index, expected)
            assert dm.n_u1 == np.count_nonzero(~on_side)


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
        edge_tags=np.zeros((1, 3), dtype=np.int64),
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
    dm = build_dofmap(mesh, p, dirichlet_tags=())

    if p == 1:
        f = lambda t, x: 0.5 + 2.0 * t - x
        grad = lambda t, x: (2.0, -1.0)
    else:
        f = lambda t, x: 1.0 + t - 2 * x + t * t - t * x + 0.5 * x * x
        grad = lambda t, x: (1.0 + 2 * t - x, -2.0 - t + x)

    nodal = interpolate_nodes(f, dm)
    coeffs = np.concatenate([nodal[dm.free_index >= 0], np.zeros(0)])
    # unconstrained map: u1 numbering covers all scalar nodes
    assert dm.n_u1 == dm.n_scalar

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
    dm = build_dofmap(mesh, 1, dirichlet_tags=())
    coeffs = interpolate_nodes(lambda t, x: x, dm)
    val, grad = evaluate_field(coeffs, dm, mesh, 3, np.array([0.3, 0.2]), field=0)
    jac, _, _ = affine_map(mesh, 3)
    p0 = mesh.points[mesh.elements[3, 0]]
    phys = p0 + jac @ np.array([0.3, 0.2])
    assert val == pytest.approx(phys[1], abs=1e-14)
    assert np.allclose(grad, [0.0, 1.0], atol=1e-13)


def test_evaluate_field_zero_coefficients():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    dm = build_dofmap(mesh, 1)
    val, grad = evaluate_field(np.zeros(dm.n_dofs), dm, mesh, 0, np.array([0.25, 0.25]), field=1)
    assert val == 0.0
    assert np.all(grad == 0.0)


def test_evaluate_field_p2_quadratic_exact():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    dm = build_dofmap(mesh, 2, dirichlet_tags=())
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
    dm = build_dofmap(mesh, p, dirichlet_tags=())
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
    references the mesh's arrays instead of copying them."""
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), [0, 3])
    dm = build_dofmap(mesh, 1)
    assert np.shares_memory(dm.cell_nodes, mesh.elements)
    assert np.shares_memory(dm.node_coords, mesh.points)
