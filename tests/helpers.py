"""Mesh, dump, interpolation, solve and error-report helpers that only the tests use."""

import math
from pathlib import Path

import numpy as np

from stfosls.mesh import FacetTag, Mesh, _edge_incidence, _side_tags

_DUMP_TAGS = {"lateral": FacetTag.LATERAL_DIRICHLET, "initial": FacetTag.INITIAL, "final": FacetTag.FINAL}


def read_mesh_dump(path) -> Mesh:
    """The mesh in a ``spacetime-mesh v1`` dump that ``write_mesh`` wrote, unvalidated."""
    rows = [line.split() for line in Path(path).read_text().splitlines()[1:]]
    n_points, n_elements = map(int, rows[0])
    points = np.array(rows[1:1 + n_points], dtype=float)
    cells = np.array(rows[1 + n_points:1 + n_points + n_elements], dtype=np.int64)
    edge_tags = np.zeros((n_elements, 3), dtype=np.int64)
    for e, loc, name in rows[1 + n_points + n_elements:]:
        edge_tags[int(e), int(loc)] = _DUMP_TAGS[name]
    return Mesh(points, cells[:, :3], cells[:, 3], edge_tags, t_end=float(points[:, 0].max()),
                x_lo=float(points[:, 1].min()), x_hi=float(points[:, 1].max()),
                refined_from=np.arange(n_elements))


def boundary_tags_consistent(mesh) -> bool:
    """Check that tags mark exactly the boundary and match their side."""
    a, b, edge_of, counts = _edge_incidence(mesh)
    expected = np.full(counts.size, int(FacetTag.INTERIOR))
    single = counts == 1
    expected[single] = _side_tags(mesh, a[single], b[single])
    return bool(np.all(counts <= 2) and np.array_equal(expected[edge_of], mesh.edge_tags))


def galerkin_defect(matrix, rhs, x) -> float:
    """max_j |(b - M x)_j| / ||b||_2, the Galerkin defect that ``SolverReport``
    reports, recomputed without scaling; for b = 0 it is 0 when M x = 0 and
    inf otherwise."""
    r_max = float(np.abs(rhs - matrix @ x).max(initial=0.0))
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return 0.0 if r_max == 0.0 else math.inf
    return r_max / b_norm


def error_contributions(report):
    """The squared-additive parts of an ``ErrorReport``, total excluded."""
    return (report.u1_l2, report.u1_grad_l2, report.u2_l2, report.div_l2, report.initial_l2)


def efficiency_reliability_ratio(indicators, report) -> float:
    """Ratio estimator / error; returns inf when the error vanishes."""
    if report.total == 0.0:
        return float("inf")
    return indicators.total / report.total


def element_patch(mesh, k: int) -> np.ndarray:
    """Indices of all elements sharing at least one vertex with element ``k``."""
    verts = set(int(v) for v in mesh.elements[k])
    hit = np.isin(mesh.elements, list(verts)).any(axis=1)
    return np.flatnonzero(hit)


def initial_facets(mesh, k: int):
    """Vertex pairs of the edges of element ``k`` tagged Initial."""
    tri = mesh.elements[k]
    out = []
    for loc in range(3):
        if mesh.edge_tags[k, loc] == FacetTag.INITIAL:
            out.append((int(tri[loc]), int(tri[(loc + 1) % 3])))
    return out


def sorted_angles(mesh) -> np.ndarray:
    """Interior angles per element, each row sorted ascending (radians)."""
    coords = mesh.element_coords()
    angles = np.empty((mesh.n_elements, 3))
    for loc in range(3):
        u = coords[:, (loc + 1) % 3] - coords[:, loc]
        v = coords[:, (loc + 2) % 3] - coords[:, loc]
        cosv = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles[:, loc] = np.arccos(np.clip(cosv, -1.0, 1.0))
    angles.sort(axis=1)
    return angles


def interpolate_nodes(f, dofmap) -> np.ndarray:
    """Nodal interpolation of a callable f(t, x) on the scalar Lagrange nodes."""
    t = dofmap.node_coords[:, 0]
    x = dofmap.node_coords[:, 1]
    return np.asarray([float(f(float(ti), float(xi))) for ti, xi in zip(t, x)])
