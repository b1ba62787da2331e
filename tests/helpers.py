"""Mesh, dump, interpolation, solve and error-report helpers, and a
manufactured case with a split forcing, that only the tests use."""

import dataclasses
import math
from pathlib import Path

import numpy as np

from stfosls.mesh import FacetTag, Mesh, _edge_incidence, _side_tags
from stfosls.problem import _parabolic_case
from stfosls.spaces import affine_maps

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
    return Mesh(points, cells[:, :3], cells[:, 3], edge_tags, refined_from=np.arange(n_elements))


def element_areas(mesh) -> np.ndarray:
    """Areas of all elements: half the det J of ``affine_maps``, which raises
    on a degenerate or inverted element."""
    return 0.5 * affine_maps(mesh)[2]


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
    coords = mesh.points[mesh.elements]
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


def split_forcing_case():
    """u = exp(-t) sin(pi x) under A = 1, b = 1, c = 0 with the forcing split
    into f2 = t x and f1 = u_t - u_xx + u_x + t, and its exact fields.

    The flux variable is u2 = f2 - A du/dx, so the built-in constructor gets
    it as its ``flux``; its f1 = u_t + flux_x + b u_x is then the one above,
    and only f2 is set afterwards.  With b != 0 and f2 != 0 the two
    convection forms have different divergence targets.
    """
    pi = np.pi
    one = lambda t, x: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731
    zero = lambda t, x: np.zeros_like(np.asarray(t, dtype=float))  # noqa: E731
    problem, exact = _parabolic_case(
        one, one, zero,
        u=lambda t, x: np.exp(-t) * np.sin(pi * x),
        u_t=lambda t, x: -np.exp(-t) * np.sin(pi * x),
        u_x=lambda t, x: pi * np.exp(-t) * np.cos(pi * x),
        flux=lambda t, x: t * x - pi * np.exp(-t) * np.cos(pi * x),
        flux_x=lambda t, x: t + pi * pi * np.exp(-t) * np.sin(pi * x),
    )
    return dataclasses.replace(problem, f2=lambda t, x: t * x), exact
