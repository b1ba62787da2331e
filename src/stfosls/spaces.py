"""Continuous Lagrange spaces on space-time triangles, quadrature, and dof maps.

Supports degrees p in {1, 2}.  The reference triangle has vertices
(0,0), (1,0), (0,1); reference coordinates are written (xi, eta) and the
barycentric coordinates are (1 - xi - eta, xi, eta).  For p = 2 the extra
Lagrange nodes sit at the edge midpoints, ordered like the local edges:
node 3 on edge (v0,v1), node 4 on edge (v1,v2), node 5 on edge (v2,v0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .mesh import FacetTag, Mesh, _edge_keys

__all__ = [
    "ReferenceElement",
    "QuadratureRule",
    "EdgeQuadratureRule",
    "DofMap",
    "DegenerateElementError",
    "build_reference",
    "build_quadrature",
    "build_edge_quadrature",
    "level_rules",
    "build_dofmap",
    "affine_maps",
    "edge_reference_points",
]

_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class ReferenceElement:
    """Nodal Lagrange basis on the reference triangle.

    ``values`` and ``gradients`` evaluate all basis functions at an array of
    reference points; the basis is nodal (`phi_i(node_j) = delta_ij`) and
    sums to one everywhere.
    """

    degree: int

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        xi, eta = pts[:, 0], pts[:, 1]
        lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)
        if self.degree == 1:
            return lam
        l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
        return np.stack(
            [
                l0 * (2.0 * l0 - 1.0),
                l1 * (2.0 * l1 - 1.0),
                l2 * (2.0 * l2 - 1.0),
                4.0 * l0 * l1,
                4.0 * l1 * l2,
                4.0 * l2 * l0,
            ],
            axis=1,
        )

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        n = pts.shape[0]
        if self.degree == 1:
            g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            return np.broadcast_to(g, (n, 3, 2)).copy()
        xi, eta = pts[:, 0], pts[:, 1]
        l0 = 1.0 - xi - eta
        dl0 = np.array([-1.0, -1.0])
        dl1 = np.array([1.0, 0.0])
        dl2 = np.array([0.0, 1.0])
        out = np.empty((n, 6, 2))
        out[:, 0] = (4.0 * l0 - 1.0)[:, None] * dl0
        out[:, 1] = (4.0 * xi - 1.0)[:, None] * dl1
        out[:, 2] = (4.0 * eta - 1.0)[:, None] * dl2
        out[:, 3] = 4.0 * (xi[:, None] * dl0 + l0[:, None] * dl1)
        out[:, 4] = 4.0 * (eta[:, None] * dl1 + xi[:, None] * dl2)
        out[:, 5] = 4.0 * (l0[:, None] * dl2 + eta[:, None] * dl0)
        return out


def build_reference(p: int) -> ReferenceElement:
    """Nodal basis of degree ``p`` on the reference triangle."""
    if p not in (1, 2):
        raise ValueError(f"unsupported polynomial degree {p}; only 1 and 2 are available")
    return ReferenceElement(degree=p)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle; weights sum to 1/2."""

    points: np.ndarray  # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,)

    def reference_points(self) -> np.ndarray:
        """Points in (xi, eta) coordinates, shape (nq, 2)."""
        return self.points[:, 1:]


@dataclass(frozen=True)
class EdgeQuadratureRule:
    """Gauss rule on the unit interval; weights sum to 1."""

    points: np.ndarray  # (nq,) in (0, 1)
    weights: np.ndarray


def build_quadrature(exactness: int) -> QuadratureRule:
    """Triangle rule exact for total degree ``exactness``.

    Built as a collapsed tensor Gauss-Legendre rule: the unit square is
    mapped onto the triangle by (u, v) -> (u, v(1-u)), whose Jacobian 1-u
    raises the u-degree of a degree-q integrand to q+1.  A one-dimensional
    rule with ceil((q+2)/2) points in each direction is therefore exact.
    """
    if exactness < 0:
        raise ValueError("quadrature exactness must be nonnegative")
    n = max(1, (int(exactness) + 3) // 2)
    gp, gw = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (gp + 1.0)
    wu = 0.5 * gw
    xi = np.repeat(u, n)
    eta = np.tile(u, n) * (1.0 - xi)
    w = np.repeat(wu, n) * np.tile(wu, n) * (1.0 - xi)
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    return QuadratureRule(points=bary, weights=w)


def build_edge_quadrature(exactness: int) -> EdgeQuadratureRule:
    """Gauss-Legendre rule on (0, 1) exact for degree ``exactness``."""
    if exactness < 0:
        raise ValueError("quadrature exactness must be nonnegative")
    n = max(1, (int(exactness) + 2) // 2)
    gp, gw = np.polynomial.legendre.leggauss(n)
    return EdgeQuadratureRule(points=0.5 * (gp + 1.0), weights=0.5 * gw)


@cache
def level_rules(p: int) -> tuple[QuadratureRule, EdgeQuadratureRule]:
    """Triangle and edge rules of every level at degree ``p``, exact for degree 2p + 2.

    The Galerkin matrix, the indicators and the graph-norm error all
    integrate with these rules.  They are exact for products of system
    images of basis functions under constant coefficients, with headroom
    for smooth data.  They are built once per degree and shared, so callers
    must not modify their arrays: building them takes about 0.4 ms (two
    Gauss-Legendre eigenproblems), which every level would otherwise pay.
    """
    return build_quadrature(2 * p + 2), build_edge_quadrature(2 * p + 2)


def edge_reference_points(loc: int, s: np.ndarray) -> np.ndarray:
    """Reference coordinates of points with parameter ``s`` on local edge ``loc``."""
    a = _REF_VERTICES[loc]
    b = _REF_VERTICES[(loc + 1) % 3]
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return a[None, :] + s[:, None] * (b - a)[None, :]


@dataclass(frozen=True)
class DofMap:
    """Global numbering for the product space of one constrained scalar field
    and ``n_u2_components`` unconstrained copies of the same scalar space.

    Scalar Lagrange nodes are shared across elements (vertices, plus edge
    midpoints for p = 2), which enforces global continuity.  Field u1 drops
    the nodes sitting on constrained facets; the free u1 dofs come first in
    the global vector, followed by the u2 components one block at a time.

    ``cell_dofs[f * nloc + a, K]`` is the global dof of local function a of
    field f (u1 first) on element K, -1 for a constrained u1 dof.  It is
    int32, scipy's own index type below 2^31 dofs, so the scatter of
    assembly neither doubles its index arrays nor has scipy copy them.
    """

    degree: int
    node_coords: np.ndarray  # (n_scalar, 2)
    constrained_nodes: np.ndarray  # sorted scalar node ids removed from u1
    cell_dofs: np.ndarray  # (nloc * (1 + n_u2_components), ne) int32
    n_dofs: int


def build_dofmap(mesh: Mesh, p: int, n_u2_components: int, dirichlet_tags) -> DofMap:
    """Construct the dof map for degree ``p`` on ``mesh``.

    Field u1 drops the nodes lying on facets whose tag is in
    ``dirichlet_tags``: nothing for an empty set, the whole boundary for the
    stationary instance.
    """
    if p not in (1, 2):
        raise ValueError(f"unsupported polynomial degree {p}; only 1 and 2 are available")
    n_vertices = mesh.n_points
    elements = mesh.elements

    if p == 1:  # the mesh's own arrays: nothing writes to either
        cell_nodes = elements
        node_coords = mesh.points
    else:
        # Edge nodes are numbered after the vertices, in order of first appearance.
        _, first, inverse = np.unique(
            _edge_keys(elements, n_vertices).ravel(), return_index=True, return_inverse=True
        )
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        cell_nodes = np.hstack([elements, n_vertices + rank[inverse].reshape(-1, 3)])
        e, loc = np.divmod(np.sort(first), 3)
        midpoints = 0.5 * (mesh.points[elements[e, loc]] + mesh.points[elements[e, (loc + 1) % 3]])
        node_coords = np.vstack([mesh.points, midpoints])
    n_scalar = node_coords.shape[0]

    tags = [int(FacetTag(int(t))) for t in dirichlet_tags]
    elems, locs = np.nonzero(np.isin(mesh.edge_tags, tags))
    ends = [elements[elems, locs], elements[elems, (locs + 1) % 3]]
    if p == 2:
        ends.append(cell_nodes[elems, 3 + locs])
    constrained = np.unique(np.concatenate(ends)).astype(np.int64)

    is_free = np.ones(n_scalar, dtype=bool)
    is_free[constrained] = False
    free_index = np.where(is_free, np.cumsum(is_free) - 1, -1)
    n_u1 = n_scalar - constrained.size
    nodes = cell_nodes.T
    u2_blocks = [n_u1 + comp * n_scalar + nodes for comp in range(n_u2_components)]

    return DofMap(
        degree=p,
        node_coords=node_coords,
        constrained_nodes=constrained,
        cell_dofs=np.concatenate([free_index[nodes]] + u2_blocks, dtype=np.int32),
        n_dofs=int(n_u1 + n_u2_components * n_scalar),
    )


class DegenerateElementError(ValueError):
    """An element whose reference map is degenerate, inverted or not
    finitely invertible in floating point."""


def affine_maps(mesh: Mesh):
    """Reference maps F(xi) = P0 + J xi of all elements, J = [P1 - P0 | P2 - P0]
    (det J is twice the element area), element axis last: vertex coordinates
    (2, 3, ne), J^{-T} (2, 2, ne) and det J (ne,).  Physical gradients are
    J^{-T} times reference gradients.  Raises DegenerateElementError on the
    first degenerate or inverted element, and on the first whose J^{-T} is
    not finite: a positive but denormal det J makes the division overflow."""
    coords = mesh.points.T[:, mesh.elements.T]
    (a0, a1), (b0, b1) = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    det = a0 * b1 - b0 * a1
    if not np.all(det > 0.0):
        k = int(np.flatnonzero(~(det > 0.0))[0])
        raise DegenerateElementError(f"element {k} is degenerate or inverted (det={det[k]})")
    with np.errstate(over="ignore", invalid="ignore"):
        inv_t = np.array([[b1, -a1], [-b0, a0]]) / det
    finite = np.isfinite(inv_t).all(axis=(0, 1))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise DegenerateElementError(f"element {k} is degenerate: J^-T is not finite (det={det[k]})")
    return coords, inv_t, det
