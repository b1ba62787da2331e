"""Continuous Lagrange spaces on space-time triangles: the reference basis,
quadrature, the reference map of every element, and dof maps.

Supports degrees p in {1, 2}.  The reference triangle has vertices
(0,0), (1,0), (0,1); reference coordinates are written (xi, eta) and the
barycentric coordinates are (1 - xi - eta, xi, eta).  For p = 2 the extra
Lagrange nodes sit at the edge midpoints, ordered like the local edges:
node 3 on edge (v0,v1), node 4 on edge (v1,v2), node 5 on edge (v2,v0).

The element is functions and arrays: :func:`reference_basis` evaluates the
basis at any reference points, the two rules are (points, weights) pairs,
:func:`level_tables` holds both rules and the basis on them once per degree,
and :func:`affine_maps` is the one map of the elements of a mesh."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .mesh import Mesh, _edge_keys, on_sides

__all__ = [
    "LevelTables",
    "DofMap",
    "DegenerateElementError",
    "reference_basis",
    "build_quadrature",
    "build_edge_quadrature",
    "level_tables",
    "build_dofmap",
    "affine_maps",
    "edge_reference_points",
]

_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def reference_basis(p: int, pts):
    """Nodal Lagrange basis of degree ``p`` at the reference points ``pts``
    (n, 2): values (n, nloc) and reference gradients (n, nloc, 2).  The basis
    is nodal (phi_i(node_j) = delta_ij) and sums to one everywhere."""
    if p not in (1, 2):
        raise ValueError(f"unsupported polynomial degree {p}; only 1 and 2 are available")
    pts = np.atleast_2d(pts)
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if p == 1:
        return lam, np.broadcast_to(dlam, (pts.shape[0], 3, 2)).copy()
    # Edge node 3 + k sits on local edge k, from v_i = v_k to v_j = v_{k+1}.
    i, j = [0, 1, 2], [1, 2, 0]
    values = np.concatenate([lam * (2.0 * lam - 1.0), 4.0 * lam[:, i] * lam[:, j]], axis=1)
    grads = np.concatenate([(4.0 * lam - 1.0)[:, :, None] * dlam,
                            4.0 * (lam[:, j, None] * dlam[i] + lam[:, i, None] * dlam[j])], axis=1)
    return values, grads


def build_quadrature(exactness: int):
    """Triangle rule exact for total degree ``exactness``: barycentric points
    (nq, 3) and weights (nq,) summing to 1/2.

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
    return np.column_stack([1.0 - xi - eta, xi, eta]), w


def build_edge_quadrature(exactness: int):
    """Gauss-Legendre rule on (0, 1) exact for degree ``exactness``: points
    (nq,) and weights (nq,) summing to 1."""
    if exactness < 0:
        raise ValueError("quadrature exactness must be nonnegative")
    n = max(1, (int(exactness) + 2) // 2)
    gp, gw = np.polynomial.legendre.leggauss(n)
    return 0.5 * (gp + 1.0), 0.5 * gw


@dataclass(frozen=True)
class LevelTables:
    """The triangle and edge rules of every level at degree p, exact for
    degree 2p + 2 (products of system images of basis functions under
    constant coefficients, with headroom for smooth data), and the reference
    basis on them.  Shared by every level of the degree, so read-only."""

    quad_points: np.ndarray  # (nq, 3) barycentric points of the triangle rule
    quad_weights: np.ndarray  # (nq,) its weights
    edge_points: np.ndarray  # (nq_e,) points of the edge rule in (0, 1)
    edge_weights: np.ndarray  # (nq_e,) its weights
    values: np.ndarray  # (nloc, nq) basis values at the triangle rule's points
    ref_grads: np.ndarray  # (2, nloc, nq) reference gradients there
    edge_values: np.ndarray  # (3, nq_e, nloc) basis at the edge rule's points on each local edge


@cache
def level_tables(p: int) -> LevelTables:
    """The :class:`LevelTables` of degree ``p``, built once: the two
    Gauss-Legendre eigenproblems take about 0.4 ms, which every level would
    otherwise pay."""
    quad_points, quad_weights = build_quadrature(2 * p + 2)
    edge_points, edge_weights = build_edge_quadrature(2 * p + 2)
    values, grads = reference_basis(p, quad_points[:, 1:])
    edge_values = [reference_basis(p, edge_reference_points(k, edge_points))[0] for k in range(3)]
    tables = LevelTables(quad_points, quad_weights, edge_points, edge_weights,
                         values.T, grads.transpose(2, 1, 0), np.array(edge_values))
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def edge_reference_points(loc: int, s: np.ndarray) -> np.ndarray:
    """Reference coordinates of points with parameter ``s`` on local edge ``loc``."""
    a = _REF_VERTICES[loc]
    b = _REF_VERTICES[(loc + 1) % 3]
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return a[None, :] + s[:, None] * (b - a)[None, :]


@dataclass(frozen=True)
class DofMap:
    """Global numbering for the product space of one constrained scalar field
    and ``n_flux`` unconstrained copies of the same scalar space.

    Scalar Lagrange nodes are shared across elements (vertices, plus edge
    midpoints for p = 2), which enforces global continuity.  Field u1 drops
    the nodes lying on a Dirichlet side; the free u1 dofs come first in the
    global vector, followed by the u2 components one block at a time.

    ``cell_dofs[f * nloc + a, K]`` is the global dof of local function a of
    field f (u1 first) on element K, -1 for a constrained u1 dof.  It is
    int32, scipy's own index type below 2^31 dofs, so the scatter of
    assembly neither doubles its index arrays nor has scipy copy them.
    """

    degree: int
    node_coords: np.ndarray  # (n_scalar, 2)
    constrained_nodes: np.ndarray  # sorted scalar node ids removed from u1
    cell_dofs: np.ndarray  # (nloc * (1 + n_flux), ne) int32
    n_dofs: int


def build_dofmap(mesh: Mesh, p: int, system) -> DofMap:
    """Construct the dof map of ``system``'s product space, one u1 field and
    ``system.n_flux`` flux components, for degree ``p`` on ``mesh``.

    Field u1 drops the nodes lying on a Dirichlet side, one whose edges carry
    a tag in ``system.dirichlet_tags``, read off the node coordinates by
    :func:`stfosls.mesh.on_sides`: nothing for an empty set, the whole
    boundary for the stationary instance.
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

    is_free = ~on_sides(mesh, node_coords, system.dirichlet_tags)
    free_index = np.where(is_free, np.cumsum(is_free) - 1, -1)
    n_u1 = np.count_nonzero(is_free)
    nodes = cell_nodes.T
    u2_blocks = [n_u1 + comp * n_scalar + nodes for comp in range(system.n_flux)]

    return DofMap(
        degree=p,
        node_coords=node_coords,
        constrained_nodes=np.flatnonzero(~is_free),
        cell_dofs=np.concatenate([free_index[nodes]] + u2_blocks, dtype=np.int32),
        n_dofs=int(n_u1 + system.n_flux * n_scalar),
    )


class DegenerateElementError(ValueError):
    """An element whose reference map is degenerate, inverted or not
    finitely invertible in floating point."""


def affine_maps(mesh: Mesh):
    """Reference maps F(xi) = P0 + J xi of all elements, J = [P1 - P0 | P2 - P0]
    (det J is twice the element area), element axis last: vertex coordinates
    (2, 3, ne), J^{-T} (2, 2, ne) and det J (ne,).  Physical gradients are
    J^{-T} times reference gradients.  Raises DegenerateElementError on the
    first degenerate or inverted element, and on the first whose det J or
    J^{-T} is not finite: huge sides make the product overflow, and a
    positive but denormal det J the division."""
    coords = mesh.points.T[:, mesh.elements.T]
    (a0, a1), (b0, b1) = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        det = a0 * b1 - b0 * a1
    if not np.all(det > 0.0):
        k = int(np.flatnonzero(~(det > 0.0))[0])
        raise DegenerateElementError(f"element {k} is degenerate or inverted (det={det[k]})")
    with np.errstate(over="ignore", invalid="ignore"):
        inv_t = np.array([[b1, -a1], [-b0, a0]]) / det
    finite = np.isfinite(inv_t).all(axis=(0, 1)) & np.isfinite(det)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise DegenerateElementError(
            f"element {k} is degenerate: det J or J^-T is not finite (det={det[k]})")
    return coords, inv_t, det
