"""Assembly of the least-squares Galerkin system and its conjugate-gradient solve.

The bilinear form is the L-inner product of system images,

    M[i, j] = integral( G(phi_i) . G(phi_j) )
            + integral over initial facets of trace(phi_i) trace(phi_j),

with the load b[i] = (data, G(phi_i))_L.  Constrained u1 dofs are eliminated
(never enter the global system), so the matrix is symmetric positive
definite on the free dofs.

Both come from one per-level :class:`ImageTable` (local matrices R_K R_K^T,
loads R_K D_K).  Only the upper triangle of each local matrix is scattered,
its diagonal halved, into one sparse matrix H; the assembled matrix is
H + H^T, bit-exactly symmetric because floating-point addition commutes.

The level's :class:`Geometry` and :class:`ImageTable` keep the element axis
last, so their kernels (system images, Gram matrices, loads, residuals,
field values) run numpy's inner loops along that long contiguous axis.  The
geometry is built once per level, travels on the table, and also serves the
indicators and the graph-norm error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, initial_facet_list
from .spaces import (
    DofMap,
    EdgeQuadratureRule,
    QuadratureRule,
    affine_maps,
    build_reference,
    edge_reference_points,
    level_rules,
)

__all__ = [
    "SparseSystem",
    "Geometry",
    "ImageTable",
    "SolverReport",
    "DiscreteSolution",
    "assemble",
    "level_geometry",
    "image_table",
    "solve_cg",
    "element_fields",
    "galerkin_orthogonality_check",
]


@dataclass(frozen=True)
class Geometry:
    """Quadrature geometry of one level, element axis last.

    Physical gradients are not stored; they are mapped from the reference
    gradients through J^{-T} where they are needed.  The facet arrays, facet
    axis first, list the facets tagged Initial in element order (none for
    systems without an initial trace)."""

    values: np.ndarray  # (nloc, nq) reference basis values
    ref_grads: np.ndarray  # (2, nloc, nq) reference basis gradients
    inv_t: np.ndarray  # (2, 2, ne) J^{-T} of every element
    points: np.ndarray  # (2, nq, ne) physical points (t, x)
    wdet: np.ndarray  # (nq, ne) quadrature weight times det J
    facet_elements: np.ndarray  # (nf,)
    facet_basis: np.ndarray  # (nf, nq_e, nloc) basis values at the facet points
    facet_x: np.ndarray  # (nf, nq_e) x of the facet points
    facet_wlen: np.ndarray  # (nf, nq_e) edge weight times facet length

    def basis_gradients(self) -> np.ndarray:
        """Physical gradients of the local basis, (2, nloc, nq, ne): one
        matrix product per gradient component."""
        nloc, nq = self.values.shape
        return (self.ref_grads.reshape(2, -1).T @ self.inv_t).reshape(2, nloc, nq, -1)


@dataclass(frozen=True)
class ImageTable:
    """System images and data of one level, weighted by sqrt(w) per point.

    ``images[a, r, q, K]`` is component r of G(phi_a) at point q of element
    K (basis in field blocks, u1 first), ``data[r, q, K]`` the data there;
    the facet arrays hold the weighted u1 traces and initial datum on each
    initial facet.  ``geometry`` is the level geometry they were built from.
    """

    images: np.ndarray  # (nloc_total, n_int, nq, ne)
    data: np.ndarray  # (n_int, nq, ne)
    facet_images: np.ndarray  # (nloc, nq_e, nf)
    facet_data: np.ndarray  # (nq_e, nf)
    geometry: Geometry

    def squared_residuals(self, dofmap: DofMap, coeffs: np.ndarray) -> np.ndarray:
        """||D_K - R_K^T c_K||^2 of every element K, its initial facet included."""
        local = _local_coeffs(dofmap, coeffs)
        resid = self.data - np.einsum("arqe,ae->rqe", self.images, local)
        eta2 = np.einsum("rqe,rqe->e", resid, resid)
        elems = self.geometry.facet_elements
        facet_local = local[: self.facet_images.shape[0], elems]
        facet_resid = self.facet_data - np.einsum("aqf,af->qf", self.facet_images, facet_local)
        np.add.at(eta2, elems, np.einsum("qf,qf->f", facet_resid, facet_resid))
        return eta2


@dataclass(frozen=True)
class SparseSystem:
    """Assembled symmetric positive definite system and the table it came from."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    table: ImageTable


@dataclass(frozen=True)
class SolverReport:
    """Iterations run, the true relative residual ||b - M x|| / ||b|| at exit,
    and whether it meets the tolerance."""

    iterations: int
    relative_residual: float
    converged: bool


@dataclass(frozen=True)
class DiscreteSolution:
    """Coefficient vector of a least-squares approximation on one mesh."""

    coeffs: np.ndarray
    mesh: Mesh
    dofmap: DofMap


def _geometry_tables(mesh: Mesh, dofmap: DofMap, quad: QuadratureRule):
    """Basis values (nloc, nq) and reference gradients (2, nloc, nq), then
    J^{-T} (2, 2, ne), points (2, nq, ne) and weights times det J (nq, ne)."""
    ref = build_reference(dofmap.degree)
    coords, inv_t, det = affine_maps(mesh)
    refpts = quad.reference_points()
    values = ref.values(refpts).T
    ref_grads = ref.gradients(refpts).transpose(2, 1, 0)
    return values, ref_grads, inv_t, quad.points @ coords, np.outer(quad.weights, det)


def _residual_tables(system, geometry: Geometry, sqrt_w: np.ndarray):
    """sqrt(w)-weighted system images of all local basis functions, shape
    (nloc_total, n_int, nq, ne).

    The images are linear in the fields, so the basis values and gradients
    are weighted once and each field block (u1 first, then the u2
    components) is written by the system straight into its slab of one
    preallocated table, through a view with the component axis first.
    """
    t, x = geometry.points
    val = geometry.values[:, :, None] * sqrt_w
    grads = geometry.basis_gradients()
    grads *= sqrt_w
    nloc = val.shape[0]
    out = np.empty((nloc * (1 + system.n_flux), system.n_interior) + val.shape[1:])
    system.residual_u1(t, x, val, grads, out[:nloc].swapaxes(0, 1))
    for comp in range(system.n_flux):
        lo = (comp + 1) * nloc
        system.residual_u2(comp, t, x, val, grads, out[lo: lo + nloc].swapaxes(0, 1))
    return out


def _initial_facet_tables(mesh: Mesh, dofmap: DofMap, equad: EdgeQuadratureRule, system):
    """Element (nf,), basis values (nf, nq_e, nloc), x points (nf, nq_e) and
    weighted lengths (nf, nq_e) of every facet tagged Initial, in element
    order; empty for a system without an initial-trace component."""
    ref = build_reference(dofmap.degree)
    edge_tables = np.array([ref.values(edge_reference_points(k, equad.points)) for k in range(3)])
    facets = initial_facet_list(mesh)
    if not system.has_initial_trace:
        facets = facets[:0]
    elems, locs = facets[:, 0], facets[:, 1]
    pa = mesh.points[mesh.elements[elems, locs]]
    pb = mesh.points[mesh.elements[elems, (locs + 1) % 3]]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    xs = pa[:, 1:] + equad.points * (pb[:, 1:] - pa[:, 1:])
    return elems, edge_tables[locs], xs, equad.weights * length[:, None]


def level_geometry(mesh: Mesh, dofmap: DofMap, system) -> Geometry:
    """Quadrature geometry of one level under its rules, initial facets included."""
    quad, equad = level_rules(dofmap.degree)
    return Geometry(
        *_geometry_tables(mesh, dofmap, quad),
        *_initial_facet_tables(mesh, dofmap, equad, system),
    )


def image_table(mesh: Mesh, dofmap: DofMap, system) -> ImageTable:
    """Image table of one level; affine_maps rejects det <= 0, so sqrt(w) is real."""
    geometry = level_geometry(mesh, dofmap, system)
    sqrt_w = np.sqrt(geometry.wdet)
    images = _residual_tables(system, geometry, sqrt_w)
    data = system.data_interior(*geometry.points) * sqrt_w
    xs = geometry.facet_x
    sqrt_len = np.sqrt(geometry.facet_wlen)
    return ImageTable(
        images=images,
        data=data,
        facet_images=(geometry.facet_basis * sqrt_len[..., None]).T,
        facet_data=(sqrt_len * system.data_initial(xs) if xs.size else np.zeros_like(xs)).T,
        geometry=geometry,
    )


def _global_dofs(dofmap: DofMap) -> np.ndarray:
    """Global dofs of the local basis in field blocks, (nloc_total, ne), -1
    for constrained u1.  int32, scipy's own index type below 2^31 dofs, so
    the scatter neither doubles its index arrays nor has scipy copy them."""
    nodes = dofmap.cell_nodes.T
    blocks = [dofmap.free_index[nodes]]
    for comp in range(dofmap.n_u2_components):
        blocks.append(dofmap.u2_offset(comp) + nodes)
    return np.concatenate(blocks, dtype=np.int32)


def _local_coeffs(dofmap: DofMap, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the local basis, (nloc_total, ne); constrained u1 dofs are zero."""
    dofs = _global_dofs(dofmap)
    return np.where(dofs >= 0, coeffs[dofs], 0.0)


def _gram(images: np.ndarray) -> np.ndarray:
    """Upper triangles of the local matrices ``R R^T`` of element-last images
    (nloc, ..., ne): entries (a, b), a <= b, in ``np.triu_indices`` order, as
    (nloc (nloc + 1) / 2, ne).  Row a is one contraction along the element axis."""
    nloc, ne = images.shape[0], images.shape[-1]
    flat = images.reshape(nloc, math.prod(images.shape[1:-1]), ne)
    upper = np.empty((nloc * (nloc + 1) // 2, ne))
    lo = 0
    for a in range(nloc):
        np.einsum("ke,bke->be", flat[a], flat[a:], out=upper[lo: lo + nloc - a])
        lo += nloc - a
    return upper


def assemble(mesh: Mesh, dofmap: DofMap, system) -> SparseSystem:
    """Matrix, load and image table of the least-squares Galerkin equation."""
    table = image_table(mesh, dofmap, system)
    n = dofmap.n_dofs
    # An initial facet's Gram matrix and load join the u1 block of its element.
    elems = table.geometry.facet_elements
    nloc = table.facet_images.shape[0]
    rows, cols = np.triu_indices(table.images.shape[0])
    upper = _gram(table.images)
    np.add.at(upper, (np.flatnonzero(cols < nloc)[:, None], elems), _gram(table.facet_images))
    upper[rows == cols] *= 0.5  # H + H^T counts the diagonal twice
    loads = np.einsum("arqe,rqe->ae", table.images, table.data).T
    np.add.at(loads[:, :nloc], elems, np.einsum("aqf,qf->fa", table.facet_images, table.facet_data))

    gdofs = _global_dofs(dofmap)
    free = gdofs.T >= 0
    rhs = np.zeros(n)
    np.add.at(rhs, gdofs.T[free], loads[free])
    gi, gj = gdofs[rows], gdofs[cols]
    keep = (gi >= 0) & (gj >= 0)
    entries = upper[keep], (gi[keep], gj[keep])
    del upper, gi, gj, keep  # each transient is freed as soon as it is used
    half = sp.csr_matrix(entries, shape=(n, n))
    del entries
    half = half.tocoo()
    # H + H^T from H's entries and their mirror images: each position sums at
    # most two terms, which commute, so the matrix is bit-exactly symmetric.
    # Unlike scipy's H + H.T this keeps the exact zeros of the element
    # pattern, on which the MMD ordering factorizes graded levels about 20 %
    # faster.
    mirrored = (np.concatenate([half.row, half.col]), np.concatenate([half.col, half.row]))
    matrix = sp.csr_matrix((np.tile(half.data, 2), mirrored), shape=(n, n))
    return SparseSystem(matrix=matrix, rhs=rhs, table=table)


def _lu_preconditioner(matrix):
    """``lu.solve`` of one SuperLU factorization of a symmetric CSR matrix.

    The CSR arrays of a symmetric matrix are also its CSC arrays, so the
    factorization reads them in place instead of converting the matrix.
    The import is deferred so that the start-up of the command line pays
    nothing for ``scipy.sparse.linalg``.

    ``relax=1, panel_size=1`` turn off SuperLU's relaxed supernodes.  With
    its defaults some levels factorize 9-270x slower at the same fill (a
    33,024-dof uniform p=1 level: 41.5 s against 0.21 s), depending on
    the matrix, not on its size alone.  MMD on A + A^T keeps less fill than
    COLAMD here (2.73M against 6.49M entries at that level) and is faster
    on every set of levels measured.  relax must not exceed panel_size.
    """
    from scipy.sparse.linalg import splu

    csc = sp.csc_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    lu = splu(
        csc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        relax=1,
        panel_size=1,
        options={"SymmetricMode": True},
    )
    return lu.solve


def solve_cg(
    matrix,
    rhs: np.ndarray,
    rel_tol: float = 1e-10,
    max_iters: Optional[int] = None,
    factorize: bool = False,
):
    """Conjugate gradients with zero initial guess.

    Stops when the true residual satisfies ||b - M x|| <= rel_tol ||b||;
    deterministic for fixed inputs.  The recursively updated residual
    drifts from b - M x in floating point, so whenever it meets the
    tolerance it is replaced by the true residual (one matvec) and the
    iteration goes on while that one does not (van der Vorst & Ye, SIAM
    J. Sci. Comput. 2000).  The report always carries the true residual,
    and non-convergence is reported through the flag, not raised.

    With ``factorize`` the symmetric CSR ``matrix`` is factorized once by
    SuperLU and its solve preconditions the iteration: one iteration is the
    direct solve, and any further ones act as iterative refinement.
    Without it the iteration is unpreconditioned, which keeps it
    independent of the factorization as a reference.
    """
    n = rhs.shape[0]
    if max_iters is None:
        max_iters = 20 * max(n, 1)
    x = np.zeros(n)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return x, SolverReport(iterations=0, relative_residual=0.0, converged=True)
    precondition = _lu_preconditioner(matrix) if factorize else (lambda v: v)

    def relative(residual) -> float:
        return math.sqrt(float(residual @ residual)) / b_norm

    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    rel = 1.0
    iterations = 0
    while rel > rel_tol and iterations < max_iters:
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rel = relative(r)
        if rel <= rel_tol:
            r = rhs - matrix @ x
            rel = relative(r)
        iterations += 1
        if rel > rel_tol:  # a converged iterate needs no next direction
            z = precondition(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
    if rel > rel_tol:  # stopped by max_iters, possibly on the recursive residual
        rel = relative(rhs - matrix @ x)
    return x, SolverReport(iterations=iterations, relative_residual=rel, converged=rel <= rel_tol)


def element_fields(solution: DiscreteSolution, geometry: Geometry):
    """Discrete field values at the quadrature points of every element.

    Returns u1 values (nq, ne), u1 gradients (2, nq, ne), u2 values
    (nc, nq, ne) and u2 gradients (nc, 2, nq, ne), element axis last.
    """
    nloc, ne = geometry.values.shape[0], geometry.inv_t.shape[-1]
    local = _local_coeffs(solution.dofmap, solution.coeffs).reshape(-1, nloc, ne)
    values = geometry.values.T @ local
    ref = geometry.ref_grads.transpose(0, 2, 1) @ local[:, None]  # (1 + nc, 2, nq, ne)
    inv_t = geometry.inv_t[:, :, None, :]
    grads = inv_t[:, 0] * ref[:, :1] + inv_t[:, 1] * ref[:, 1:]
    return values[0], grads[0], values[1:], grads[1:]


def galerkin_orthogonality_check(solution: DiscreteSolution, sparse_system: SparseSystem) -> float:
    """Largest normalized defect max_j |(f - G u, G phi_j)_L| / ||(f, G phi)_L||.

    The inner products are exactly the algebraic residual entries of the
    system the solution was computed from, so the defect measures how far
    the computed coefficients are from discrete orthogonality.
    """
    r = sparse_system.rhs - sparse_system.matrix @ solution.coeffs
    b_norm = float(np.linalg.norm(sparse_system.rhs))
    r_max = float(np.max(np.abs(r))) if r.size else 0.0
    if b_norm == 0.0:
        return 0.0 if r_max == 0.0 else float("inf")
    return r_max / b_norm
