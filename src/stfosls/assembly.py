"""Assembly of the least-squares Galerkin system and its conjugate-gradient solve.

The bilinear form is the L-inner product of system images,

    M[i, j] = integral( G(phi_i) . G(phi_j) )
            + integral over initial facets of trace(phi_i) trace(phi_j),

with the load b[i] = (data, G(phi_i))_L.  Constrained u1 dofs are eliminated
(never enter the global system), so the matrix is symmetric positive
definite on the free dofs.

Both come from one per-level :class:`ImageTable` (local matrices R_K R_K^T,
loads R_K D_K), scattered by a deterministic accumulation in (row, col,
insertion) order that makes the assembled matrix bit-exactly symmetric and
runs reproducible.
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
    build_edge_quadrature,
    build_quadrature,
    build_reference,
    edge_reference_points,
)

__all__ = [
    "SparseSystem",
    "ImageTable",
    "SolverReport",
    "DiscreteSolution",
    "assemble",
    "image_table",
    "solve_cg",
    "element_fields",
    "galerkin_orthogonality_check",
]


@dataclass(frozen=True)
class ImageTable:
    """System images and data of one level, weighted by sqrt(w) per point.

    ``images[K, a]`` is G(phi_a) on element K at all quadrature points and
    residual components (basis in field blocks, u1 first), ``data[K]`` the
    data there; the facet arrays hold the u1 traces and the initial datum on
    each initial facet (empty for systems without an initial trace)."""

    images: np.ndarray  # (ne, nloc_total, nq * n_int)
    data: np.ndarray  # (ne, nq * n_int)
    facet_elements: np.ndarray  # (nf,)
    facet_images: np.ndarray  # (nf, nloc, nq_e)
    facet_data: np.ndarray  # (nf, nq_e)

    def squared_residuals(self, dofmap: DofMap, coeffs: np.ndarray) -> np.ndarray:
        """||D_K - R_K^T c_K||^2 of every element K, its initial facet included."""
        dofs = _global_dofs(dofmap)
        local = np.where(dofs >= 0, coeffs[dofs], 0.0)
        resid = self.data - np.einsum("eak,ea->ek", self.images, local)
        facet_local = local[self.facet_elements, : self.facet_images.shape[1]]
        facet_resid = self.facet_data - np.einsum("fak,fa->fk", self.facet_images, facet_local)
        eta2 = np.einsum("ek,ek->e", resid, resid)
        np.add.at(eta2, self.facet_elements, np.einsum("fk,fk->f", facet_resid, facet_resid))
        return eta2


@dataclass(frozen=True)
class SparseSystem:
    """Assembled symmetric positive definite system and the table it came from."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_dofs: int
    table: Optional[ImageTable] = None


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

    @property
    def u1(self) -> np.ndarray:
        return self.coeffs[: self.dofmap.n_u1]

    def u2(self, comp: int = 0) -> np.ndarray:
        off = self.dofmap.u2_offset(comp)
        return self.coeffs[off: off + self.dofmap.n_scalar]


def default_quadrature(dofmap: DofMap) -> QuadratureRule:
    """Degree 2p + 2 rule: exact for products of system images of basis
    functions under constant coefficients, with headroom for smooth data."""
    return build_quadrature(2 * dofmap.degree + 2)


def default_edge_quadrature(dofmap: DofMap) -> EdgeQuadratureRule:
    return build_edge_quadrature(2 * dofmap.degree + 2)


def _geometry_tables(mesh: Mesh, dofmap: DofMap, quad: QuadratureRule):
    """Basis values (nloc, nq), physical gradients (ne, nloc, nq, 2), points and weights."""
    ref = build_reference(dofmap.degree)
    _, inv_t, det = affine_maps(mesh)
    refpts = quad.reference_points()
    values = ref.values(refpts).T
    ref_grads = ref.gradients(refpts)  # (nq, nloc, 2)
    phys_grads = np.einsum("eab,qib->eiqa", inv_t, ref_grads, optimize=True)
    pts = np.einsum("qk,ekc->eqc", quad.points, mesh.element_coords(), optimize=True)
    wdet = quad.weights[None, :] * det[:, None]
    return values, phys_grads, pts, wdet


def _residual_tables(system, values, phys_grads, pts):
    """System images of all local basis functions, shape (ne, nloc_total, nq, n_int).

    Field blocks are ordered u1 first, then the u2 components, each written
    into one preallocated table as soon as it is evaluated.
    """
    t = pts[:, None, :, 0]
    x = pts[:, None, :, 1]
    val = values[None, :, :]
    nloc = values.shape[0]
    block = system.residual_u1(t, x, val, phys_grads)
    out = np.empty((block.shape[0], nloc * (1 + system.n_flux)) + block.shape[2:])
    out[:, :nloc] = block
    del block
    for comp in range(system.n_flux):
        lo = (comp + 1) * nloc
        out[:, lo: lo + nloc] = system.residual_u2(comp, t, x, val, phys_grads)
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


def image_table(
    mesh: Mesh,
    dofmap: DofMap,
    system,
    quadrature: Optional[QuadratureRule] = None,
    edge_quadrature: Optional[EdgeQuadratureRule] = None,
) -> ImageTable:
    """Image table of one level; affine_maps rejects det <= 0, so sqrt(w) is real."""
    quad = quadrature if quadrature is not None else default_quadrature(dofmap)
    equad = edge_quadrature if edge_quadrature is not None else default_edge_quadrature(dofmap)
    values, phys_grads, pts, wdet = _geometry_tables(mesh, dofmap, quad)
    sqrt_w = np.repeat(np.sqrt(wdet), system.n_interior, axis=1)  # (ne, nq * n_int)
    ne, width = sqrt_w.shape
    images = _residual_tables(system, values, phys_grads, pts).reshape(ne, -1, width)
    images *= sqrt_w[:, None, :]
    data = system.data_interior(pts[..., 0], pts[..., 1]).reshape(ne, width) * sqrt_w
    elems, basis, xs, wlen = _initial_facet_tables(mesh, dofmap, equad, system)
    sqrt_len = np.sqrt(wlen)
    return ImageTable(
        images=images,
        data=data,
        facet_elements=elems,
        facet_images=(basis * sqrt_len[..., None]).transpose(0, 2, 1),
        facet_data=sqrt_len * system.data_initial(xs) if len(elems) else np.zeros_like(xs),
    )


def _global_dofs(dofmap: DofMap) -> np.ndarray:
    """Global dofs of the local basis in field blocks, -1 for constrained u1."""
    cols = [dofmap.cell_dofs_u1]
    for comp in range(dofmap.n_u2_components):
        cols.append(dofmap.cell_dofs_u2(comp))
    return np.concatenate(cols, axis=1)


def _gram(images: np.ndarray) -> np.ndarray:
    """Batched ``R R^T``, mirrored from its upper triangle so that every local
    matrix is bit-exactly symmetric whichever kernel computed the product."""
    local = images @ images.transpose(0, 2, 1)
    lower = np.tril_indices(local.shape[1], -1)
    local[:, lower[0], lower[1]] = local[:, lower[1], lower[0]]
    return local


def _accumulate_csr(keys, vals, n) -> sp.csr_matrix:
    """Deterministic COO -> CSR accumulation of entries keyed ``row * n + col``.

    The entries are put in (row, col) lexicographic order with ties kept in
    insertion order, so duplicate entries are summed in their insertion
    (element) order; symmetric local blocks therefore give a bit-exactly
    symmetric global matrix.  Below n * n = 2**31 that order comes from one
    unstable sort of the packed keys ``key * m + position`` (m entries):
    they are unique, so their order is the stable order of the keys, and
    they stay below 2**63 for any m < 2**32.  Larger keys take a stable
    argsort.
    """
    if len(vals) == 0:
        return sp.csr_matrix((n, n))
    m = len(keys)
    if n * n < 2**31:
        packed = keys.astype(np.int64) * m
        packed += np.arange(m)
        packed.sort()
        k, order = np.divmod(packed, m)
        del packed
    else:
        order = np.argsort(keys, kind="stable")
        k = keys[order]
    first = np.ones(len(k), dtype=bool)
    first[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    data = np.add.reduceat(vals[order], starts)
    del order, first  # the sorted values and the permutation die before the CSR is built
    rows, cols = np.divmod(k[starts], n)
    indptr = np.searchsorted(rows, np.arange(n + 1), side="left")
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


def assemble(
    mesh: Mesh,
    dofmap: DofMap,
    system,
    quadrature: Optional[QuadratureRule] = None,
    edge_quadrature: Optional[EdgeQuadratureRule] = None,
) -> SparseSystem:
    """Matrix, load and image table of the least-squares Galerkin equation."""
    table = image_table(mesh, dofmap, system, quadrature, edge_quadrature)
    n = dofmap.n_dofs
    # An initial facet's Gram matrix and load join the u1 block of its element.
    nloc = table.facet_images.shape[1]
    local = _gram(table.images)
    np.add.at(local[:, :nloc, :nloc], table.facet_elements, _gram(table.facet_images))
    loads = np.einsum("eak,ek->ea", table.images, table.data)
    np.add.at(loads[:, :nloc], table.facet_elements,
              np.einsum("fak,fk->fa", table.facet_images, table.facet_data))

    gdofs = _global_dofs(dofmap)
    free = gdofs >= 0
    rhs = np.zeros(n)
    np.add.at(rhs, gdofs[free], loads[free])
    keep = (free[:, :, None] & free[:, None, :]).ravel()
    gdofs = gdofs.astype(np.int32 if n * n < 2**31 else np.int64)  # compact keys
    keys = (gdofs[:, :, None] * n + gdofs[:, None, :]).ravel()[keep]
    vals = local.ravel()[keep]
    del local, keep
    matrix = _accumulate_csr(keys, vals, n)
    return SparseSystem(matrix=matrix, rhs=rhs, n_dofs=n, table=table)


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


def element_fields(solution: DiscreteSolution, quadrature: QuadratureRule):
    """Discrete field values at quadrature points of every element.

    Returns (u1 values (ne, nq), u1 gradients (ne, nq, 2), u2 values
    (ne, nq, nc), u2 gradients (ne, nq, nc, 2), physical points (ne, nq, 2),
    weighted measures (ne, nq)).
    """
    dofmap = solution.dofmap
    values, phys_grads, pts, wdet = _geometry_tables(solution.mesh, dofmap, quadrature)

    dofs_u1 = dofmap.cell_dofs_u1
    local_u1 = np.where(dofs_u1 >= 0, solution.coeffs[np.maximum(dofs_u1, 0)], 0.0)
    u1_val = local_u1 @ values
    u1_grad = np.einsum("eiqa,ei->eqa", phys_grads, local_u1)

    nc = dofmap.n_u2_components
    u2_val = np.empty(u1_val.shape + (nc,))
    u2_grad = np.empty(u1_val.shape + (nc, 2))
    for comp in range(nc):
        local = solution.coeffs[dofmap.cell_dofs_u2(comp)]
        u2_val[..., comp] = local @ values
        u2_grad[..., comp, :] = np.einsum("eiqa,ei->eqa", phys_grads, local)
    return u1_val, u1_grad, u2_val, u2_grad, pts, wdet


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
