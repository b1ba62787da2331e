"""Assembly of the least-squares Galerkin system and its conjugate-gradient solve.

The bilinear form is the L-inner product of system images,

    M[i, j] = integral( G(phi_i) . G(phi_j) )
            + integral over initial facets of trace(phi_i) trace(phi_j),

with the load b[i] = (data, G(phi_i))_L.  Constrained u1 dofs are eliminated
(never enter the global system), so the matrix is symmetric positive
definite on the free dofs.

Element contributions are computed vectorized over all elements and
scattered with a deterministic stable-sort accumulation, which makes the
assembled matrix bit-exactly symmetric and runs reproducible.
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
    "SolverReport",
    "DiscreteSolution",
    "assemble",
    "solve_cg",
    "element_fields",
    "galerkin_orthogonality_check",
]


@dataclass(frozen=True)
class SparseSystem:
    """Assembled symmetric positive definite system."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_dofs: int


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
    """Basis values, physical gradients, quadrature points and weights."""
    ref = build_reference(dofmap.degree)
    _, inv_t, det = affine_maps(mesh)
    refpts = quad.reference_points()
    values = ref.values(refpts)  # (nq, nloc)
    ref_grads = ref.gradients(refpts)  # (nq, nloc, 2)
    phys_grads = np.einsum("eab,qib->eqia", inv_t, ref_grads)
    coords = mesh.element_coords()
    pts = np.einsum("qk,ekc->eqc", quad.points, coords)  # (ne, nq, 2)
    wdet = quad.weights[None, :] * det[:, None]
    return values, phys_grads, pts, wdet


def _residual_tables(system, values, phys_grads, pts):
    """System images of all local basis functions, shape (ne, nq, nloc_total, n_int).

    Field blocks are ordered u1 first, then the u2 components, each written
    into one preallocated table as soon as it is evaluated.
    """
    t = pts[..., 0][..., None]
    x = pts[..., 1][..., None]
    val = values[None, :, :]
    nloc = values.shape[1]
    block = system.residual_u1(t, x, val, phys_grads)
    out = np.empty(block.shape[:2] + (nloc * (1 + system.n_flux),) + block.shape[3:])
    out[:, :, :nloc] = block
    del block
    for comp in range(system.n_flux):
        lo = (comp + 1) * nloc
        out[:, :, lo: lo + nloc] = system.residual_u2(comp, t, x, val, phys_grads)
    return out


def _element_matrices(mesh: Mesh, dofmap: DofMap, system, quad: QuadratureRule):
    """Local matrices (ne, nloc_total, nloc_total) and loads (ne, nloc_total).

    The geometry and residual tables die with this frame, so they are freed
    before the scatter allocates its index arrays.
    """
    values, phys_grads, pts, wdet = _geometry_tables(mesh, dofmap, quad)
    resid = _residual_tables(system, values, phys_grads, pts)
    local = np.einsum("eqar,eqbr,eq->eab", resid, resid, wdet)
    data = system.data_interior(pts[..., 0], pts[..., 1])
    local_rhs = np.einsum("eqr,eqar,eq->ea", data, resid, wdet)
    return local, local_rhs


def _global_dofs(dofmap: DofMap, n_flux: int) -> np.ndarray:
    cols = [dofmap.cell_dofs_u1]
    for comp in range(n_flux):
        cols.append(dofmap.cell_dofs_u2(comp))
    return np.concatenate(cols, axis=1)


def _accumulate_csr(keys, vals, n) -> sp.csr_matrix:
    """Deterministic COO -> CSR accumulation of entries keyed ``row * n + col``.

    A stable sort of the keys is the (row, col) lexicographic order with
    ties kept in insertion order, so duplicate entries are summed in their
    insertion (element) order; symmetric local blocks therefore give a
    bit-exactly symmetric global matrix.
    """
    if len(vals) == 0:
        return sp.csr_matrix((n, n))
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    v = vals[order]
    first = np.ones(len(k), dtype=bool)
    first[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    data = np.add.reduceat(v, starts)
    rows, cols = np.divmod(k[starts], n)
    indptr = np.searchsorted(rows, np.arange(n + 1), side="left")
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


def _initial_facet_tables(mesh: Mesh, dofmap: DofMap, equad: EdgeQuadratureRule):
    """Per-facet data for the trace terms on the t = 0 boundary.

    Yields (element, local edge, basis values (nq_e, nloc), x coordinates
    (nq_e,), weighted lengths (nq_e,)) for every facet tagged Initial.
    """
    ref = build_reference(dofmap.degree)
    edge_tables = [ref.values(edge_reference_points(loc, equad.points)) for loc in range(3)]
    out = []
    for e, loc in initial_facet_list(mesh):
        a = mesh.elements[e, loc]
        b = mesh.elements[e, (loc + 1) % 3]
        pa, pb = mesh.points[a], mesh.points[b]
        length = float(np.hypot(*(pb - pa)))
        xs = pa[1] + equad.points * (pb[1] - pa[1])
        out.append((int(e), int(loc), edge_tables[loc], xs, equad.weights * length))
    return out


def assemble(
    mesh: Mesh,
    dofmap: DofMap,
    system,
    quadrature: Optional[QuadratureRule] = None,
    edge_quadrature: Optional[EdgeQuadratureRule] = None,
) -> SparseSystem:
    """Assemble matrix and load of the least-squares Galerkin equation."""
    quad = quadrature if quadrature is not None else default_quadrature(dofmap)
    equad = edge_quadrature if edge_quadrature is not None else default_edge_quadrature(dofmap)

    local, local_rhs = _element_matrices(mesh, dofmap, system, quad)
    gdofs = _global_dofs(dofmap, system.n_flux)
    n = dofmap.n_dofs

    is_free = gdofs >= 0
    keep = (is_free[:, :, None] & is_free[:, None, :]).ravel()
    keys_list = [(gdofs[:, :, None] * n + gdofs[:, None, :]).ravel()[keep]]
    vals_list = [local.ravel()[keep]]
    del local, keep

    rhs = np.zeros(n)
    np.add.at(rhs, gdofs[is_free], local_rhs[is_free])

    if system.has_initial_trace:
        cell_dofs_u1 = dofmap.cell_dofs_u1  # a property that gathers the whole table
        for e, _loc, basis, xs, wlen in _initial_facet_tables(mesh, dofmap, equad):
            dofs = cell_dofs_u1[e]
            mloc = np.einsum("qa,qb,q->ab", basis, basis, wlen)
            bloc = np.einsum("q,qa,q->a", system.data_initial(xs), basis, wlen)
            free = dofs >= 0
            ekeep = free[:, None] & free[None, :]
            keys_list.append((dofs[:, None] * n + dofs[None, :])[ekeep])
            vals_list.append(mloc[ekeep])
            np.add.at(rhs, dofs[free], bloc[free])

    if len(keys_list) == 1:
        keys, vals = keys_list[0], vals_list[0]
    else:
        keys, vals = np.concatenate(keys_list), np.concatenate(vals_list)
    del keys_list, vals_list
    matrix = _accumulate_csr(keys, vals, n)
    return SparseSystem(matrix=matrix, rhs=rhs, n_dofs=n)


def _lu_preconditioner(matrix):
    """``lu.solve`` of one SuperLU factorization of a symmetric CSR matrix.

    The CSR arrays of a symmetric matrix are also its CSC arrays, so the
    factorization reads them in place instead of converting the matrix.
    The import is deferred so that the start-up of the command line pays
    nothing for ``scipy.sparse.linalg``.
    """
    from scipy.sparse.linalg import splu

    csc = sp.csc_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    lu = splu(
        csc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
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
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
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
    u1_val = np.einsum("qi,ei->eq", values, local_u1)
    u1_grad = np.einsum("eqia,ei->eqa", phys_grads, local_u1)

    nc = dofmap.n_u2_components
    u2_val = np.empty(u1_val.shape + (nc,))
    u2_grad = np.empty(u1_val.shape + (nc, 2))
    for comp in range(nc):
        local = solution.coeffs[dofmap.cell_dofs_u2(comp)]
        u2_val[..., comp] = np.einsum("qi,ei->eq", values, local)
        u2_grad[..., comp, :] = np.einsum("eqia,ei->eqa", phys_grads, local)
    return u1_val, u1_grad, u2_val, u2_grad, pts, wdet


def galerkin_orthogonality_check(
    solution: DiscreteSolution,
    system,
    quadrature: Optional[QuadratureRule] = None,
    sparse_system: Optional[SparseSystem] = None,
) -> float:
    """Largest normalized defect max_j |(f - G u, G phi_j)_L| / ||(f, G phi)_L||.

    The inner products are exactly the algebraic residual entries of the
    assembled system, so the defect measures how far the computed
    coefficients are from discrete orthogonality.
    """
    if sparse_system is None:
        sparse_system = assemble(solution.mesh, solution.dofmap, system, quadrature)
    r = sparse_system.rhs - sparse_system.matrix @ solution.coeffs
    b_norm = float(np.linalg.norm(sparse_system.rhs))
    r_max = float(np.max(np.abs(r))) if r.size else 0.0
    if b_norm == 0.0:
        return 0.0 if r_max == 0.0 else float("inf")
    return r_max / b_norm
