"""Assembly of the least-squares Galerkin system and its conjugate-gradient solve.

The bilinear form is the L-inner product of system images,

    M[i, j] = integral( G(phi_i) . G(phi_j) )
            + integral over initial facets of trace(phi_i) trace(phi_j),

with the load b[i] = (data, G(phi_i))_L.  Constrained u1 dofs are eliminated
(never enter the global system), so the matrix is symmetric positive
definite on the free dofs.

Both come from the sqrt(w)-weighted images R_K of the local basis (local
matrices R_K R_K^T, loads R_K D_K).  The images are built, contracted and
freed one block of elements at a time, so no level holds its whole image
table.  Only the upper triangle of each local matrix is scattered, its
diagonal halved, into one sparse matrix H; the assembled matrix is H + H^T,
bit-exactly symmetric because floating-point addition commutes.

The level's :class:`Geometry` keeps the element axis last, so its kernels
(system images, Gram matrices, loads, residuals, field values) run numpy's
inner loops along that long contiguous axis.  The geometry and the weighted
data are built once per level, travel on the :class:`SparseSystem`, and
also serve the indicators and the graph-norm error.
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

# Elements per block of the image table: images of one block are built,
# contracted and freed before the next, and a level below this size is one block.
_BLOCK = 1024

__all__ = [
    "SparseSystem",
    "Geometry",
    "LevelData",
    "SolverReport",
    "DiscreteSolution",
    "assemble",
    "level_geometry",
    "level_data",
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

    def basis_gradients(self, block: slice = slice(None)) -> np.ndarray:
        """Physical gradients of the local basis on the elements of ``block``,
        (2, nloc, nq, nb): one matrix product per gradient component."""
        nloc, nq = self.values.shape
        return (self.ref_grads.reshape(2, -1).T @ self.inv_t[..., block]).reshape(2, nloc, nq, -1)


@dataclass(frozen=True)
class LevelData:
    """Geometry of one level and its data, weighted by sqrt(w) per point.

    ``data[r, q, K]`` is component r of the interior data at point q of
    element K, ``facet_data[q, f]`` the initial datum at point q of the
    initial facet f of ``geometry``.
    """

    geometry: Geometry
    data: np.ndarray  # (n_int, nq, ne)
    facet_data: np.ndarray  # (nq_e, nf)


@dataclass(frozen=True)
class SparseSystem:
    """Assembled symmetric positive definite system and the level data it came from."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    level: LevelData


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


def _blocks(n_elements: int):
    """Slices of the element axis, ``_BLOCK`` elements each, the last one shorter."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, n_elements, _BLOCK)]


def _residual_tables(system, geometry: Geometry, sqrt_w: np.ndarray, block: slice):
    """sqrt(w)-weighted system images of all local basis functions on the
    elements of ``block``, shape (nloc_total, n_int, nq, nb); ``sqrt_w`` is
    that of the whole level.

    The images are linear in the fields, so the basis values and gradients
    are weighted once and each field block (u1 first, then the u2
    components) is written by the system straight into its slab of one
    preallocated table, through a view with the component axis first.
    """
    t, x = geometry.points[..., block]
    sqrt_w = sqrt_w[:, block]
    val = geometry.values[:, :, None] * sqrt_w
    grads = geometry.basis_gradients(block)
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


def level_data(mesh: Mesh, dofmap: DofMap, system) -> LevelData:
    """Geometry and weighted data of one level; affine_maps rejects det <= 0,
    so sqrt(w) is real."""
    geometry = level_geometry(mesh, dofmap, system)
    data = system.data_interior(*geometry.points)
    data *= np.sqrt(geometry.wdet)
    xs = geometry.facet_x
    sqrt_len = np.sqrt(geometry.facet_wlen)
    return LevelData(
        geometry=geometry,
        data=data,
        facet_data=(sqrt_len * system.data_initial(xs) if xs.size else np.zeros_like(xs)).T,
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
    """Matrix, load and level data of the least-squares Galerkin equation."""
    level = level_data(mesh, dofmap, system)
    geometry = level.geometry
    sqrt_w = np.sqrt(geometry.wdet)
    n, ne = dofmap.n_dofs, sqrt_w.shape[1]
    nloc = geometry.values.shape[0]
    nloc_total = nloc * (1 + system.n_flux)
    rows, cols = np.triu_indices(nloc_total)
    upper = np.empty((rows.size, ne))
    loads = np.empty((ne, nloc_total))
    for block in _blocks(ne):
        images = _residual_tables(system, geometry, sqrt_w, block)
        upper[:, block] = _gram(images)
        loads[block] = np.einsum("arqe,rqe->ae", images, level.data[..., block]).T
        del images  # freed before the next block's images are built
    del sqrt_w
    # An initial facet's Gram matrix and load join the u1 block of its element.
    elems = geometry.facet_elements
    facet_images = (geometry.facet_basis * np.sqrt(geometry.facet_wlen)[..., None]).T
    np.add.at(upper, (np.flatnonzero(cols < nloc)[:, None], elems), _gram(facet_images))
    upper[rows == cols] *= 0.5  # H + H^T counts the diagonal twice
    np.add.at(loads[:, :nloc], elems, np.einsum("aqf,qf->fa", facet_images, level.facet_data))

    gdofs = _global_dofs(dofmap)
    free = gdofs.T >= 0
    rhs = np.zeros(n)
    np.add.at(rhs, gdofs.T[free], loads[free])
    del loads, free
    keep = (gdofs >= 0)[rows] & (gdofs >= 0)[cols]
    values = upper[keep]
    del upper  # each transient is freed as soon as it is used
    gi, gj = gdofs[rows][keep], gdofs[cols][keep]
    del keep
    half = sp.csr_matrix((values, (gi, gj)), shape=(n, n))
    del values, gi, gj
    return SparseSystem(matrix=_plus_transpose(half), rhs=rhs, level=level)


def _plus_transpose(half: sp.csr_matrix) -> sp.csr_matrix:
    """H + H^T from H's entries and their mirror images, the row ids read off
    H's ``indptr``: each position sums at most two terms, which commute, so
    the matrix is bit-exactly symmetric.  Unlike scipy's H + H.T this keeps
    the exact zeros of the element pattern, on which the MMD ordering
    factorizes graded levels about 20 % faster."""
    n = half.shape[0]
    row = np.repeat(np.arange(n, dtype=half.indices.dtype), np.diff(half.indptr))
    mirrored = (np.concatenate([row, half.indices]), np.concatenate([half.indices, row]))
    del row
    return sp.csr_matrix((np.tile(half.data, 2), mirrored), shape=(n, n))


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
    """Discrete field values at the quadrature points, one block of elements
    at a time, in the blocks of assembly.

    Yields each block (a slice of the element axis) with its u1 values
    (nq, nb), u1 gradients (2, nq, nb), u2 values (nc, nq, nb) and u2
    gradients (nc, 2, nq, nb), element axis last.
    """
    nloc, ne = geometry.values.shape[0], geometry.inv_t.shape[-1]
    local = _local_coeffs(solution.dofmap, solution.coeffs).reshape(-1, nloc, ne)
    for block in _blocks(ne):
        coeffs = local[..., block]
        values = geometry.values.T @ coeffs
        ref = geometry.ref_grads.transpose(0, 2, 1) @ coeffs[:, None]  # (1 + nc, 2, nq, nb)
        inv_t = geometry.inv_t[:, :, None, block]
        grads = inv_t[:, 0] * ref[:, :1] + inv_t[:, 1] * ref[:, 1:]
        yield block, (values[0], grads[0], values[1:], grads[1:])


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
