"""Assembly of the least-squares Galerkin system and its sparse LU solve with
iterative refinement.

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

The level's :class:`LevelData` keeps the element axis last, so its kernels
(system images, Gram matrices, loads, residuals, field values) run numpy's
inner loops along that long contiguous axis.  Its geometry is held at
element size.  :func:`assemble` builds it in one block walk that forms a
block's points and weights times det J once, for its data and its images,
and :func:`element_fields` yields them again with a solution's fields.  Its
rules and the reference basis on them are :func:`stfosls.spaces.level_tables`,
built once per degree, read-only, and shared by every level.  It holds the
dof map it was built from, so a solution is its coefficient vector.  The
level travels on the :class:`SparseSystem` and also serves the indicators
and the graph-norm error.  :func:`field_images` is the one place where the
system's G is applied to discrete fields: to the weighted basis here, and
to the solution's fields in the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, initial_facet_list
from .spaces import DofMap, LevelTables, affine_maps, level_tables
from .system import _require

# Elements per block of the image table: images of one block are built,
# contracted and freed before the next, and a level below this size is one block.
_BLOCK = 1024
# Convergence bounds of the level solve (see SolverReport) and its refinement step cap.
_REL_TOL = 1e-10
_BACKWARD_TOL = 16 * 2.0**-53
_MAX_STEPS = 3

__all__ = [
    "SparseSystem",
    "LevelData",
    "SolverReport",
    "assemble",
    "field_images",
    "solve_cg",
    "element_fields",
]


@dataclass(frozen=True)
class LevelData:
    """Quadrature geometry and sqrt(w)-weighted data of one level, element axis last.

    Built by :func:`assemble` only.  Per element it keeps the vertex
    coordinates, det J and J^{-T} (11 doubles); points, weights times det J
    and physical gradients are formed for one block of elements by the
    methods below.  The facet arrays, facet axis first, list the facets
    tagged Initial in element order (none for systems without an initial
    trace).  ``data[r, q, K]`` is component r of the interior data at point
    q of element K, ``facet_data[q, f]`` the initial datum at point q of the
    initial facet f."""

    dofmap: DofMap  # the level's dof map: its cell->dof table places a coefficient vector
    tables: LevelTables  # the rules of the level's degree and the reference basis on them
    coords: np.ndarray  # (2, 3, ne) vertex coordinates (t, x) of every element
    det: np.ndarray  # (ne,) det J of every element
    inv_t: np.ndarray  # (2, 2, ne) J^{-T} of every element
    facet_elements: np.ndarray  # (nf,)
    facet_basis: np.ndarray  # (nf, nq_e, nloc) basis values at the facet points
    facet_x: np.ndarray  # (nf, nq_e) x of the facet points
    facet_wlen: np.ndarray  # (nf, nq_e) edge weight times facet length
    data: np.ndarray  # (n_int, nq, ne)
    facet_data: np.ndarray  # (nq_e, nf)

    def basis_gradients(self, block: slice = slice(None)) -> np.ndarray:
        """Physical gradients of the local basis on the elements of ``block``,
        (2, nloc, nq, nb): one matrix product per gradient component."""
        ref_grads = self.tables.ref_grads
        return (ref_grads.reshape(2, -1).T @ self.inv_t[..., block]).reshape(ref_grads.shape + (-1,))

    def points(self, block: slice = slice(None)) -> np.ndarray:
        """Physical quadrature points (t, x) on the elements of ``block``, (2, nq, nb)."""
        return self.tables.quad_points @ self.coords[..., block]

    def wdet(self, block: slice = slice(None)) -> np.ndarray:
        """Quadrature weight times det J on the elements of ``block``, (nq, nb)."""
        return np.outer(self.tables.quad_weights, self.det[block])


@dataclass(frozen=True)
class SparseSystem:
    """Assembled symmetric positive definite system and the level data it came from."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    level: LevelData


@dataclass(frozen=True)
class SolverReport:
    """LU solves run (1 plus the refinement steps), and of the returned x with
    residual r = b - M x: the relative residual ||r||_2 / ||b||_2, the
    normwise backward error ||r||_inf / (||M||_inf ||x||_inf + ||b||_inf)
    and the Galerkin defect ||r||_inf / ||b||_2.  The entries of r are the
    inner products (f - G u, G phi_j)_L, so the defect measures how far the
    coefficients are from discrete orthogonality.

    ``converged``: the relative residual meets 1e-10, or the backward error
    is at most 16 u (u = 2^-53, the unit roundoff)."""

    iterations: int
    relative_residual: float
    backward_error: float
    galerkin_defect: float
    converged: bool


def _blocks(n_elements: int):
    """Slices of the element axis, ``_BLOCK`` elements each, the last one shorter."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, n_elements, _BLOCK)]


def field_images(system, t, x, values, grads, out) -> None:
    """Write the system image of field f into ``out[f]``, (nf, n_int, ...):
    f = 0 is u1 and f = 1 + c flux component c.  ``values`` (nf, ...) and
    ``grads`` (nf, 2, ...) stack the fields in that order."""
    system.residual_u1(t, x, values[0], grads[0], out[0])
    system.residual_u2(t, x, values[1:], grads[1:], out[1:])


def _residual_tables(system, level: LevelData, block: slice, t, x, sqrt_w):
    """sqrt(w)-weighted system images of all local basis functions on the
    elements of ``block``, shape (nloc_total, n_int, nq, nb), from the
    block's points ``t``, ``x`` and ``sqrt_w`` = sqrt(w det J), (nq, nb).

    The images are linear in the fields, so the basis values and gradients
    are weighted once, repeated for each field block (u1 first, then the u2
    components), and each image is written straight into its slab of one
    preallocated table, through a view with the component axis first.
    """
    val = level.tables.values[:, :, None] * sqrt_w
    grads = level.basis_gradients(block)
    grads *= sqrt_w
    nf, nloc = 1 + system.n_flux, val.shape[0]
    out = np.empty((nf * nloc, system.n_interior) + val.shape[1:])
    field_images(system, t, x, np.broadcast_to(val, (nf,) + val.shape),
                 np.broadcast_to(grads, (nf,) + grads.shape),
                 out.reshape((nf, nloc) + out.shape[1:]).swapaxes(1, 2))
    return out


def _initial_facet_tables(mesh: Mesh, tables: LevelTables, system):
    """Element (nf,), basis values (nf, nq_e, nloc), x points (nf, nq_e) and
    weighted lengths (nf, nq_e) of every facet tagged Initial, in element
    order, under the edge rule of ``tables``; empty without an initial trace."""
    facets = initial_facet_list(mesh)
    if not system.has_initial_trace:
        facets = facets[:0]
    elems, locs = facets[:, 0], facets[:, 1]
    pa = mesh.points[mesh.elements[elems, locs]]
    pb = mesh.points[mesh.elements[elems, (locs + 1) % 3]]
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    xs = pa[:, 1:] + tables.edge_points * (pb[:, 1:] - pa[:, 1:])
    return elems, tables.edge_values[locs], xs, tables.edge_weights * length[:, None]


def _local_coeffs(coeffs: np.ndarray, level: LevelData, elements=slice(None)) -> np.ndarray:
    """Coefficients of the local functions of ``elements`` of ``level``,
    shaped like the columns of its ``cell_dofs``; a constrained u1 dof
    (global dof -1) reads the zero appended to ``coeffs``.  Raises
    ValueError unless ``coeffs`` holds one value per dof of the level."""
    n_dofs = level.dofmap.n_dofs
    if np.shape(coeffs) != (n_dofs,):
        raise ValueError(f"coefficient vector of shape {np.shape(coeffs)} for a level of {n_dofs} dofs")
    return np.append(coeffs, 0.0)[level.dofmap.cell_dofs[:, elements]]


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
    """Matrix, load and level data of the least-squares Galerkin equation,
    in one walk over the element blocks: a block's points and sqrt(w det J)
    give both its weighted data and its images.  affine_maps rejects
    det <= 0, so sqrt(w) is real.  Raises InvalidDataError on non-finite data."""
    tables = level_tables(dofmap.degree)
    coords, inv_t, det = affine_maps(mesh)
    elems, facet_basis, xs, wlen = _initial_facet_tables(mesh, tables, system)
    dofs, n = dofmap.cell_dofs, dofmap.n_dofs
    nloc_total, ne = dofs.shape
    level = LevelData(
        dofmap, tables, coords, det, inv_t, elems, facet_basis, xs, wlen,
        data=np.empty((system.n_interior, tables.quad_weights.size, ne)),
        facet_data=np.empty(xs.shape).T,
    )
    nloc = tables.values.shape[0]
    rows, cols = np.triu_indices(nloc_total)
    upper = np.empty((rows.size, ne))
    loads = np.empty((ne, nloc_total))
    for block in _blocks(ne):
        t, x = level.points(block)
        sqrt_w = np.sqrt(level.wdet(block))
        data = level.data[..., block]
        system.data_interior(t, x, data)
        data *= sqrt_w
        _require(np.isfinite(data).all(axis=0), "weighted interior data is not finite", t, x)
        images = _residual_tables(system, level, block, t, x, sqrt_w)
        upper[:, block] = _gram(images)
        loads[block] = np.einsum("arqe,rqe->ae", images, data).T
        del images  # freed before the next block's images are built
    # The weighted initial datum; an initial facet's Gram matrix and load join
    # the u1 block of its element.
    sqrt_wlen = np.sqrt(wlen)
    if xs.size:
        np.multiply(sqrt_wlen, system.data_initial(xs), out=level.facet_data.T)
    _require(np.isfinite(level.facet_data.T), "weighted initial datum is not finite", 0.0, xs)
    facet_images = (facet_basis * sqrt_wlen[..., None]).T
    np.add.at(upper, (np.flatnonzero(cols < nloc)[:, None], elems), _gram(facet_images))
    upper[rows == cols] *= 0.5  # H + H^T counts the diagonal twice
    np.add.at(loads[:, :nloc], elems, np.einsum("aqf,qf->fa", facet_images, level.facet_data))

    free = dofs.T >= 0
    rhs = np.zeros(n)
    np.add.at(rhs, dofs.T[free], loads[free])
    del loads, free
    keep = (dofs >= 0)[rows] & (dofs >= 0)[cols]
    values = upper[keep]
    del upper  # each transient is freed as soon as it is used
    gi, gj = dofs[rows][keep], dofs[cols][keep]
    del keep
    half = sp.csr_matrix((values, (gi, gj)), shape=(n, n))
    del values, gi, gj
    return SparseSystem(matrix=_plus_transpose(half), rhs=rhs, level=level)


def _plus_transpose(half: sp.csr_matrix) -> sp.csr_matrix:
    """H + H^T from H's entries and their mirror images, the row ids read off
    H's ``indptr``: each position sums at most two terms, which commute, so
    the matrix is bit-exactly symmetric.  Unlike scipy's H + H.T this keeps
    the exact zeros of the element pattern, on which the factorization of
    graded levels under the MMD ordering is about 20 % faster."""
    n = half.shape[0]
    row = np.repeat(np.arange(n, dtype=half.indices.dtype), np.diff(half.indptr))
    mirrored = (np.concatenate([row, half.indices]), np.concatenate([half.indices, row]))
    del row
    return sp.csr_matrix((np.tile(half.data, 2), mirrored), shape=(n, n))


def _lu_solve(matrix):
    """``lu.solve`` of one SuperLU factorization of a symmetric CSR matrix.

    The CSR arrays of a symmetric matrix are also its CSC arrays, so the
    factorization reads them in place instead of converting the matrix.
    The import is deferred so that the start-up of the command line pays
    nothing for ``scipy.sparse.linalg``.

    ``relax=1, panel_size=1`` turn off SuperLU's relaxed supernodes.  With
    its defaults the factorization of some levels is 9-270x slower at the
    same fill (a 33,024-dof uniform p=1 level: 41.5 s against 0.21 s),
    depending on the matrix, not on its size alone.  MMD on A + A^T keeps
    less fill than COLAMD here (2.73M against 6.49M entries at that level)
    and is faster on every set of levels measured.  relax must not exceed
    panel_size.
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


def _inf_norm(matrix) -> float:
    """||M||_inf, the largest absolute row sum, read off the CSR arrays."""
    starts = matrix.indptr[:-1][np.diff(matrix.indptr) > 0]  # rows with entries
    return float(np.add.reduceat(np.abs(matrix.data), starts).max()) if starts.size else 0.0


def solve_cg(matrix, rhs: np.ndarray):
    """One SuperLU solve of the symmetric CSR ``matrix`` and iterative
    refinement x += LU^{-1}(b - M x), deterministic for fixed inputs.

    Stops at convergence (see :class:`SolverReport`), after 3 refinement
    steps, or at a step that does not lower the residual, whose iterate is
    dropped; a non-finite iterate or residual ends it at once, unconverged.
    A backward-stable solve leaves a relative residual of up to about
    u ||M|| ||x|| / ||b||, above 1e-10 on ill-conditioned levels, where only
    the normwise backward error (Rigal & Gaches, J. ACM 1967; Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 7.1 and
    ch. 12) can certify the solve.  The 2-norms are taken of b and r divided
    by the power of two just above ||b||_inf, which is exact, so that they
    neither underflow nor overflow: any non-zero load is solved and judged,
    and only b = 0 returns x = 0 without a solve.  SuperLU's singular factor
    raises RuntimeError; every other failure is reported through the flag.
    """
    x = np.zeros(rhs.shape[0])
    b_inf = float(np.abs(rhs).max(initial=0.0))
    if b_inf == 0.0:
        return x, SolverReport(0, 0.0, 0.0, 0.0, True)
    exponent = -math.frexp(b_inf)[1]  # scales b and r exactly, ||b||_inf into [1/2, 1)
    b_norm = float(np.linalg.norm(np.ldexp(rhs, exponent)))
    # ||M||_inf before the factorization, so that its transient never meets the factor
    m_norm = _inf_norm(matrix)
    solve = _lu_solve(matrix)
    residual, rel, backward, r_max, solves = rhs, math.inf, math.inf, math.inf, 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):  # a garbage iterate is judged below
            candidate = x + solve(residual)
            r = rhs - matrix @ candidate
            candidate_rel = float(np.linalg.norm(np.ldexp(r, exponent))) / b_norm
            x_inf = float(np.abs(candidate).max())
        solves += 1
        if not math.isfinite(candidate_rel + x_inf):
            return candidate, SolverReport(solves, candidate_rel, math.nan, math.nan, False)
        if candidate_rel >= rel:
            break
        x, residual, rel, r_max = candidate, r, candidate_rel, float(np.abs(r).max())
        backward = r_max / (m_norm * x_inf + b_inf)
        if rel <= _REL_TOL or backward <= _BACKWARD_TOL or solves > _MAX_STEPS:
            break
    defect = math.ldexp(r_max, exponent) / b_norm
    return x, SolverReport(solves, rel, backward, defect, rel <= _REL_TOL or backward <= _BACKWARD_TOL)


def element_fields(coeffs: np.ndarray, level: LevelData):
    """Fields of the coefficients ``coeffs`` of ``level`` at the quadrature
    points, one block of elements at a time, in the blocks of assembly.

    Yields each block (a slice of the element axis) with its points (t, x),
    (2, nq, nb), its weights times det J, (nq, nb), and the values
    (nf, nq, nb) and gradients (nf, 2, nq, nb) of the fields stacked as in
    :func:`field_images`, u1 first, element axis last.
    """
    nloc, ne = level.tables.values.shape[0], level.inv_t.shape[-1]
    local = _local_coeffs(coeffs, level).reshape(-1, nloc, ne)
    for block in _blocks(ne):
        on_block = local[..., block]
        values = level.tables.values.T @ on_block
        ref = level.tables.ref_grads.transpose(0, 2, 1) @ on_block[:, None]  # (nf, 2, nq, nb)
        inv_t = level.inv_t[:, :, None, block]
        grads = np.multiply(inv_t[:, 0], ref[:, :1])
        grads += inv_t[:, 1] * ref[:, 1:]
        yield block, level.points(block), level.wdet(block), values, grads
