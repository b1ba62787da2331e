"""Brute-force reference implementations used by tests and the verify command.

Everything here is deliberately slow and structurally independent of the
production refinement, assembly and estimation paths: elements are bisected
one by one, fields are evaluated pointwise per global basis function through
:func:`evaluate_field` (on the elements that a direct scan of the cell dofs
finds in its support), system images through the scalar :func:`eval_G`, and
integrals are accumulated in plain loops or, for the dense Galerkin matrix,
as one product of the weighted image table with itself, and linear systems
are solved by dense Cholesky or by plain conjugate gradients, independent of
the production LU factorization.  A size guard keeps the dense work at desk
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .mesh import Mesh, _edge_keys
from .problem import ExactFields, ParabolicProblem
from .spaces import (
    DofMap,
    build_edge_quadrature,
    build_quadrature,
    edge_reference_points,
    level_tables,
    reference_basis,
)
from .system import ConvectionForm

__all__ = [
    "GImage",
    "eval_G",
    "eval_data",
    "eval_data_initial",
    "MAX_DENSE_DOFS",
    "affine_map",
    "evaluate_field",
    "bisect_reference",
    "dense_assemble",
    "dense_solve",
    "CGReport",
    "plain_cg",
    "min_eigenvalue",
    "fine_norm",
    "residual_norm_sweep",
    "locate_point",
    "discrete_image_system",
    "element_measure",
    "data_vector",
]

MAX_DENSE_DOFS = 300


@dataclass(frozen=True)
class GImage:
    """Pointwise image of the system operator.

    ``flux`` holds the flux-residual components, ``div`` the divergence
    residual, and ``initial`` the trace component (None for systems without
    one; it only carries meaning on facets tagged Initial).
    """

    flux: np.ndarray
    div: float
    initial: Optional[float]


def eval_G(system, point, u1_val, u1_grad, u2_val, u2_grad) -> GImage:
    """Apply the system operator to field values at one point.

    ``u2_val`` has one entry per flux component and ``u2_grad`` one gradient
    row per component; scalars are accepted for single-flux systems.
    """
    t, x = float(point[0]), float(point[1])
    u1_grad = np.asarray(u1_grad, dtype=float).reshape(2, 1)
    u2_val = np.atleast_1d(np.asarray(u2_val, dtype=float))
    u2_grad = np.asarray(u2_grad, dtype=float).reshape(system.n_flux, 2, 1)

    # The image of u1, then of each flux component; one field axis of length
    # 1, so that every component of ``images`` is an array.
    images = np.empty((1 + system.n_flux, system.n_interior, 1))
    system.residual_u1(t, x, np.full(1, float(u1_val)), u1_grad, images[0])
    system.residual_u2(t, x, u2_val.reshape(system.n_flux, 1), u2_grad, images[1:])
    interior = images[:, :, 0].sum(axis=0)
    return GImage(
        flux=interior[:system.n_flux],
        div=float(interior[system.n_flux]),
        initial=float(u1_val) if system.has_initial_trace else None,
    )


def eval_data(system, point) -> np.ndarray:
    """Interior residual targets at one point, flux components first."""
    out = np.empty((system.n_interior, 1))
    system.data_interior(np.full(1, float(point[0])), np.full(1, float(point[1])), out)
    return out[:, 0]


def eval_data_initial(system, x) -> float:
    """Initial-trace target at a point of the t = 0 boundary."""
    return float(system.data_initial(float(x)))


def _initial_edges(mesh: Mesh):
    """(element, local edge) pairs on t = 0, found by a direct scan of each
    element's vertex coordinates."""
    out = []
    for e in range(mesh.n_elements):
        t = mesh.points[mesh.elements[e], 0]
        for loc in range(3):
            if t[loc] == 0.0 and t[(loc + 1) % 3] == 0.0:
                out.append((e, loc))
    return out


def affine_map(mesh: Mesh, k: int):
    """Jacobian, inverse transpose, and determinant of the reference map of element ``k``.

    The map is F(xi) = P0 + J xi with J = [P1 - P0 | P2 - P0]; det J equals
    twice the element area.  Physical gradients are J^{-T} times reference
    gradients.  The per-element counterpart of
    :func:`stfosls.spaces.affine_maps`, with the same error.
    """
    p = mesh.points[mesh.elements[k]]
    jac = np.column_stack([p[1] - p[0], p[2] - p[0]])
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det <= 0.0:
        raise ValueError(f"element {k} is degenerate or inverted (det={det})")
    inv_t = np.array([[jac[1, 1], -jac[1, 0]], [-jac[0, 1], jac[0, 0]]]) / det
    return jac, inv_t, float(det)


def evaluate_field(coeffs: np.ndarray, dofmap: DofMap, mesh: Mesh, k: int, point, field: int = 0):
    """Value and space-time gradient of one solution field inside element ``k``.

    ``point`` is given in reference coordinates (xi, eta).  ``field`` 0 is
    the constrained u1 field, ``field`` c >= 1 the (c-1)-th u2 component.
    Constrained u1 dofs contribute zero.
    """
    vals, grads = reference_basis(dofmap.degree, np.asarray(point, dtype=float))
    _, inv_t, _ = affine_map(mesh, k)

    nloc = vals.shape[1]
    dofs = dofmap.cell_dofs[field * nloc:(field + 1) * nloc, k]
    local = np.where(dofs >= 0, coeffs[np.maximum(dofs, 0)], 0.0)

    value = vals @ local
    grad_ref = np.einsum("qia,i->qa", grads, local)
    grad = grad_ref @ inv_t.T
    if np.asarray(point).ndim == 1:
        return float(value[0]), grad[0]
    return value, grad


def bisect_reference(mesh: Mesh, marks) -> Mesh:
    """Newest-vertex bisection element by element, in a Python recursion:
    the reference that :func:`stfosls.mesh.bisect` must match array for array.

    The refinement edges of the marked elements are scheduled for bisection;
    closure passes then schedule the refinement edge of any element that has
    some scheduled edge, until a fixpoint is reached.  Every element is
    finally split so that exactly its scheduled edges are bisected, which
    keeps the mesh conforming.  Each bisection introduces one new vertex,
    the midpoint of the parent's refinement edge; midpoints are deduplicated
    through the parent edge's vertex pair, never by coordinate comparison.
    """
    marks = np.asarray(sorted(set(int(k) for k in np.atleast_1d(np.asarray(marks, dtype=np.int64))))
                       if np.size(marks) else [], dtype=np.int64)
    if marks.size and (marks.min() < 0 or marks.max() >= mesh.n_elements):
        raise IndexError("marked element index out of range")

    n0 = mesh.n_points
    keys = _edge_keys(mesh.elements, n0)
    scheduled = np.unique(keys[marks, 0]) if marks.size else np.empty(0, dtype=np.int64)

    # Closure: an element with any scheduled edge must schedule its
    # refinement edge as well.  Fixpoint passes; the scheduled set only
    # grows and is bounded by the number of edges.
    while scheduled.size:
        hit = np.isin(keys, scheduled)
        need = hit.any(axis=1) & ~hit[:, 0]
        if not need.any():
            break
        scheduled = np.union1d(scheduled, keys[need, 0])

    scheduled_set = set(int(k) for k in scheduled)
    split_elem = np.isin(keys[:, 0], scheduled) if scheduled.size \
        else np.zeros(mesh.n_elements, dtype=bool)

    points = mesh.points
    midpoint_of: dict[int, int] = {}
    new_points: list[np.ndarray] = []

    def midpoint(va: int, vb: int) -> int:
        key = int(min(va, vb)) * n0 + int(max(va, vb))
        idx = midpoint_of.get(key)
        if idx is None:
            idx = n0 + len(new_points)
            new_points.append(0.5 * (points[va] + points[vb]))
            midpoint_of[key] = idx
        return idx

    out_elems: list[tuple] = []
    out_gen: list[int] = []
    out_from: list[int] = []

    def split(v0, v1, v2, gen, ancestor):
        # Edges containing a midpoint vertex are never scheduled, so the
        # recursion bottoms out after at most two levels per call.
        if v0 < n0 and v1 < n0 and (min(v0, v1) * n0 + max(v0, v1)) in scheduled_set:
            m = midpoint(v0, v1)
            split(v2, v0, m, gen + 1, ancestor)
            split(v1, v2, m, gen + 1, ancestor)
        else:
            out_elems.append((v0, v1, v2))
            out_gen.append(gen)
            out_from.append(ancestor)

    for e in range(mesh.n_elements):
        v0, v1, v2 = (int(v) for v in mesh.elements[e])
        if split_elem[e]:
            split(v0, v1, v2, int(mesh.generation[e]), e)
        else:
            out_elems.append((v0, v1, v2))
            out_gen.append(int(mesh.generation[e]))
            out_from.append(e)

    all_points = np.vstack([points, np.asarray(new_points)]) if new_points else points.copy()
    return Mesh(
        points=all_points,
        elements=np.asarray(out_elems, dtype=np.int64),
        generation=np.asarray(out_gen, dtype=np.int64),
        refined_from=np.asarray(out_from, dtype=np.int64),
    )


def element_measure(mesh: Mesh, k: int) -> float:
    """Area of element ``k``, from its own three vertices."""
    p = mesh.points[mesh.elements[k]]
    d1, d2 = p[1] - p[0], p[2] - p[0]
    return 0.5 * float(d1[0] * d2[1] - d1[1] * d2[0])


def data_vector(problem: ParabolicProblem, form: ConvectionForm = ConvectionForm.FLUX):
    """Residual targets per component of the least-squares functional in
    convection form ``form``, written out from the problem data.

    Returns callables (flux target, divergence target, initial target) =
    (f2, f1 - b A^{-1} f2, u0) in the flux form and (f2, f1, u0) in the
    gradient form.
    """

    def target_div(t, x):
        if form is ConvectionForm.GRADIENT:
            return problem.f1(t, x)
        b, a = problem.convection(t, x), problem.diffusion(t, x)
        return problem.f1(t, x) - b / a * problem.f2(t, x)

    return problem.f2, target_div, problem.u0


def _edge_geometry(mesh: Mesh, e: int, loc: int, s: np.ndarray):
    a = mesh.elements[e, loc]
    b = mesh.elements[e, (loc + 1) % 3]
    pa, pb = mesh.points[a], mesh.points[b]
    length = float(np.hypot(pb[0] - pa[0], pb[1] - pa[1]))
    xs = pa[1] + s * (pb[1] - pa[1])
    return xs, length


def _supports(dofmap: DofMap):
    """Elements whose cell dofs contain each global dof, by direct scan."""
    return [np.flatnonzero((dofmap.cell_dofs == j).any(axis=0)) for j in range(dofmap.n_dofs)]


def _basis_images(mesh: Mesh, dofmap: DofMap, system, rules):
    """System image of every global basis function at every quadrature point.

    Each function is evaluated only on the elements whose cell dofs contain
    it; it vanishes identically elsewhere.  Returns the interior image table
    (n_dofs, n_elements, nq, n_int), the trace table (n_dofs, n_facets,
    nq_edge), the physical points, the weighted measures, and the
    initial-facet list.  Only the rules are read from ``rules``, the
    level's :class:`~stfosls.spaces.LevelTables`; the basis is evaluated here.
    """
    n = dofmap.n_dofs
    ne = mesh.n_elements
    refpts = rules.quad_points[:, 1:]
    nq = refpts.shape[0]
    n_int = system.n_interior
    nc = system.n_flux
    supports = _supports(dofmap)

    pts = np.empty((ne, nq, 2))
    wdet = np.empty((ne, nq))
    for e in range(ne):
        tri = mesh.points[mesh.elements[e]]
        jac = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        for q in range(nq):
            pts[e, q] = tri[0] + jac @ refpts[q]
            wdet[e, q] = rules.quad_weights[q] * det

    table = np.zeros((n, ne, nq, n_int))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        for e in supports[j]:
            u1v, u1g = evaluate_field(unit, dofmap, mesh, e, refpts, field=0)
            u2v = np.empty((nq, nc))
            u2g = np.empty((nq, nc, 2))
            for comp in range(nc):
                v, g = evaluate_field(unit, dofmap, mesh, e, refpts, field=comp + 1)
                u2v[:, comp] = v
                u2g[:, comp, :] = g
            for q in range(nq):
                img = eval_G(system, pts[e, q], u1v[q], u1g[q], u2v[q], u2g[q])
                table[j, e, q, : system.n_flux] = img.flux
                table[j, e, q, system.n_flux] = img.div

    facets = _initial_edges(mesh) if system.has_initial_trace else []
    trace = np.zeros((n, len(facets), rules.edge_points.size))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        for fi, (e, loc) in enumerate(facets):
            if e in supports[j]:
                edge_pts = edge_reference_points(loc, rules.edge_points)
                trace[j, fi] = evaluate_field(unit, dofmap, mesh, e, edge_pts, field=0)[0]
    return table, trace, pts, wdet, facets


def dense_assemble(mesh: Mesh, dofmap: DofMap, system):
    """Dense Galerkin matrix and load by direct global-basis integration."""
    n = dofmap.n_dofs
    if n > MAX_DENSE_DOFS:
        raise ValueError(f"dense oracle limited to {MAX_DENSE_DOFS} dofs, got {n}")
    rules = level_tables(dofmap.degree)

    table, trace, pts, wdet, facets = _basis_images(mesh, dofmap, system, rules)

    data = np.empty(pts.shape[:2] + (system.n_interior,))
    for e in range(pts.shape[0]):
        for q in range(pts.shape[1]):
            data[e, q] = eval_data(system, pts[e, q])
    sqrt_w = np.sqrt(wdet)[..., None]
    weighted = (table * sqrt_w).reshape(n, -1)
    matrix = weighted @ weighted.T
    rhs = weighted @ (data * sqrt_w).ravel()

    for fi, (e, loc) in enumerate(facets):
        xs, length = _edge_geometry(mesh, e, loc, rules.edge_points)
        sqrt_len = np.sqrt(rules.edge_weights * length)
        u0 = np.array([eval_data_initial(system, xv) for xv in xs])
        traces = trace[:, fi] * sqrt_len
        matrix += traces @ traces.T
        rhs += traces @ (sqrt_len * u0)

    return matrix, rhs


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct Cholesky solve; raises on non-positive-definite pivots."""
    if matrix.shape[0] > MAX_DENSE_DOFS:
        raise ValueError(f"dense oracle limited to {MAX_DENSE_DOFS} dofs")
    factor = scipy.linalg.cho_factor(matrix, lower=True)
    return scipy.linalg.cho_solve(factor, rhs)


@dataclass(frozen=True)
class CGReport:
    """Iterations run, the true relative residual ||b - M x|| / ||b|| at exit,
    and whether it meets the tolerance."""

    iterations: int
    relative_residual: float
    converged: bool


def plain_cg(matrix, rhs: np.ndarray, rel_tol: float = 1e-10, max_iters: Optional[int] = None):
    """Unpreconditioned conjugate gradients with zero initial guess.

    Stops when the true residual satisfies ||b - M x|| <= rel_tol ||b||;
    deterministic for fixed inputs.  The recursively updated residual
    drifts from b - M x in floating point, so whenever it meets the
    tolerance it is replaced by the true residual (one matvec) and the
    iteration goes on while that one does not (van der Vorst & Ye, SIAM
    J. Sci. Comput. 2000).  A non-finite residual ends the iteration at
    once.  The report always carries the true residual, and
    non-convergence is reported through the flag, not raised.
    """
    n = rhs.shape[0]
    if max_iters is None:
        max_iters = 20 * max(n, 1)
    x = np.zeros(n)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return x, CGReport(iterations=0, relative_residual=0.0, converged=True)

    def relative(residual) -> float:
        return math.sqrt(float(residual @ residual)) / b_norm

    r = rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    rel = 1.0
    iterations = 0
    while rel > rel_tol and iterations < max_iters:
        q = matrix @ p
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rel = relative(r)
        if rel <= rel_tol:
            r = rhs - matrix @ x
            rel = relative(r)
        iterations += 1
        if not math.isfinite(rel):
            return x, CGReport(iterations=iterations, relative_residual=rel, converged=False)
        if rel > rel_tol:  # a converged iterate needs no next direction
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new
    if rel > rel_tol:  # stopped by max_iters, possibly on the recursive residual
        rel = relative(rhs - matrix @ x)
    return x, CGReport(iterations=iterations, relative_residual=rel, converged=rel <= rel_tol)


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric dense matrix."""
    if matrix.shape[0] > MAX_DENSE_DOFS:
        raise ValueError(f"dense oracle limited to {MAX_DENSE_DOFS} dofs")
    return float(np.linalg.eigvalsh(matrix)[0])


def fine_norm(exact: ExactFields, mesh: Mesh, system, degree: int = 8) -> float:
    """Graph norm of closed-form fields by quadrature of exactness ``degree``.

    Independent of the estimator path; the value is mesh-partition
    independent because the seminorms are additive over elements.
    """
    quad_points, quad_weights = build_quadrature(degree)
    edge_points, edge_weights = build_edge_quadrature(degree)
    refpts = quad_points[:, 1:]

    total = 0.0
    for e in range(mesh.n_elements):
        tri = mesh.points[mesh.elements[e]]
        jac = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        phys = tri[0][None, :] + refpts @ jac.T
        t, x = phys[:, 0], phys[:, 1]
        grad = exact.u1_grad(t, x)
        dens = exact.u1(t, x) ** 2 + exact.div(t, x) ** 2
        for axis in system.spatial_axes:
            dens = dens + grad[axis] ** 2
        dens = dens + (exact.u2(t, x) ** 2).sum(axis=0)
        total += float(np.dot(quad_weights * det, np.broadcast_to(dens, t.shape)))

    if system.has_initial_trace:
        for e, loc in _initial_edges(mesh):
            xs, length = _edge_geometry(mesh, e, loc, edge_points)
            vals = np.broadcast_to(exact.u1(0.0, xs), xs.shape)
            total += float(np.dot(edge_weights * length, vals**2))
    return float(np.sqrt(total))


def locate_point(mesh: Mesh, t: float, x: float):
    """Element containing (t, x) and its reference coordinates, by linear scan."""
    coords = mesh.points[mesh.elements]
    for e in range(mesh.n_elements):
        p0 = coords[e, 0]
        jac = np.column_stack([coords[e, 1] - p0, coords[e, 2] - p0])
        ref = np.linalg.solve(jac, np.array([t, x]) - p0)
        if ref[0] >= -1e-12 and ref[1] >= -1e-12 and ref.sum() <= 1.0 + 1e-12:
            return e, ref
    raise ValueError(f"point ({t}, {x}) lies outside the mesh")


class _DiscreteImageSystem:
    """Same operator as the wrapped system, data replaced by G applied to a
    fixed discrete field, evaluated through brute-force point location.

    Only meant for small meshes; with this data the discrete field is the
    exact minimizer and the residual vanishes identically.
    """

    def __init__(self, mesh: Mesh, dofmap: DofMap, system, coeffs: np.ndarray):
        self._mesh = mesh
        self._dofmap = dofmap
        self._inner = system
        self._coeffs = np.asarray(coeffs, dtype=float)
        self.n_flux = system.n_flux
        self.n_interior = system.n_interior
        self.has_initial_trace = system.has_initial_trace
        self.dirichlet_tags = system.dirichlet_tags
        self.spatial_axes = system.spatial_axes

    def residual_u1(self, t, x, val, grad, out):
        self._inner.residual_u1(t, x, val, grad, out)

    def residual_u2(self, t, x, val, grad, out):
        self._inner.residual_u2(t, x, val, grad, out)

    def divergence(self, u1_grad, u2_grads):
        return self._inner.divergence(u1_grad, u2_grads)

    def _image_at(self, t, x):
        e, ref = locate_point(self._mesh, t, x)
        u1v, u1g = evaluate_field(self._coeffs, self._dofmap, self._mesh, e, ref, field=0)
        nc = self.n_flux
        u2v = np.empty(nc)
        u2g = np.empty((nc, 2))
        for comp in range(nc):
            v, g = evaluate_field(self._coeffs, self._dofmap, self._mesh, e, ref, field=comp + 1)
            u2v[comp] = v
            u2g[comp] = g
        return eval_G(self._inner, (t, x), u1v, u1g, u2v, u2g)

    def data_interior(self, t, x, out):
        t_b, x_b = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        it = np.nditer(t_b, flags=["multi_index"])
        for tv in it:
            idx = it.multi_index
            img = self._image_at(float(tv), float(x_b[idx]))
            out[(slice(None, self.n_flux),) + idx] = img.flux
            out[(self.n_flux,) + idx] = img.div

    def data_initial(self, x):
        x_arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x_arr).ravel()
        out = np.empty(flat.size)
        for k, xv in enumerate(flat):
            out[k] = self._image_at(0.0, float(xv)).initial
        return out.reshape(x_arr.shape)


def discrete_image_system(mesh: Mesh, dofmap: DofMap, system, coeffs: np.ndarray):
    """Wrap ``system`` so its data vector is the image of the given coefficients."""
    return _DiscreteImageSystem(mesh, dofmap, system, coeffs)


def residual_norm_sweep(mesh: Mesh, coeffs: np.ndarray, dofmap: DofMap, system) -> float:
    """Global residual norm of the coefficient vector ``coeffs`` of ``dofmap``
    by one flat sweep over all quadrature points.

    No per-element partition of the result: a single scalar accumulator,
    used to cross-check the additivity of the element indicators.
    """
    rules = level_tables(dofmap.degree)
    refpts = rules.quad_points[:, 1:]
    nc = system.n_flux

    acc = 0.0
    for e in range(mesh.n_elements):
        tri = mesh.points[mesh.elements[e]]
        jac = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        u1v, u1g = evaluate_field(coeffs, dofmap, mesh, e, refpts, field=0)
        u2v = np.empty((refpts.shape[0], nc))
        u2g = np.empty((refpts.shape[0], nc, 2))
        for comp in range(nc):
            v, g = evaluate_field(coeffs, dofmap, mesh, e, refpts, field=comp + 1)
            u2v[:, comp] = v
            u2g[:, comp, :] = g
        for q in range(refpts.shape[0]):
            point = tri[0] + jac @ refpts[q]
            img = eval_G(system, point, u1v[q], u1g[q], u2v[q], u2g[q])
            target = eval_data(system, point)
            diff = target - np.concatenate([img.flux, [img.div]])
            acc += rules.quad_weights[q] * det * float(diff @ diff)

    if system.has_initial_trace:
        for e, loc in _initial_edges(mesh):
            xs, length = _edge_geometry(mesh, e, loc, rules.edge_points)
            vals, _ = evaluate_field(
                coeffs, dofmap, mesh, e, edge_reference_points(loc, rules.edge_points), field=0
            )
            for q, xv in enumerate(xs):
                mismatch = vals[q] - eval_data_initial(system, xv)
                acc += rules.edge_weights[q] * length * mismatch**2
    return float(np.sqrt(acc))
