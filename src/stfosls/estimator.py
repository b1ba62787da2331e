"""Elementwise least-squares error indicators and graph-norm error evaluation.

The squared indicator of an element collects the local L-norm of the
residual: the interior residual components integrated over the element plus
the squared mismatch of the initial trace over the element's facets on
t = 0.  Squared indicators add up exactly to the squared global estimator.

Indicators are read off the solution's own image:
eta_K^2 = ||D_K - sqrt(w) G(u_h)||_K^2 with the level's sqrt(w)-weighted
data D_K, plus the same on an initial facet of K.  The fields of u_h come
from :func:`stfosls.assembly.element_fields` in the blocks of assembly,
each block with its points and weights times det J, and
:func:`stfosls.assembly.field_images`, the path that assembly applies G by,
turns them into G(u_h), so no image table of the basis is needed once the
level is assembled.

The error against a manufactured reference is measured in the localized
graph seminorm

    ||v||^2 = ||v1||^2 + ||grad_x v1||^2 + ||v2||^2 + ||div v||^2
              + ||v1(0,.)||^2,

whose pieces the report keeps separate; the trace term is dropped for
systems without an initial-trace component.  It reads the same per-block
fields, which a caller computing both may evaluate once and pass to both.

A solution is its coefficient vector, read through the dof map of the level
that :func:`stfosls.assembly.assemble` returned; nothing here rebuilds the
level or forms its geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import LevelData, _local_coeffs, element_fields, field_images
from .mesh import Mesh
from .problem import ExactFields

__all__ = [
    "Indicators",
    "ErrorReport",
    "compute_indicators",
    "u_norm_error",
    "data_norm",
]


@dataclass(frozen=True)
class Indicators:
    """Per-element indicators eta(K) >= 0 with eta^2 = sum of eta(K)^2."""

    per_element: np.ndarray
    total: float


@dataclass(frozen=True)
class ErrorReport:
    """Squared-additive seminorm contributions of the discretization error."""

    u1_l2: float
    u1_grad_l2: float
    u2_l2: float
    div_l2: float
    initial_l2: float
    total: float


def _initial_trace(coeffs: np.ndarray, level: LevelData) -> np.ndarray:
    """u1 of ``coeffs`` at the points of every initial facet of ``level``, (nf, nq_e)."""
    nloc = level.tables.values.shape[0]
    local = _local_coeffs(coeffs, level, level.facet_elements)[:nloc]
    return np.einsum("fqa,af->fq", level.facet_basis, local)


def compute_indicators(
    mesh: Mesh,
    coeffs: np.ndarray,
    system,
    level: LevelData,
    fields=None,
) -> Indicators:
    """Least-squares indicators of the solved coefficients ``coeffs``.

    ``level`` is the level data ``assemble`` returned.  ``fields``
    iterates over ``element_fields(coeffs, level)`` when the caller shares
    those blocks with the error.  ``mesh`` is not read here; it stays the
    first positional argument because the benchmark's tracer reads
    (mesh, coeffs, system) off this call to count initial facets.
    """
    if fields is None:
        fields = element_fields(coeffs, level)
    eta2 = np.empty(level.det.size)
    for block, points, wdet, values, grads in fields:
        images = np.empty((values.shape[0], system.n_interior) + values.shape[1:])
        field_images(system, *points, values, grads, images)
        resid = images.sum(axis=0)  # G(u_h): the images of all fields, summed
        resid *= np.sqrt(wdet)
        np.subtract(level.data[..., block], resid, out=resid)
        eta2[block] = np.einsum("rqe,rqe->e", resid, resid)
    trace = _initial_trace(coeffs, level) * np.sqrt(level.facet_wlen)
    facet_resid = level.facet_data - trace.T
    eta2[level.facet_elements] += np.einsum("qf,qf->f", facet_resid, facet_resid)
    return Indicators(per_element=np.sqrt(eta2), total=float(np.sqrt(eta2.sum())))


def u_norm_error(
    coeffs: np.ndarray,
    exact: ExactFields,
    system,
    level: LevelData,
    fields=None,
) -> ErrorReport:
    """Graph-norm error of the coefficients ``coeffs`` against closed-form references.

    ``level`` is the level data ``assemble`` returned; its geometry is
    reused.  ``fields`` iterates over ``element_fields(coeffs, level)``
    when the caller shares those blocks with the indicators.
    """
    if fields is None:
        fields = element_fields(coeffs, level)
    sq_u1 = sq_grad = sq_u2 = sq_div = 0.0
    for _, (t, x), wdet, values, grads in fields:
        u1_val, u1_grad, u2_val, u2_grad = values[0], grads[0], values[1:], grads[1:]
        e_u1 = u1_val - exact.u1(t, x)
        e_grad = u1_grad - exact.u1_grad(t, x)
        e_u2 = u2_val - exact.u2(t, x)
        e_div = system.divergence(u1_grad, u2_grad) - exact.div(t, x)

        sq_u1 += float(np.einsum("qe,qe->", e_u1**2, wdet))
        for axis in system.spatial_axes:
            sq_grad += float(np.einsum("qe,qe->", e_grad[axis] ** 2, wdet))
        sq_u2 += float(np.einsum("cqe,qe->", e_u2**2, wdet))
        sq_div += float(np.einsum("qe,qe->", e_div**2, wdet))

    e_trace = _initial_trace(coeffs, level) - exact.u1(0.0, level.facet_x)
    sq_trace = float(np.sum(level.facet_wlen * e_trace**2))

    total = float(np.sqrt(sq_u1 + sq_grad + sq_u2 + sq_div + sq_trace))
    return ErrorReport(
        u1_l2=float(np.sqrt(sq_u1)),
        u1_grad_l2=float(np.sqrt(sq_grad)),
        u2_l2=float(np.sqrt(sq_u2)),
        div_l2=float(np.sqrt(sq_div)),
        initial_l2=float(np.sqrt(sq_trace)),
        total=total,
    )


def data_norm(level: LevelData) -> float:
    """L-norm of the level's data vector (interior targets plus initial datum)."""
    return float(np.sqrt(np.sum(level.data**2) + np.sum(level.facet_data**2)))
