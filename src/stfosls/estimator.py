"""Elementwise least-squares error indicators and graph-norm error evaluation.

The squared indicator of an element collects the local L-norm of the
residual: the interior residual components integrated over the element plus
the squared mismatch of the initial trace over the element's facets on
t = 0.  Squared indicators add up exactly to the squared global estimator.

Indicators are read off the solution's own image:
eta_K^2 = ||D_K - sqrt(w) G(u_h)||_K^2 with the level's sqrt(w)-weighted
data D_K, plus the same on an initial facet of K.  The fields of u_h come
from :func:`stfosls.assembly.element_fields` in the blocks of assembly, and
the system's ``residual_u1``/``residual_u2`` turn them into G(u_h), so no
image table of the basis is needed once the level is assembled.

The error against a manufactured reference is measured in the localized
graph seminorm

    ||v||^2 = ||v1||^2 + ||grad_x v1||^2 + ||v2||^2 + ||div v||^2
              + ||v1(0,.)||^2,

whose pieces the report keeps separate; the trace term is dropped for
systems without an initial-trace component.  It reads the same per-block
fields, which a caller computing both may evaluate once and pass to both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import (
    DiscreteSolution,
    LevelData,
    element_fields,
    level_data,
    level_geometry,
)
from .mesh import Mesh
from .problem import ExactFields, sample

__all__ = [
    "Indicators",
    "ErrorReport",
    "compute_indicators",
    "u_norm_error",
    "efficiency_reliability_ratio",
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


def _solution_image(system, t, x, u1_val, u1_grad, u2_val, u2_grad) -> np.ndarray:
    """G(u_h) at the points of one block, (n_int, nq, nb): the images of
    the u1 field and of each u2 component, summed."""
    image = np.empty((system.n_interior,) + u1_val.shape)
    system.residual_u1(t, x, u1_val, u1_grad, image)
    part = np.empty_like(image)
    for comp in range(system.n_flux):
        system.residual_u2(comp, t, x, u2_val[comp], u2_grad[comp], part)
        image += part
    return image


def _initial_trace(solution: DiscreteSolution, geometry) -> np.ndarray:
    """u1 of the solution at the points of every initial facet, (nf, nq_e)."""
    dofs = solution.dofmap.cell_dofs_u1[geometry.facet_elements]
    local = np.where(dofs >= 0, solution.coeffs[dofs], 0.0)
    return np.einsum("fqa,fa->fq", geometry.facet_basis, local)


def compute_indicators(
    mesh: Mesh,
    solution: DiscreteSolution,
    system,
    level: Optional[LevelData] = None,
    fields=None,
) -> Indicators:
    """Least-squares indicators of a solved discrete solution.

    ``level`` is the level data the system was assembled from
    (``SparseSystem.level``); without it the same data is built here.
    ``fields`` iterates over ``element_fields(solution, level.geometry)``
    when the caller shares those blocks with the error.
    """
    if level is None:
        level = level_data(mesh, solution.dofmap, system)
    geometry = level.geometry
    if fields is None:
        fields = element_fields(solution, geometry)
    eta2 = np.empty(geometry.det.size)
    for block, block_fields in fields:
        resid = _solution_image(system, *geometry.points(block), *block_fields)
        resid *= np.sqrt(geometry.wdet(block))
        np.subtract(level.data[..., block], resid, out=resid)
        eta2[block] = np.einsum("rqe,rqe->e", resid, resid)
    trace = _initial_trace(solution, geometry) * np.sqrt(geometry.facet_wlen)
    facet_resid = level.facet_data - trace.T
    np.add.at(eta2, geometry.facet_elements, np.einsum("qf,qf->f", facet_resid, facet_resid))
    return Indicators(per_element=np.sqrt(eta2), total=float(np.sqrt(eta2.sum())))


def u_norm_error(
    mesh: Mesh,
    solution: DiscreteSolution,
    exact: ExactFields,
    system,
    level: Optional[LevelData] = None,
    fields=None,
) -> ErrorReport:
    """Graph-norm error of a discrete solution against closed-form references.

    ``level`` is the level data the system was assembled from; its geometry
    is reused, and without it the geometry is built here.  ``fields``
    iterates over ``element_fields(solution, level.geometry)`` when the
    caller shares those blocks with the indicators.
    """
    geometry = level.geometry if level is not None else level_geometry(mesh, solution.dofmap, system)
    if fields is None:
        fields = element_fields(solution, geometry)
    sq_u1 = sq_grad = sq_u2 = sq_div = 0.0
    for block, (u1_val, u1_grad, u2_val, u2_grad) in fields:
        (t, x), wdet = geometry.points(block), geometry.wdet(block)
        e_u1 = u1_val - sample(exact.u1, t, x)
        e_grad = u1_grad - np.moveaxis(exact.u1_grad(t, x), -1, 0)
        e_u2 = u2_val - np.moveaxis(exact.u2(t, x), -1, 0)
        e_div = system.divergence(u1_grad, u2_grad) - sample(exact.div, t, x)

        sq_u1 += float(np.einsum("qe,qe->", e_u1**2, wdet))
        for axis in system.spatial_axes:
            sq_grad += float(np.einsum("qe,qe->", e_grad[axis] ** 2, wdet))
        sq_u2 += float(np.einsum("cqe,qe->", e_u2**2, wdet))
        sq_div += float(np.einsum("qe,qe->", e_div**2, wdet))

    xs = geometry.facet_x
    ref = sample(exact.u1, np.zeros_like(xs), xs)
    sq_trace = float(np.sum(geometry.facet_wlen * (_initial_trace(solution, geometry) - ref) ** 2))

    total = float(np.sqrt(sq_u1 + sq_grad + sq_u2 + sq_div + sq_trace))
    return ErrorReport(
        u1_l2=float(np.sqrt(sq_u1)),
        u1_grad_l2=float(np.sqrt(sq_grad)),
        u2_l2=float(np.sqrt(sq_u2)),
        div_l2=float(np.sqrt(sq_div)),
        initial_l2=float(np.sqrt(sq_trace)),
        total=total,
    )


def efficiency_reliability_ratio(indicators: Indicators, report: ErrorReport) -> float:
    """Ratio estimator / error; returns inf when the error vanishes."""
    if report.total == 0.0:
        return float("inf")
    return indicators.total / report.total


def data_norm(mesh: Mesh, dofmap, system) -> float:
    """L-norm of the data vector (interior targets plus initial datum)."""
    level = level_data(mesh, dofmap, system)
    return float(np.sqrt(np.sum(level.data**2) + np.sum(level.facet_data**2)))
