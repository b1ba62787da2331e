"""Elementwise least-squares error indicators and graph-norm error evaluation.

The squared indicator of an element collects the local L-norm of the
residual: the interior residual components integrated over the element plus
the squared mismatch of the initial trace over the element's facets on
t = 0.  Squared indicators add up exactly to the squared global estimator.

Indicators are read off the level's :class:`stfosls.assembly.ImageTable`:
eta_K^2 = ||D_K - R_K^T c_K||^2 for its weighted images R_K, data D_K and
the local coefficients c_K, plus the same on an initial facet of K.

The error against a manufactured reference is measured in the localized
graph seminorm

    ||v||^2 = ||v1||^2 + ||grad_x v1||^2 + ||v2||^2 + ||div v||^2
              + ||v1(0,.)||^2,

whose pieces the report keeps separate; the trace term is dropped for
systems without an initial-trace component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import (
    DiscreteSolution,
    ImageTable,
    element_fields,
    image_table,
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

    def contributions(self):
        return (self.u1_l2, self.u1_grad_l2, self.u2_l2, self.div_l2, self.initial_l2)


def compute_indicators(
    mesh: Mesh,
    solution: DiscreteSolution,
    system,
    table: Optional[ImageTable] = None,
) -> Indicators:
    """Least-squares indicators of a solved discrete solution.

    ``table`` is the image table the level was assembled from
    (``SparseSystem.table``); without it the same table is built here.
    """
    if table is None:
        table = image_table(mesh, solution.dofmap, system)
    eta2 = table.squared_residuals(solution.dofmap, solution.coeffs)
    return Indicators(per_element=np.sqrt(eta2), total=float(np.sqrt(eta2.sum())))


def u_norm_error(
    mesh: Mesh,
    solution: DiscreteSolution,
    exact: ExactFields,
    system,
    table: Optional[ImageTable] = None,
) -> ErrorReport:
    """Graph-norm error of a discrete solution against closed-form references.

    ``table`` is the image table the level was assembled from; its geometry
    is reused, and without it the geometry is built here.
    """
    geometry = table.geometry if table is not None else level_geometry(mesh, solution.dofmap, system)
    u1_val, u1_grad, u2_val, u2_grad = element_fields(solution, geometry)
    (t, x), wdet = geometry.points, geometry.wdet

    e_u1 = u1_val - sample(exact.u1, t, x)
    e_grad = u1_grad - np.moveaxis(exact.u1_grad(t, x), -1, 0)
    e_u2 = u2_val - np.moveaxis(exact.u2(t, x), -1, 0)
    e_div = system.divergence(u1_grad, u2_grad) - sample(exact.div, t, x)

    sq_u1 = float(np.einsum("qe,qe->", e_u1**2, wdet))
    sq_grad = 0.0
    for axis in system.spatial_axes:
        sq_grad += float(np.einsum("qe,qe->", e_grad[axis] ** 2, wdet))
    sq_u2 = float(np.einsum("cqe,qe->", e_u2**2, wdet))
    sq_div = float(np.einsum("qe,qe->", e_div**2, wdet))

    elems, xs, wlen = geometry.facet_elements, geometry.facet_x, geometry.facet_wlen
    dofs = solution.dofmap.cell_dofs_u1[elems]
    local = np.where(dofs >= 0, solution.coeffs[dofs], 0.0)
    trace = np.einsum("fqa,fa->fq", geometry.facet_basis, local)
    ref = sample(exact.u1, np.zeros_like(xs), xs)
    sq_trace = float(np.sum(wlen * (trace - ref) ** 2))

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
    table = image_table(mesh, dofmap, system)
    return float(np.sqrt(np.sum(table.data**2) + np.sum(table.facet_data**2)))
