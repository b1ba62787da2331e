"""First-order systems evaluated pointwise on discrete fields.

A system maps the pair (u1, u2) of a constrained scalar field and a vector
of flux components to interior residual components plus, optionally, an
initial-trace component supported on facets tagged Initial.  Assembly,
estimation and the adaptive driver only use this interface, so any linear
first-order least-squares formulation over the same product space plugs in.

Axis order: every method takes point coordinates ``t`` and ``x`` and field
values of matching (broadcastable) shape.  Gradients carry their
coordinate axis (d/dt, d/dx) first, flux gradients ``(nc, 2, ...)``.  The
residual methods write their components into the caller's ``out``, stacked
in its first axis, ``(n_interior,) + field shape`` with at least one field
axis; assembly passes a view of its image table there, so the trailing
axes (the element axis last) stay contiguous and nothing is copied.  The
residuals are linear in the fields, so assembly passes sqrt(w)-weighted
values and gradients and gets weighted images.

Parabolic instance (flux form):

    G(u1, u2) = (u2 + A du1/dx,
                 du1/dt + du2/dx - b A^{-1} u2 + c u1,
                 u1(0, .))

with target data (f2, f1 - b A^{-1} f2, u0).  The gradient form replaces
``-b A^{-1} u2`` by ``+b du1/dx``.

Stationary Poisson instance on the same 2D mesh, coordinates read as
(x1, x2), flux convention sigma = -grad(u), so div(sigma) = f:

    G(u, sigma) = (sigma + grad(u), div(sigma)),   data (0, 0, f),

with u constrained on the whole boundary and no initial-trace component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import FacetTag
from .problem import ConvectionForm, ParabolicProblem, sample, sample_x

__all__ = [
    "GImage",
    "ParabolicSystem",
    "PoissonSystem",
    "parabolic_system",
    "eval_G",
    "eval_data",
    "eval_data_initial",
    "poisson_sine_case",
]


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


class ParabolicSystem:
    """Space-time first-order system of the second-order parabolic equation."""

    n_flux = 1
    has_initial_trace = True
    dirichlet_tags = frozenset({FacetTag.LATERAL_DIRICHLET})
    spatial_axes = (1,)  # coordinate axes entering the spatial gradient

    def __init__(self, problem: ParabolicProblem):
        self.problem = problem

    @property
    def n_interior(self) -> int:
        return self.n_flux + 1

    def residual_u1(self, t, x, val, grad, out):
        """Interior residual components generated by the u1 field.

        ``grad`` stacks (d/dt, d/dx) in its first axis; ``out`` receives
        (flux residual, divergence residual) in its first axis.
        """
        coeff = self.problem.coefficients
        np.multiply(sample(coeff.reaction, t, x), val, out=out[1])
        out[1] += grad[0]
        if self.problem.form is ConvectionForm.GRADIENT:  # out[0] as scratch
            np.multiply(sample(coeff.convection, t, x), grad[1], out=out[0])
            out[1] += out[0]
        np.multiply(sample(coeff.diffusion, t, x), grad[1], out=out[0])

    def residual_u2(self, comp, t, x, val, grad, out):
        if comp != 0:
            raise IndexError("parabolic system has a single flux component")
        if self.problem.form is ConvectionForm.FLUX:
            coeff = self.problem.coefficients
            b = sample(coeff.convection, t, x)
            a = sample(coeff.diffusion, t, x)
            np.multiply(b / a, val, out=out[1])
            np.subtract(grad[1], out[1], out=out[1])
        else:
            out[1] = grad[1]
        out[0] = val

    def data_interior(self, t, x):
        coeff, data = self.problem.coefficients, self.problem.data
        f2 = sample(data.f2, t, x)
        b = sample(coeff.convection, t, x)
        a = sample(coeff.diffusion, t, x)
        target_div = sample(data.f1, t, x) - b / a * f2
        return np.stack([f2, target_div])

    def data_initial(self, x):
        return sample_x(self.problem.data.u0, x)

    @staticmethod
    def divergence(u1_grad, u2_grads):
        """Space-time divergence d(u1)/dt + d(u2)/dx of the field vector."""
        return u1_grad[0] + u2_grads[0, 1]


class PoissonSystem:
    """Least-squares system of the Poisson problem -div(grad u) = f."""

    n_flux = 2
    has_initial_trace = False
    dirichlet_tags = frozenset(
        {FacetTag.LATERAL_DIRICHLET, FacetTag.INITIAL, FacetTag.FINAL}
    )
    spatial_axes = (0, 1)

    def __init__(self, f: Callable):
        self.f = f

    @property
    def n_interior(self) -> int:
        return self.n_flux + 1

    def residual_u1(self, t, x, val, grad, out):
        out[:2] = grad
        out[2] = 0.0

    def residual_u2(self, comp, t, x, val, grad, out):
        if comp not in (0, 1):
            raise IndexError("flux component out of range")
        out[1 - comp] = 0.0  # the other flux component
        out[comp] = val
        out[2] = grad[comp]

    def data_interior(self, t, x):
        f = sample(self.f, t, x)
        zero = np.zeros_like(f)
        return np.stack([zero, zero, f])

    def data_initial(self, x):
        raise RuntimeError("stationary system has no initial-trace component")

    @staticmethod
    def divergence(u1_grad, u2_grads):
        return u2_grads[0, 0] + u2_grads[1, 1]


def parabolic_system(problem: ParabolicProblem) -> ParabolicSystem:
    return ParabolicSystem(problem)


def eval_G(system, point, u1_val, u1_grad, u2_val, u2_grad) -> GImage:
    """Apply the system operator to field values at one point.

    ``u2_val`` has one entry per flux component and ``u2_grad`` one gradient
    row per component; scalars are accepted for single-flux systems.
    """
    t, x = float(point[0]), float(point[1])
    u1_grad = np.asarray(u1_grad, dtype=float).reshape(2, 1)
    u2_val = np.atleast_1d(np.asarray(u2_val, dtype=float))
    u2_grad = np.asarray(u2_grad, dtype=float).reshape(system.n_flux, 2, 1)

    # One field axis of length 1, so that every component of ``out`` is an array.
    out = np.empty((system.n_interior, 1))
    system.residual_u1(t, x, np.full(1, float(u1_val)), u1_grad, out)
    interior = out[:, 0].copy()
    for comp in range(system.n_flux):
        system.residual_u2(comp, t, x, u2_val[comp:comp + 1], u2_grad[comp], out)
        interior += out[:, 0]
    return GImage(
        flux=interior[:system.n_flux],
        div=float(interior[system.n_flux]),
        initial=float(u1_val) if system.has_initial_trace else None,
    )


def eval_data(system, point) -> np.ndarray:
    """Interior residual targets at one point, flux components first."""
    t, x = float(point[0]), float(point[1])
    return np.asarray(system.data_interior(t, x), dtype=float)


def eval_data_initial(system, x) -> float:
    """Initial-trace target at a point of the t = 0 boundary."""
    return float(system.data_initial(float(x)))


def poisson_sine_case():
    """Poisson instance with u = sin(pi x1) sin(pi x2) and its exact fields."""
    from .problem import ExactFields

    pi = np.pi

    def u(t, x):
        return np.sin(pi * t) * np.sin(pi * x)

    def f(t, x):
        return 2.0 * pi * pi * np.sin(pi * t) * np.sin(pi * x)

    def u_grad(t, x):
        return np.stack(
            [
                pi * np.cos(pi * np.asarray(t)) * np.sin(pi * np.asarray(x)),
                pi * np.sin(pi * np.asarray(t)) * np.cos(pi * np.asarray(x)),
            ],
            axis=-1,
        )

    def sigma(t, x):
        return -u_grad(t, x)

    exact = ExactFields(u1=u, u1_grad=u_grad, u2=sigma, div=f)
    return PoissonSystem(f), exact
