"""First-order systems evaluated pointwise on discrete fields.

A system maps the pair (u1, u2) of a constrained scalar field and a vector
of flux components to interior residual components plus, optionally, an
initial-trace component supported on facets tagged Initial.  Assembly,
estimation and the adaptive driver only use this interface, so any linear
first-order least-squares formulation over the same product space plugs in.

Axis order: every method takes point coordinates ``t`` and ``x`` and field
values of matching (broadcastable) shape.  Gradients carry their
coordinate axis (d/dt, d/dx) first.  ``residual_u1`` and ``data_interior``
write their components into the caller's ``out``, stacked in its first
axis, ``(n_interior,) + field shape`` with at least one field axis.
``residual_u2`` takes all nc flux components at once, on the first axis:
values ``(nc, ...)``, gradients ``(nc, 2, ...)`` and ``out`` ``(nc,
n_interior, ...)``, whose row c receives the image of component c.
Assembly passes a view of one block of its image table or of its data as
``out``, so the trailing axes (the element axis last) stay contiguous and
nothing is copied.  The residuals are linear in the fields, so assembly
passes sqrt(w)-weighted values and gradients and gets weighted images.
The parabolic instance calls the problem's fields directly on the points
(see :mod:`stfosls.problem`), so a constant field and ``data_initial`` may
return a number that broadcasts against them.  Data that cannot define the
problem (a diffusion that is not positive, non-finite values) raises
:class:`InvalidDataError`.

Parabolic instance (flux form):

    G(u1, u2) = (u2 + A du1/dx,
                 du1/dt + du2/dx - b A^{-1} u2 + c u1,
                 u1(0, .))

with target data (f2, f1 - b A^{-1} f2, u0).  The gradient form replaces
``-b A^{-1} u2`` by ``+b du1/dx`` and the divergence target by f1.

Stationary Poisson instance on the same 2D mesh, coordinates read as
(x1, x2), flux convention sigma = -grad(u), so div(sigma) = f:

    G(u, sigma) = (sigma + grad(u), div(sigma)),   data (0, 0, f),

with u constrained on the whole boundary and no initial-trace component.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

import numpy as np

from .mesh import FacetTag
from .problem import ExactFields, ParabolicProblem

__all__ = [
    "ConvectionForm",
    "InvalidDataError",
    "ParabolicSystem",
    "PoissonSystem",
    "parabolic_system",
    "poisson_sine_case",
]


class ConvectionForm(Enum):
    """Choice of convection term in the divergence residual.

    FLUX uses ``-b A^{-1} u2`` (a zero-order coupling through the flux
    variable) and the divergence target f1 - b A^{-1} f2; GRADIENT uses
    ``+b du1/dx`` directly and the target f1.  Both are equivalent on exact
    solutions, where u2 = f2 - A du1/dx.
    """

    FLUX = "flux"
    GRADIENT = "gradient"


class InvalidDataError(ValueError):
    """Problem data that cannot define the least-squares problem."""


def _require(ok, quantity: str, t, x) -> None:
    """Raise :class:`InvalidDataError` naming ``quantity`` and the first
    point (t, x) where ``ok``, a boolean that broadcasts against the points,
    is False."""
    if not np.all(ok):
        ok, t, x = np.broadcast_arrays(ok, t, x)
        at = np.unravel_index(np.argmin(ok), ok.shape)
        raise InvalidDataError(f"{quantity} at (t, x) = ({float(t[at])!r}, {float(x[at])!r})")


class ParabolicSystem:
    """Space-time first-order system of the second-order parabolic equation,
    with its convection term in the given form."""

    n_flux = 1
    n_interior = 2  # flux residual, divergence residual
    has_initial_trace = True
    dirichlet_tags = frozenset({FacetTag.LATERAL_DIRICHLET})
    spatial_axes = (1,)  # coordinate axes entering the spatial gradient

    def __init__(self, problem: ParabolicProblem, form: ConvectionForm = ConvectionForm.FLUX):
        self.problem = problem
        self.form = form

    def residual_u1(self, t, x, val, grad, out):
        """Interior residual components generated by the u1 field.

        ``grad`` stacks (d/dt, d/dx) in its first axis; ``out`` receives
        (flux residual, divergence residual) in its first axis.
        """
        problem = self.problem
        np.multiply(problem.reaction(t, x), val, out=out[1])
        out[1] += grad[0]
        if self.form is ConvectionForm.GRADIENT:  # out[0] as scratch
            np.multiply(problem.convection(t, x), grad[1], out=out[0])
            out[1] += out[0]
        np.multiply(problem.diffusion(t, x), grad[1], out=out[0])

    def residual_u2(self, t, x, val, grad, out):
        """Interior residual components generated by the single flux
        component: ``val`` (1, ...), ``grad`` (1, 2, ...), ``out`` (1, 2, ...)."""
        val, grad, out = val[0], grad[0], out[0]
        if self.form is ConvectionForm.FLUX:
            b_over_a = self.problem.convection(t, x) / self.problem.diffusion(t, x)
            np.multiply(b_over_a, val, out=out[1])
            np.subtract(grad[1], out[1], out=out[1])
        else:
            out[1] = grad[1]
        out[0] = val

    def data_interior(self, t, x, out):
        """Targets (f2, f1 - b A^{-1} f2) in the flux form, (f2, f1) in the
        gradient form, into ``out``; rejects a diffusion A that is not
        positive (NaN included)."""
        problem = self.problem
        a = problem.diffusion(t, x)
        _require(a > 0.0, "diffusion A is not positive", t, x)
        out[0] = problem.f2(t, x)
        out[1] = problem.f1(t, x)
        if self.form is ConvectionForm.FLUX:
            out[1] -= problem.convection(t, x) / a * out[0]

    def data_initial(self, x):
        return self.problem.u0(x)

    @staticmethod
    def divergence(u1_grad, u2_grads):
        """Space-time divergence d(u1)/dt + d(u2)/dx of the field vector."""
        return u1_grad[0] + u2_grads[0, 1]


class PoissonSystem:
    """Least-squares system of the Poisson problem -div(grad u) = f."""

    n_flux = 2
    n_interior = 3  # two flux residuals, divergence residual
    has_initial_trace = False
    dirichlet_tags = frozenset(
        {FacetTag.LATERAL_DIRICHLET, FacetTag.INITIAL, FacetTag.FINAL}
    )
    spatial_axes = (0, 1)

    def __init__(self, f: Callable):
        self.f = f

    def residual_u1(self, t, x, val, grad, out):
        out[:2] = grad
        out[2] = 0.0

    def residual_u2(self, t, x, val, grad, out):
        out[0, 1] = out[1, 0] = 0.0  # component c enters flux residual c only
        out[0, 0], out[1, 1] = val
        out[0, 2], out[1, 2] = grad[0, 0], grad[1, 1]

    def data_interior(self, t, x, out):
        out[:2] = 0.0
        out[2] = self.f(t, x)

    def data_initial(self, x):
        raise RuntimeError("stationary system has no initial-trace component")

    @staticmethod
    def divergence(u1_grad, u2_grads):
        return u2_grads[0, 0] + u2_grads[1, 1]


def parabolic_system(problem: ParabolicProblem,
                     form: ConvectionForm = ConvectionForm.FLUX) -> ParabolicSystem:
    return ParabolicSystem(problem, form)


def poisson_sine_case():
    """Poisson instance with u = sin(pi x1) sin(pi x2) and its exact fields."""
    pi = np.pi

    def u(t, x):
        return np.sin(pi * t) * np.sin(pi * x)

    def f(t, x):
        return 2.0 * pi * pi * np.sin(pi * t) * np.sin(pi * x)

    def u_grad(t, x):
        return np.stack([
            pi * np.cos(pi * np.asarray(t)) * np.sin(pi * np.asarray(x)),
            pi * np.sin(pi * np.asarray(t)) * np.cos(pi * np.asarray(x)),
        ])

    def sigma(t, x):
        return -u_grad(t, x)

    exact = ExactFields(u1=u, u1_grad=u_grad, u2=sigma, div=f)
    return PoissonSystem(f), exact
