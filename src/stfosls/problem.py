"""The parabolic problem as one record of its coefficients, right-hand
sides, initial datum and convection form, and the built-in cases:
manufactured solutions given by closed-form derivatives, each with its
exact fields.

All coefficient and data fields are point-evaluable callables ``f(t, x)``
that accept numpy arrays; a scalar-only callable fails with its own error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "ConvectionForm",
    "ParabolicProblem",
    "ExactFields",
    "sample",
    "sample_x",
    "make_problem",
    "BUILTIN_CASES",
]


class ConvectionForm(Enum):
    """Choice of convection term in the divergence residual.

    FLUX uses ``-b A^{-1} u2`` (a zero-order coupling through the flux
    variable); GRADIENT uses ``+b du1/dx`` directly.  Both are equivalent on
    exact solutions, where u2 = -A du1/dx.
    """

    FLUX = "flux"
    GRADIENT = "gradient"


def sample(f: Callable, t, x) -> np.ndarray:
    """Evaluate ``f(t, x)`` on arrays, broadcasting a constant result."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.asarray(f(t, x), dtype=float)
    if out.shape != t.shape:
        out = np.broadcast_to(out, t.shape).copy()
    return out


def sample_x(f: Callable, x) -> np.ndarray:
    """Evaluate a function of x alone on arrays, like :func:`sample`."""
    x = np.asarray(x, dtype=float)
    out = np.asarray(f(x), dtype=float)
    if out.shape != x.shape:
        out = np.broadcast_to(out, x.shape).copy()
    return out


@dataclass(frozen=True)
class ParabolicProblem:
    """The PDE du/dt - d/dx(A du/dx) + b du/dx + c u = f on the space-time
    rectangle, with initial datum u0.

    ``diffusion`` A must be uniformly positive on the closed rectangle; all
    coefficients must be bounded.  The forcing acts as
    v -> integral(f1 v + f2 dv/dx); f2 = 0 recovers a plain L2 forcing f1.
    ``u0`` is a function of x alone; every other field is ``f(t, x)``.
    """

    diffusion: Callable  # A(t, x) > 0
    convection: Callable  # b(t, x)
    reaction: Callable  # c(t, x)
    f1: Callable
    f2: Callable
    u0: Callable
    form: ConvectionForm = ConvectionForm.FLUX


@dataclass(frozen=True)
class ExactFields:
    """Reference fields for graph-norm error evaluation, components first,
    like the discrete fields they are compared to.

    ``u1_grad`` stacks the full coordinate gradient (d/dt, d/dx) for the
    parabolic problem or (d/dx1, d/dx2) for a stationary instance; ``u2``
    stacks the flux components; ``div`` is the divergence entering the
    first-order system.
    """

    u1: Callable
    u1_grad: Callable  # (t, x) -> (2, ...)
    u2: Callable  # (t, x) -> (n_components, ...)
    div: Callable


def _parabolic_case(diffusion: Callable, convection: Callable, reaction: Callable, form: ConvectionForm,
                    u: Callable, u_t: Callable, u_x: Callable, flux: Callable, flux_x: Callable):
    """A manufactured problem and the exact fields of its solution.

    Built from the coefficients A, b, c, and from the closed forms of the
    solution ``u``, its derivatives ``u_t`` and ``u_x``, the flux variable
    ``flux`` = -A du/dx and its spatial derivative ``flux_x`` =
    -d/dx(A du/dx); supplying both in closed form keeps the source and every
    reference evaluation free of numerical differentiation, also for
    space-dependent diffusion.  The source is
    f1 = u_t - d/dx(A u_x) + b u_x + c u with f2 = 0 and u0 = u(0, .).
    """

    def f1(t, x):
        return (
            sample(u_t, t, x)
            + sample(flux_x, t, x)
            + sample(convection, t, x) * sample(u_x, t, x)
            + sample(reaction, t, x) * sample(u, t, x)
        )

    problem = ParabolicProblem(
        diffusion, convection, reaction,
        f1=f1,
        f2=lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
        u0=lambda x: sample(u, np.zeros_like(np.asarray(x, dtype=float)), x),
        form=form,
    )
    exact = ExactFields(
        u1=lambda t, x: sample(u, t, x),
        u1_grad=lambda t, x: np.stack([sample(u_t, t, x), sample(u_x, t, x)]),
        u2=lambda t, x: sample(flux, t, x)[None],
        # Space-time divergence of (u1, u2): u_t + d/dx(flux).
        div=lambda t, x: sample(u_t, t, x) + sample(flux_x, t, x),
    )
    return problem, exact


def _constant(value: float) -> Callable:
    return lambda t, x: np.full_like(np.asarray(t, dtype=float), value)


def _incompatible_problem(form: ConvectionForm) -> ParabolicProblem:
    """Zero forcing with u0 = 1: the initial datum clashes with the lateral
    boundary condition, so the solution is singular at the bottom corners and
    exercises adaptive refinement.  No closed-form reference exists."""
    zero = _constant(0.0)
    return ParabolicProblem(_constant(1.0), zero, zero, f1=zero, f2=zero,
                            u0=lambda x: np.ones_like(np.asarray(x, dtype=float)), form=form)


BUILTIN_CASES = ("heat-smooth", "convection-reaction", "variable-a", "incompatible")


def make_problem(name: str, form: ConvectionForm = ConvectionForm.FLUX):
    """Built-in named problems.

    Returns ``(problem, exact)`` where ``exact`` holds the exact fields of
    the manufactured solution u(t, x) = exp(-t) sin(pi x), or None for the
    estimator-only 'incompatible' run.
    """
    if name == "incompatible":
        return _incompatible_problem(form), None
    if name not in BUILTIN_CASES:
        raise ValueError(f"unknown case {name!r}; available: {', '.join(BUILTIN_CASES)}")
    pi = np.pi

    def u(t, x):
        return np.exp(-t) * np.sin(pi * x)

    def u_t(t, x):
        return -np.exp(-t) * np.sin(pi * x)

    def u_x(t, x):
        return pi * np.exp(-t) * np.cos(pi * x)

    if name == "variable-a":
        # A(t, x) = 1 + t x / 2: flux = -A u_x, flux_x = -(t/2) u_x - A u_xx.
        def a(t, x):
            return 1.0 + 0.5 * np.asarray(t, dtype=float) * np.asarray(x, dtype=float)

        def u_xx(t, x):
            return -pi * pi * np.exp(-t) * np.sin(pi * x)

        def flux(t, x):
            return -a(t, x) * u_x(t, x)

        def flux_x(t, x):
            t = np.asarray(t, dtype=float)
            return -0.5 * t * u_x(t, x) - a(t, x) * u_xx(t, x)

        return _parabolic_case(a, _constant(0.0), _constant(0.0), form, u, u_t, u_x, flux, flux_x)
    bc = _constant(1.0 if name == "convection-reaction" else 0.0)
    return _parabolic_case(
        _constant(1.0), bc, bc, form, u, u_t, u_x,
        flux=lambda t, x: -pi * np.exp(-t) * np.cos(pi * x),
        flux_x=lambda t, x: pi * pi * np.exp(-t) * np.sin(pi * x),
    )
