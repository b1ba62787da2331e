"""The parabolic problem as one record of its coefficients, right-hand
sides and initial datum, and the built-in cases: manufactured solutions
given by closed-form derivatives, each with its exact fields.

Every coefficient and datum is a field: a numpy function ``f(t, x)``, or
``u0(x)`` for the initial datum, that returns an array or a number which
broadcasts against its points; a constant field may return a plain number.
Fields are called directly on arrays of points, never point by point, so a
callable that cannot take arrays fails with its own error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ParabolicProblem",
    "ExactFields",
    "make_problem",
    "BUILTIN_CASES",
]


@dataclass(frozen=True)
class ParabolicProblem:
    """The PDE du/dt - d/dx(A du/dx) + b du/dx + c u = f on the space-time
    rectangle, with initial datum u0.

    ``diffusion`` A must be uniformly positive on the closed rectangle; all
    coefficients must be bounded.  The forcing acts as
    v -> integral(f1 v + f2 dv/dx); f2 = 0 recovers a plain L2 forcing f1.
    ``u0`` is a function of x alone; every other field is ``f(t, x)``.
    Each returns an array or a number that broadcasts against its points.
    The record is the PDE alone: its least-squares system, in either
    convection form, is :func:`stfosls.system.parabolic_system`'s.
    """

    diffusion: Callable  # A(t, x) > 0
    convection: Callable  # b(t, x)
    reaction: Callable  # c(t, x)
    f1: Callable
    f2: Callable
    u0: Callable


@dataclass(frozen=True)
class ExactFields:
    """Reference fields for graph-norm error evaluation, components first,
    like the discrete fields they are compared to.

    ``u1_grad`` stacks the full coordinate gradient (d/dt, d/dx) for the
    parabolic problem or (d/dx1, d/dx2) for a stationary instance; ``u2``
    stacks the flux components; ``div`` is the divergence entering the
    first-order system.  ``u1`` and ``div`` are fields like the problem's;
    ``u1_grad`` and ``u2`` return arrays whose trailing axes are the shape
    of the points.
    """

    u1: Callable
    u1_grad: Callable  # (t, x) -> (2, ...)
    u2: Callable  # (t, x) -> (n_components, ...)
    div: Callable


def _parabolic_case(diffusion: Callable, convection: Callable, reaction: Callable,
                    u: Callable, u_t: Callable, u_x: Callable, flux: Callable, flux_x: Callable):
    """A manufactured problem and the exact fields of its solution.

    Built from the coefficients A, b, c, and from the closed forms of the
    solution ``u``, its derivatives ``u_t`` and ``u_x``, the flux variable
    ``flux`` = -A du/dx and its spatial derivative ``flux_x`` =
    -d/dx(A du/dx); supplying both in closed form keeps the source and every
    reference evaluation free of numerical differentiation, also for
    space-dependent diffusion.  The source is
    f1 = u_t - d/dx(A u_x) + b u_x + c u with f2 = 0 and u0 = u(0, .).
    Every argument is a field, called directly on the points: a closed form
    may return a number, and so may the fields built from it, except the
    exact gradient and flux, which stack their components on the points.
    """

    def f1(t, x):
        return u_t(t, x) + flux_x(t, x) + convection(t, x) * u_x(t, x) + reaction(t, x) * u(t, x)

    problem = ParabolicProblem(diffusion, convection, reaction, f1=f1, f2=_constant(0.0),
                               u0=lambda x: u(0.0, x))
    exact = ExactFields(
        u1=u,
        u1_grad=lambda t, x: _stacked(t, x, u_t, u_x),
        u2=lambda t, x: _stacked(t, x, flux),
        # Space-time divergence of (u1, u2): u_t + d/dx(flux).
        div=lambda t, x: u_t(t, x) + flux_x(t, x),
    )
    return problem, exact


def _stacked(t, x, *fields) -> np.ndarray:
    """The values of ``fields`` at (t, x), broadcast against the points and
    stacked on a new first axis."""
    return np.stack(np.broadcast_arrays(t, x, *(f(t, x) for f in fields))[2:])


def _constant(value: float) -> Callable:
    return lambda t, x: value


def _incompatible_problem() -> ParabolicProblem:
    """Zero forcing with u0 = 1: the initial datum clashes with the lateral
    boundary condition, so the solution is singular at the bottom corners and
    exercises adaptive refinement.  The solution is the odd-mode Fourier
    series u = sum over odd k of 4/(k pi) exp(-k^2 pi^2 t) sin(k pi x), with
    an image-sum form for small t; the package does not evaluate it yet, so
    the case has no ExactFields."""
    zero = _constant(0.0)
    return ParabolicProblem(_constant(1.0), zero, zero, f1=zero, f2=zero, u0=lambda x: 1.0)


BUILTIN_CASES = ("heat-smooth", "convection-reaction", "variable-a", "incompatible")


def make_problem(name: str):
    """Built-in named problems, each the PDE alone: its system, in either
    convection form, is :func:`stfosls.system.parabolic_system`'s.

    Returns ``(problem, exact)`` where ``exact`` holds the exact fields of
    the manufactured solution u(t, x) = exp(-t) sin(pi x).  For
    'incompatible' it is None: that solution is a known series (see
    :func:`_incompatible_problem`), which the package does not evaluate yet,
    so its runs are estimator-only.
    """
    if name == "incompatible":
        return _incompatible_problem(), None
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

        return _parabolic_case(a, _constant(0.0), _constant(0.0), u, u_t, u_x, flux, flux_x)
    bc = _constant(1.0 if name == "convection-reaction" else 0.0)
    return _parabolic_case(
        _constant(1.0), bc, bc, u, u_t, u_x,
        flux=lambda t, x: -pi * np.exp(-t) * np.cos(pi * x),
        flux_x=lambda t, x: pi * pi * np.exp(-t) * np.sin(pi * x),
    )
