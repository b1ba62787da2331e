"""Problem data for the parabolic solver: coefficients, right-hand sides,
convection-form selection, and manufactured solutions with closed-form
derivatives.

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
    "CoefficientField",
    "ProblemData",
    "ParabolicProblem",
    "ManufacturedCase",
    "ExactFields",
    "sample",
    "sample_x",
    "from_manufactured",
    "exact_error_data",
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
class CoefficientField:
    """Coefficients of the operator du/dt - d/dx(A du/dx) + b du/dx + c u.

    ``diffusion`` must be uniformly positive on the closed space-time
    rectangle; all three fields must be bounded.
    """

    diffusion: Callable  # A(t, x) > 0
    convection: Callable  # b(t, x)
    reaction: Callable  # c(t, x)


@dataclass(frozen=True)
class ProblemData:
    """Right-hand side split (f1, f2) and initial datum u0.

    The forcing acts as v -> integral(f1 v + f2 dv/dx); f2 = 0 recovers a
    plain L2 forcing f1.
    """

    f1: Callable
    f2: Callable
    u0: Callable  # function of x only


@dataclass(frozen=True)
class ParabolicProblem:
    coefficients: CoefficientField
    data: ProblemData
    form: ConvectionForm = ConvectionForm.FLUX


@dataclass(frozen=True)
class ManufacturedCase:
    """A closed-form solution u with the derivatives the solver verifies against.

    ``flux`` is the exact flux variable -A du/dx and ``flux_x`` its spatial
    derivative -d/dx(A du/dx); supplying both in closed form keeps every
    reference evaluation free of numerical differentiation, also for
    space-dependent diffusion.
    """

    name: str
    u: Callable
    u_t: Callable
    u_x: Callable
    u_xx: Callable
    flux: Callable
    flux_x: Callable


@dataclass(frozen=True)
class ExactFields:
    """Reference fields for graph-norm error evaluation.

    ``u1_grad`` stacks the full coordinate gradient (d/dt, d/dx) for the
    parabolic problem or (d/dx1, d/dx2) for a stationary instance; ``u2``
    stacks the flux components; ``div`` is the divergence entering the
    first-order system.
    """

    u1: Callable
    u1_grad: Callable  # (t, x) -> (..., 2)
    u2: Callable  # (t, x) -> (..., n_components)
    div: Callable


def from_manufactured(
    case: ManufacturedCase,
    coefficients: CoefficientField,
    form: ConvectionForm = ConvectionForm.FLUX,
) -> ParabolicProblem:
    """Problem whose strong-form source matches the manufactured solution.

    The source is f1 = u_t - d/dx(A u_x) + b u_x + c u with f2 = 0 and
    u0 = u(0, .); the second-derivative term comes from the case's
    closed-form ``flux_x``.
    """

    def f1(t, x):
        return (
            sample(case.u_t, t, x)
            + sample(case.flux_x, t, x)
            + sample(coefficients.convection, t, x) * sample(case.u_x, t, x)
            + sample(coefficients.reaction, t, x) * sample(case.u, t, x)
        )

    data = ProblemData(
        f1=f1,
        f2=lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
        u0=lambda x: sample(case.u, np.zeros_like(np.asarray(x, dtype=float)), x),
    )
    return ParabolicProblem(coefficients=coefficients, data=data, form=form)


def exact_error_data(case: ManufacturedCase) -> ExactFields:
    """Reference fields (u, -A du/dx) and their derivatives for error norms."""

    def u1_grad(t, x):
        return np.stack([sample(case.u_t, t, x), sample(case.u_x, t, x)], axis=-1)

    def u2(t, x):
        return sample(case.flux, t, x)[..., None]

    def div(t, x):
        # Space-time divergence of (u1, u2): u_t + d/dx(flux).
        return sample(case.u_t, t, x) + sample(case.flux_x, t, x)

    return ExactFields(
        u1=lambda t, x: sample(case.u, t, x),
        u1_grad=u1_grad,
        u2=u2,
        div=div,
    )


def _constant(value: float) -> Callable:
    return lambda t, x: np.full_like(np.asarray(t, dtype=float), value)


def _unit_coefficients() -> CoefficientField:
    return CoefficientField(diffusion=_constant(1.0), convection=_constant(0.0),
                            reaction=_constant(0.0))


def _decaying_sine_case() -> ManufacturedCase:
    """u(t, x) = exp(-t) sin(pi x) with unit diffusion flux."""
    pi = np.pi
    return ManufacturedCase(
        name="decaying-sine",
        u=lambda t, x: np.exp(-t) * np.sin(pi * x),
        u_t=lambda t, x: -np.exp(-t) * np.sin(pi * x),
        u_x=lambda t, x: pi * np.exp(-t) * np.cos(pi * x),
        u_xx=lambda t, x: -pi * pi * np.exp(-t) * np.sin(pi * x),
        flux=lambda t, x: -pi * np.exp(-t) * np.cos(pi * x),
        flux_x=lambda t, x: pi * pi * np.exp(-t) * np.sin(pi * x),
    )


def _variable_a_case() -> tuple:
    """Same decaying sine solution under A(t, x) = 1 + t x / 2.

    flux = -(1 + t x / 2) u_x; flux_x = -(t/2) u_x - (1 + t x / 2) u_xx,
    both written out in closed form.
    """
    pi = np.pi
    base = _decaying_sine_case()

    def a(t, x):
        return 1.0 + 0.5 * np.asarray(t, dtype=float) * np.asarray(x, dtype=float)

    def flux(t, x):
        return -a(t, x) * base.u_x(t, x)

    def flux_x(t, x):
        t = np.asarray(t, dtype=float)
        return -0.5 * t * base.u_x(t, x) - a(t, x) * base.u_xx(t, x)

    case = ManufacturedCase(
        name="variable-a",
        u=base.u,
        u_t=base.u_t,
        u_x=base.u_x,
        u_xx=base.u_xx,
        flux=flux,
        flux_x=flux_x,
    )
    coeff = CoefficientField(diffusion=a, convection=_constant(0.0), reaction=_constant(0.0))
    return case, coeff


def _incompatible_problem(form: ConvectionForm) -> ParabolicProblem:
    """Zero forcing with u0 = 1: the initial datum clashes with the lateral
    boundary condition, so the solution is singular at the bottom corners and
    exercises adaptive refinement.  No closed-form reference exists."""
    data = ProblemData(
        f1=_constant(0.0),
        f2=_constant(0.0),
        u0=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )
    return ParabolicProblem(coefficients=_unit_coefficients(), data=data, form=form)


BUILTIN_CASES = ("heat-smooth", "convection-reaction", "variable-a", "incompatible")


def make_problem(name: str, form: ConvectionForm = ConvectionForm.FLUX):
    """Built-in named problems.

    Returns ``(problem, case)`` where ``case`` is the manufactured solution
    or None for the estimator-only 'incompatible' run.
    """
    if name == "heat-smooth":
        case = _decaying_sine_case()
        return from_manufactured(case, _unit_coefficients(), form), case
    if name == "convection-reaction":
        case = _decaying_sine_case()
        coeff = CoefficientField(
            diffusion=_constant(1.0), convection=_constant(1.0), reaction=_constant(1.0)
        )
        return from_manufactured(case, coeff, form), case
    if name == "variable-a":
        case, coeff = _variable_a_case()
        return from_manufactured(case, coeff, form), case
    if name == "incompatible":
        return _incompatible_problem(form), None
    raise ValueError(f"unknown case {name!r}; available: {', '.join(BUILTIN_CASES)}")
