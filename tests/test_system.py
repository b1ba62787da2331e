import numpy as np
import pytest
import sympy as sp

from stfosls.problem import ParabolicProblem, make_problem
from stfosls.oracles import eval_G, eval_data, eval_data_initial
from stfosls.system import (
    ConvectionForm,
    parabolic_system,
    PoissonSystem,
    poisson_sine_case,
)
from helpers import split_forcing_case


def _constant(v):
    return lambda t, x: np.full_like(np.asarray(t, dtype=float), v)


def _number(v):
    return lambda t, x: v


def _problem(a, b, c, constant=_constant):
    return ParabolicProblem(constant(a), constant(b), constant(c), f1=constant(0.0),
                            f2=constant(0.0), u0=lambda x: 0.0 * x)


def test_eval_g_time_linear_field():
    system = parabolic_system(_problem(1.0, 0.0, 0.0))
    img = eval_G(system, (0.4, 0.6), u1_val=0.4, u1_grad=(1.0, 0.0), u2_val=0.0, u2_grad=(0.0, 0.0))
    assert img.flux[0] == 0.0
    assert img.div == 1.0
    assert img.initial == pytest.approx(0.4)


def test_eval_g_space_linear_flux():
    system = parabolic_system(_problem(1.0, 0.0, 0.0))
    img = eval_G(system, (0.2, 0.7), u1_val=0.0, u1_grad=(0.0, 0.0), u2_val=0.7, u2_grad=(0.0, 1.0))
    assert img.flux[0] == pytest.approx(0.7)
    assert img.div == 1.0


def test_eval_g_flux_form_arithmetic():
    # A=2, b=4, c=1: u1=1 (zero gradient), u2=2 gives
    # flux residual 2, divergence residual 0 - 4*(1/2)*2 + 1 = -3
    system = parabolic_system(_problem(2.0, 4.0, 1.0), ConvectionForm.FLUX)
    img = eval_G(system, (0.5, 0.5), 1.0, (0.0, 0.0), 2.0, (0.0, 0.0))
    assert img.flux[0] == pytest.approx(2.0)
    assert img.div == pytest.approx(-3.0)


def test_eval_g_linearity():
    rng = np.random.default_rng(0)
    system = parabolic_system(_problem(1.7, -0.8, 2.1), ConvectionForm.FLUX)
    for _ in range(100):
        point = rng.random(2)
        a = rng.standard_normal()
        u = rng.standard_normal(6)  # (u1, u1_t, u1_x, u2, u2_t, u2_x)
        v = rng.standard_normal(6)
        iu = eval_G(system, point, u[0], u[1:3], u[3], u[4:6])
        iv = eval_G(system, point, v[0], v[1:3], v[3], v[4:6])
        w = a * u + v
        iw = eval_G(system, point, w[0], w[1:3], w[3], w[4:6])
        assert abs(iw.div - (a * iu.div + iv.div)) <= 1e-14 * max(1.0, abs(iw.div))
        assert np.all(np.abs(iw.flux - (a * iu.flux + iv.flux)) <= 1e-13)
        assert abs(iw.initial - (a * iu.initial + iv.initial)) <= 1e-14 * max(1.0, abs(iw.initial))


def test_forms_agree_on_exact_flux_relation():
    """With u2 = -A du1/dx the two convection forms coincide pointwise."""
    rng = np.random.default_rng(1)
    flux_sys = parabolic_system(_problem(1.3, 0.7, -0.4), ConvectionForm.FLUX)
    grad_sys = parabolic_system(_problem(1.3, 0.7, -0.4), ConvectionForm.GRADIENT)
    for _ in range(100):
        point = rng.random(2)
        u1 = rng.standard_normal()
        u1_grad = rng.standard_normal(2)
        u2 = -1.3 * u1_grad[1]
        u2_grad = rng.standard_normal(2)
        a = eval_G(flux_sys, point, u1, u1_grad, u2, u2_grad)
        b = eval_G(grad_sys, point, u1, u1_grad, u2, u2_grad)
        assert abs(a.div - b.div) <= 1e-13 * max(1.0, abs(a.div))
        assert np.allclose(a.flux, b.flux, atol=0.0)


@pytest.mark.parametrize("name", ["heat-smooth", "convection-reaction", "variable-a", "split-forcing"])
@pytest.mark.parametrize("form", [ConvectionForm.FLUX, ConvectionForm.GRADIENT])
def test_exact_fields_satisfy_system(name, form):
    """Inserting the manufactured fields into G reproduces the data vector,
    also with b != 0 and f2 != 0, where the two forms' targets differ."""
    problem, exact = split_forcing_case() if name == "split-forcing" else make_problem(name)
    system = parabolic_system(problem, form)
    rng = np.random.default_rng(2)
    for _ in range(50):
        t, x = rng.random(2)
        u1 = float(exact.u1(t, x))
        grad = np.asarray(exact.u1_grad(t, x), dtype=float)
        u2 = float(exact.u2(t, x)[0])
        # flux gradient: d/dt and d/dx of -A du/dx; only d/dx enters G, and it
        # is the divergence less u_t
        u2_grad = np.array([0.0, float(exact.div(t, x) - grad[0])])
        img = eval_G(system, (t, x), u1, grad, u2, u2_grad)
        target = eval_data(system, (t, x))
        assert np.all(np.abs(np.concatenate([img.flux, [img.div]]) - target) <= 1e-11)
    xs = rng.random(20)
    for xv in xs:
        assert abs(float(exact.u1(0.0, xv)) - eval_data_initial(system, xv)) <= 1e-13


def test_poisson_zero_fields():
    system = PoissonSystem(lambda x1, x2: np.zeros_like(np.asarray(x1, dtype=float)))
    img = eval_G(system, (0.3, 0.4), 0.0, (0.0, 0.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    assert np.all(img.flux == 0.0)
    assert img.div == 0.0
    assert img.initial is None


def test_poisson_flux_cancellation():
    system = PoissonSystem(lambda x1, x2: np.zeros_like(np.asarray(x1, dtype=float)))
    img = eval_G(system, (0.3, 0.4), 0.0, (1.0, 0.0), (-1.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    assert np.allclose(img.flux, 0.0, atol=0.0)


def test_poisson_sine_case_satisfies_system():
    t_sym, x_sym = sp.symbols("x1 x2")
    u_expr = sp.sin(sp.pi * t_sym) * sp.sin(sp.pi * x_sym)
    f_oracle = sp.lambdify((t_sym, x_sym), -sp.diff(u_expr, t_sym, 2) - sp.diff(u_expr, x_sym, 2), "numpy")

    system, exact = poisson_sine_case()
    rng = np.random.default_rng(3)
    pts = rng.random((50, 2))
    for x1, x2 in pts:
        grad = np.asarray(exact.u1_grad(x1, x2), dtype=float)
        sigma = np.asarray(exact.u2(x1, x2), dtype=float)
        # sigma = -grad(u), div(sigma) = f
        assert np.allclose(sigma, -grad, atol=1e-14)
        assert float(exact.div(x1, x2)) == pytest.approx(float(f_oracle(x1, x2)), rel=1e-12)
        assert float(exact.div(x1, x2)) == pytest.approx(
            2 * np.pi**2 * np.sin(np.pi * x1) * np.sin(np.pi * x2), rel=1e-12
        )


def test_poisson_dirichlet_covers_whole_boundary():
    from stfosls.mesh import FacetTag

    system, _ = poisson_sine_case()
    assert system.dirichlet_tags == frozenset(
        {FacetTag.LATERAL_DIRICHLET, FacetTag.INITIAL, FacetTag.FINAL}
    )
    assert not system.has_initial_trace
    assert system.n_flux == 2


def test_data_initial_rejected_for_poisson():
    system, _ = poisson_sine_case()
    with pytest.raises(RuntimeError):
        system.data_initial(0.5)


def _run_two_levels(problem):
    from stfosls.driver import StopCriteria, run
    from stfosls.mesh import uniform_initial_mesh

    return run(parabolic_system(problem), uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), 1, StopCriteria(max_iterations=1))


@pytest.mark.parametrize("diffusion,constant", [
    *(pytest.param(v, _constant, id=str(v)) for v in (-1.0, 0.0, np.nan)),
    *(pytest.param(v, _number, id=f"number-{v}") for v in (-1.0, 0.0, np.nan)),
])
def test_nonpositive_diffusion_rejected(diffusion, constant):
    """A diffusion that is not positive (NaN included) is rejected by name
    before any solve, instead of being solved as if it defined a problem.
    A constant that returns a number is reported at a point too."""
    from stfosls import InvalidDataError

    assert issubclass(InvalidDataError, ValueError)
    problem = _problem(diffusion, 0.0, 0.0, constant)
    point = r"at \(t, x\) = \(\d[\d.e-]*, \d[\d.e-]*\)$"
    with pytest.raises(InvalidDataError, match="diffusion A is not positive " + point):
        _run_two_levels(problem)


@pytest.mark.parametrize("where", ["f1", "f2", "u0"])
def test_non_finite_data_rejected(where):
    """NaN or infinite data on part of the domain is rejected by name,
    not left to stall the solver."""
    from stfosls import InvalidDataError

    half_nan = lambda t, x: np.where(np.asarray(x) > 0.5, np.nan, 1.0)  # noqa: E731
    data = {"f1": _constant(1.0), "f2": _constant(0.0), "u0": lambda x: np.sin(np.pi * x)}
    data[where] = half_nan if where != "u0" else (lambda x: np.where(np.asarray(x) > 0.5, np.inf, 0.0))
    problem = ParabolicProblem(_constant(1.0), _constant(0.0), _constant(0.0), **data)
    quantity = "initial datum" if where == "u0" else "interior data"
    with pytest.raises(InvalidDataError, match=f"weighted {quantity} is not finite at"):
        _run_two_levels(problem)
