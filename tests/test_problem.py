import math

import numpy as np
import pytest
import sympy as sp

from stfosls.assembly import assemble
from stfosls.estimator import compute_indicators
from stfosls.mesh import uniform_initial_mesh
from stfosls.problem import BUILTIN_CASES, ParabolicProblem, _parabolic_case, make_problem
from stfosls.oracles import data_vector
from stfosls.spaces import build_dofmap
from stfosls.system import ConvectionForm, parabolic_system, poisson_sine_case


def _constant(v):
    return lambda t, x: np.full_like(np.asarray(t, dtype=float), v)


def _number(v):
    return lambda t, x: v


def _symbolic_source(u_expr, a_expr, b_expr, c_expr):
    """Strong-form source u_t - (A u_x)_x + b u_x + c u via symbolic differentiation."""
    t, x = sp.symbols("t x")
    f1 = (
        sp.diff(u_expr, t)
        - sp.diff(a_expr * sp.diff(u_expr, x), x)
        + b_expr * sp.diff(u_expr, x)
        + c_expr * u_expr
    )
    return sp.lambdify((t, x), sp.simplify(f1), "numpy")


def test_data_vector_zero_f2():
    problem, _ = make_problem("heat-smooth")
    target_flux, target_div, target_init = data_vector(problem)
    t = np.array([0.1, 0.7])
    x = np.array([0.3, 0.9])
    assert np.all(target_flux(t, x) == 0.0)
    assert np.allclose(target_div(t, x), problem.f1(t, x), atol=0.0)
    assert np.allclose(target_init(x), np.sin(np.pi * x), atol=1e-15)


def test_data_vector_flux_correction():
    # A = 1, b = 1, f2 = 1, f1 = 0: the flux form's divergence target is
    # 0 - 1*1*1 = -1, the gradient form's is f1 = 0
    problem = ParabolicProblem(_constant(1.0), _constant(1.0), _constant(0.0), f1=_constant(0.0),
                               f2=_constant(1.0), u0=lambda x: 0.0 * x)
    t, x = np.array([0.2]), np.array([0.4])
    _, target_div, _ = data_vector(problem, ConvectionForm.FLUX)
    assert np.allclose(target_div(t, x), -1.0, atol=0.0)
    _, target_div, _ = data_vector(problem, ConvectionForm.GRADIENT)
    assert np.allclose(target_div(t, x), 0.0, atol=0.0)


@pytest.mark.parametrize(
    "name,a_expr,b_expr,c_expr",
    [
        ("heat-smooth", 1, 0, 0),
        ("convection-reaction", 1, 1, 1),
        ("variable-a", None, 0, 0),
    ],
)
def test_manufactured_source_against_symbolic_oracle(name, a_expr, b_expr, c_expr):
    t, x = sp.symbols("t x")
    u_expr = sp.exp(-t) * sp.sin(sp.pi * x)
    if a_expr is None:
        a_expr = 1 + t * x / 2
    oracle = _symbolic_source(u_expr, sp.sympify(a_expr), sp.sympify(b_expr), sp.sympify(c_expr))

    problem, _ = make_problem(name)
    rng = np.random.default_rng(0)
    tt = rng.random(200)
    xx = rng.random(200)
    assert np.allclose(problem.f1(tt, xx), oracle(tt, xx), atol=1e-12)


def test_heat_source_closed_form():
    problem, _ = make_problem("heat-smooth")
    tt = np.array([0.0, 0.5])
    xx = np.array([0.25, 0.75])
    expected = (np.pi**2 - 1.0) * np.exp(-tt) * np.sin(np.pi * xx)
    assert np.allclose(problem.f1(tt, xx), expected, atol=1e-14)


def _zero_case():
    return _parabolic_case(_number(1.0), _number(0.0), _number(0.0), *[_number(0.0)] * 5)


def test_zero_case():
    """All-zero closed forms give zero data."""
    problem, _ = _zero_case()
    tt = np.linspace(0, 1, 5)
    assert np.all(problem.f1(tt, tt) == 0.0)
    assert np.all(problem.u0(tt) == 0.0)


def test_exact_fields_zero_case():
    """All-zero closed forms give zero exact fields for the error norms, and
    the gradient and flux still stack their components on the points."""
    _, exact = _zero_case()
    tt = np.linspace(0, 1, 5)
    assert exact.u1(0.3, 0.4) == 0.0
    assert exact.div(0.3, 0.4) == 0.0
    assert np.all(exact.u1_grad(0.3, 0.4) == 0.0) and np.shape(exact.u1_grad(0.3, 0.4)) == (2,)
    assert np.all(exact.u1_grad(tt, tt) == 0.0) and exact.u1_grad(tt, tt).shape == (2, 5)
    assert np.all(exact.u2(tt, tt) == 0.0) and exact.u2(tt, tt).shape == (1, 5)


def test_exact_fields_reference_flux():
    problem, exact = make_problem("heat-smooth")
    # flux reference at (0.5, 0.5): -pi e^{-1/2} cos(pi/2) = 0
    assert exact.u2(0.5, 0.5)[0] == pytest.approx(0.0, abs=1e-15)
    # divergence identity: with b = c = 0 and f2 = 0 the space-time divergence
    # of the exact pair equals the source
    rng = np.random.default_rng(1)
    tt, xx = rng.random(100), rng.random(100)
    assert np.allclose(exact.div(tt, xx), problem.f1(tt, xx), atol=1e-12)


@pytest.mark.parametrize("name", ["heat-smooth", "convection-reaction", "variable-a"])
def test_exact_fields_against_symbolic_oracle(name):
    """u1_grad = (du/dt, du/dx), u2 = -A du/dx and div = du/dt + du2/dx,
    each differentiated symbolically."""
    t, x = sp.symbols("t x")
    u = sp.exp(-t) * sp.sin(sp.pi * x)
    a = 1 + t * x / 2 if name == "variable-a" else sp.Integer(1)
    flux = -a * sp.diff(u, x)
    oracle = [sp.lambdify((t, x), expr, "numpy")
              for expr in (u, sp.diff(u, t), sp.diff(u, x), flux, sp.diff(u, t) + sp.diff(flux, x))]

    _, exact = make_problem(name)
    rng = np.random.default_rng(5)
    tt, xx = rng.random(200), rng.random(200)
    got = np.column_stack([exact.u1(tt, xx), *exact.u1_grad(tt, xx), *exact.u2(tt, xx), exact.div(tt, xx)])
    want = np.column_stack([f(tt, xx) for f in oracle])
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["heat-smooth", "convection-reaction", "variable-a"])
def test_strong_form_residual_vanishes(name):
    """f1 - (u_t - (A u_x)_x + b u_x + c u) = 0 at 1000 random points."""
    problem, exact = make_problem(name)
    rng = np.random.default_rng(42)
    t = rng.random(1000)
    x = rng.random(1000)
    lhs = (
        exact.div(t, x)
        + problem.convection(t, x) * exact.u1_grad(t, x)[1]
        + problem.reaction(t, x) * exact.u1(t, x)
    )
    assert np.abs(problem.f1(t, x) - lhs).max() <= 1e-12


def _exact_cases():
    """(n_flux, exact) of every built-in case with a closed-form solution."""
    for name in BUILTIN_CASES:
        problem, exact = make_problem(name)
        if exact is not None:
            yield parabolic_system(problem).n_flux, exact
    system, exact = poisson_sine_case()
    yield system.n_flux, exact


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_exact_fields_components_first(shape):
    """Exact gradients and fluxes carry their component axis first, like the
    discrete fields they are compared to."""
    rng = np.random.default_rng(6)
    t, x = rng.random(shape), rng.random(shape)
    for n_flux, exact in _exact_cases():
        assert np.shape(exact.u1_grad(t, x)) == (2,) + shape
        assert np.shape(exact.u2(t, x)) == (n_flux,) + shape


def test_variable_a_flux_consistency():
    """The exact flux is -A du/dx with the problem's own diffusion A."""
    problem, exact = make_problem("variable-a")
    rng = np.random.default_rng(2)
    tt, xx = rng.random(100), rng.random(100)
    a = problem.diffusion(tt, xx)
    assert np.allclose(exact.u2(tt, xx)[0], -a * exact.u1_grad(tt, xx)[1], rtol=0.0, atol=1e-13)


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        make_problem("no-such-case")


def test_coefficient_positivity_on_samples():
    for name in ("heat-smooth", "convection-reaction", "variable-a", "incompatible"):
        problem, _ = make_problem(name)
        rng = np.random.default_rng(4)
        t, x = rng.random(500), rng.random(500)
        a = problem.diffusion(t, x)
        assert np.all(a > 0)
        assert np.all(np.isfinite(problem.f1(t, x)))


def _constant_level(constant, p, form):
    """The matrix arrays and load of the level of a problem whose fields are
    the constants that ``constant`` builds, and the indicators of fixed
    random coefficients on it."""
    values = dict(diffusion=1.5, convection=0.7, reaction=-0.4, f1=2.0, f2=0.3)
    problem = ParabolicProblem(**{k: constant(v) for k, v in values.items()},
                               u0=lambda x: constant(0.5)(x, x))
    system = parabolic_system(problem, form)
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 3)
    level = assemble(mesh, build_dofmap(mesh, p, system), system)
    coeffs = np.random.default_rng(3).standard_normal(level.rhs.size)
    eta = compute_indicators(mesh, coeffs, system, level).per_element
    return level.matrix.data, level.matrix.indices, level.matrix.indptr, level.rhs, eta


@pytest.mark.parametrize("form", list(ConvectionForm), ids=lambda form: form.value)
@pytest.mark.parametrize("p", [1, 2])
def test_number_fields_assemble_like_array_fields(p, form):
    """A field may return a number that broadcasts against its points: the
    level and its indicators are, bit for bit, those of the same problem
    whose constants return arrays."""
    for got, want in zip(_constant_level(_number, p, form), _constant_level(_constant, p, form)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("where", ["diffusion", "f1", "u0"])
def test_scalar_only_field_raises_its_own_error(where):
    """A field that cannot take arrays fails from assemble with its own
    error; there is no per-point fallback."""
    fields = dict(diffusion=_number(1.0), convection=_number(0.0), reaction=_number(0.0),
                  f1=_number(0.0), f2=_number(0.0), u0=lambda x: 0.0)
    fields[where] = (lambda x: math.sin(x)) if where == "u0" else (lambda t, x: 1.0 + math.exp(t))
    system = parabolic_system(ParabolicProblem(**fields))
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    with pytest.raises(TypeError, match="scalar"):
        assemble(mesh, build_dofmap(mesh, 1, system), system)
