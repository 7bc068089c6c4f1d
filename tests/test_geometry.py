import math

import numpy as np
import pytest

from symcocycle.errors import ValidationError
from symcocycle.exprlang import parse
from symcocycle.geometry import (
    GridSpec,
    Primitive,
    QuadratureNonconvergence,
    Window,
    cumulative_integral,
    cylinder,
    integrate_area,
    plane,
    quad_adaptive,
    simpson_weights,
)


def unit_square():
    return Window(0.0, 1.0, 0.0, 1.0)


# ------------------------------------------------------------------
# windows, grids, manifolds
# ------------------------------------------------------------------


def test_window_validation():
    with pytest.raises(ValidationError):
        Window(0, 0, 0, 1)
    with pytest.raises(ValidationError):
        Window(1, 0, 0, 1)
    with pytest.raises(ValidationError):
        Window(0, math.inf, 0, 1)


def test_window_queries():
    w = Window(-2, 2, -1, 3)
    assert w.p_span == 4 and w.q_span == 4
    assert w.contains(0, 0)
    assert not w.contains(2.5, 0)
    assert w.contains(2.5, 0, slack=1.0)
    inside = w.contains(np.array([0.0, 2.5, 2.0]), np.array([0.0, 0.0, 3.0]))
    assert inside.tolist() == [True, False, True]
    assert w.contains_window(Window(-1, 1, 0, 1))
    assert not w.contains_window(Window(-3, 1, 0, 1))


def test_gridspec():
    w = unit_square()
    spec = GridSpec(5, 7)
    P, Q = spec.mesh(w)
    assert P.shape == (5, 7)
    assert P[0, 0] == 0.0 and P[-1, 0] == 1.0
    assert Q[0, 0] == 0.0 and Q[0, -1] == 1.0
    with pytest.raises(ValidationError):
        GridSpec(2, 5)


def test_cylinder_window_must_span_circumference():
    cylinder(Window(-1, 1, 0, 2 * math.pi))  # fine
    with pytest.raises(ValidationError):
        cylinder(Window(-1, 1, 0, 6.0))
    cylinder(Window(-1, 1, 0, 6.0), circumference=6.0)  # fine with matching circ
    with pytest.raises(ValidationError):
        cylinder(Window(-1, 1, 0, 6.0), circumference=-6.0)


def test_wrap_q_and_wrap_delta():
    m = cylinder(Window(-1, 1, 0, 2 * math.pi))
    assert m.wrap_q(2 * math.pi + 0.25) == pytest.approx(0.25)
    assert m.wrap_q(-0.25) == pytest.approx(2 * math.pi - 0.25)
    assert m.wrap_delta(2 * math.pi + 0.1) == pytest.approx(0.1)
    assert m.wrap_delta(-3.5) == pytest.approx(-3.5 + 2 * math.pi)
    arr = m.wrap_delta(np.array([0.1, 6.0, -6.0]))
    assert arr[1] == pytest.approx(6.0 - 2 * math.pi)
    assert arr[2] == pytest.approx(2 * math.pi - 6.0)
    # plane passes values through untouched
    f = plane(unit_square())
    assert f.wrap_q(17.3) == 17.3
    assert f.wrap_delta(-9.9) == -9.9


def test_manifold_kind_validation():
    from symcocycle.geometry import ManifoldModel

    with pytest.raises(ValidationError):
        ManifoldModel("torus", unit_square())


# ------------------------------------------------------------------
# primitives
# ------------------------------------------------------------------


def test_builtin_primitives_valid_on_plane():
    m = plane(Window(-3, 3, -3, 3))
    for prim in (Primitive.p_dq(), Primitive.minus_q_dp(), Primitive.symmetric()):
        prim.validate(m)


def test_cylinder_rejects_nonperiodic_primitives():
    m = cylinder(Window(-2, 2, 0, 2 * math.pi))
    Primitive.p_dq().validate(m)
    with pytest.raises(ValidationError):
        Primitive.minus_q_dp().validate(m)
    with pytest.raises(ValidationError):
        Primitive.symmetric().validate(m)


def test_custom_primitive():
    m = cylinder(Window(-2, 2, 0, 2 * math.pi))
    Primitive.custom("0.3*sin(q)", "p*(1 + 0.3*cos(q))").validate(m)
    with pytest.raises(ValidationError):
        # curl is 2, not 1
        Primitive.custom("0", "2*p").validate(m)
    with pytest.raises(ValidationError):
        Primitive.custom("t*p", "p")


def test_named_primitive_lookup():
    assert Primitive.named("p_dq").name == "p_dq"
    with pytest.raises(ValidationError):
        Primitive.named("does_not_exist")


# ------------------------------------------------------------------
# area integrals
# ------------------------------------------------------------------


def test_area_of_unit_square():
    assert integrate_area(parse("1"), unit_square(), tol=1e-12) == pytest.approx(
        1.0, abs=1e-11
    )
    assert integrate_area(parse("0"), unit_square(), tol=1e-12) == 0.0


def test_gaussian_area_matches_1d_oracle():
    from scipy.integrate import quad as scipy_quad

    w = Window(-6, 6, -6, 6)
    # note the parentheses: the grammar reads -p^2 as (-p)^2
    got = integrate_area(parse("exp(-(p^2 + q^2))"), w, tol=1e-9)

    one_d, err = scipy_quad(lambda x: math.exp(-x * x), -6, 6, epsabs=1e-13)
    assert err < 1e-10  # quadpack's estimate is conservative
    oracle = one_d * one_d

    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(math.pi, abs=1e-9)


def test_area_accepts_plain_callables():
    got = integrate_area(lambda p, q: p * q, unit_square(), tol=1e-11)
    assert got == pytest.approx(0.25, abs=1e-10)


# ------------------------------------------------------------------
# quadrature utilities
# ------------------------------------------------------------------


def test_quad_adaptive_smooth():
    got = quad_adaptive(np.sin, 0.0, math.pi, tol=1e-12)
    assert got == pytest.approx(2.0, abs=1e-11)


def test_quad_adaptive_kink():
    # |x - 1/3| has a kink off every panel midpoint; adaptivity must dig in
    got = quad_adaptive(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-12)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert got == pytest.approx(exact, abs=1e-10)


def test_quad_adaptive_depth_cap():
    # a discontinuity stalls refinement at the jump
    step = lambda x: np.where(x < math.sqrt(0.5), 0.0, 1.0)
    with pytest.raises(QuadratureNonconvergence):
        quad_adaptive(step, 0.0, 1.0, tol=1e-15, depth_cap=8)


def test_quad_adaptive_rejects_bad_tol():
    with pytest.raises(ValidationError):
        quad_adaptive(np.sin, 0, 1, tol=0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 10, 11, 100, 101])
def test_simpson_weights_integrate_cubics(n):
    span = 1.7
    d = span / (n - 1)
    x = np.linspace(0.0, span, n)
    w = simpson_weights(n, d)
    assert np.sum(w) == pytest.approx(span, abs=1e-13)
    for k in (0, 1, 2):
        got = float(np.dot(w, x**k))
        assert got == pytest.approx(span ** (k + 1) / (k + 1), abs=1e-12)
    got3 = float(np.dot(w, x**3))
    assert got3 == pytest.approx(span**4 / 4, abs=d**4)


def test_simpson_weights_on_sine():
    n = 201
    d = math.pi / (n - 1)
    x = np.linspace(0, math.pi, n)
    got = float(np.dot(simpson_weights(n, d), np.sin(x)))
    assert got == pytest.approx(2.0, abs=1e-9)


def test_cumulative_integral_exact_on_quadratics():
    x = np.linspace(0.0, 2.0, 17)
    got = cumulative_integral(x**2, x[1] - x[0])
    assert np.max(np.abs(got - x**3 / 3)) < 1e-14


def test_cumulative_integral_fourth_order():
    errs = []
    for n in (21, 41, 81):
        x = np.linspace(0.0, 1.0, n)
        got = cumulative_integral(np.exp(x), x[1] - x[0])
        errs.append(np.max(np.abs(got - (np.exp(x) - 1.0))))
    assert errs[0] / errs[1] > 12
    assert errs[1] / errs[2] > 12


def test_cumulative_integral_axis():
    x = np.linspace(0.0, 1.0, 21)
    block = np.stack([np.sin(x), np.cos(x)])
    along_last = cumulative_integral(block, x[1] - x[0], axis=-1)
    assert along_last.shape == block.shape
    assert np.allclose(along_last[0], cumulative_integral(np.sin(x), x[1] - x[0]))
    transposed = cumulative_integral(block.T, x[1] - x[0], axis=0)
    assert np.allclose(transposed, along_last.T)
