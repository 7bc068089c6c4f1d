import math

import numpy as np
import pytest

import wrap_oracle
from symcocycle import geometry
from symcocycle.errors import NumericalError, ValidationError
from symcocycle.exprlang import parse
from symcocycle.geometry import (
    GridSpec,
    ManifoldModel,
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
    # cubic interpolation needs a four-node stencil on every axis
    with pytest.raises(ValidationError, match="at least 4 nodes"):
        GridSpec(3, 5)


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
    with pytest.raises(ValidationError):
        ManifoldModel("torus", unit_square())


# ------------------------------------------------------------------
# the q-wrap against the np.mod oracle, bit for bit
# ------------------------------------------------------------------

CIRCUMFERENCES = (2 * math.pi, 1.0, 0.7)
Q_MINS = (-math.pi, -0.0)
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
            math.inf, -math.inf, math.nan, 1e300, -1e300)


def cyl_model(c, q0):
    return ManifoldModel("cylinder", Window(-1.0, 1.0, q0, q0 + c), c)


def same_bits(a, b):
    """Equal bit patterns, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    return bool(np.all((a.view(np.uint64) == b.view(np.uint64)) | both_nan))


def near_multiples(c):
    """Each j*c with |j| <= 12 and its 60 nearest floats on either side."""
    base = np.array([j * c for j in range(-12, 13)])
    rows, up, down = [base], base, base
    for _ in range(60):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        rows += [up, down]
    return np.concatenate(rows)


def hard_batch(c, q0, size, kind):
    """``size`` values: the near multiples as offsets from q_min and as
    values of q, then uniform draws over 13 periods.  ``kind`` "special"
    puts the specials first; "reach" keeps only values whose offset
    from q_min lies within ``exact_multiples(c)`` periods, draws
    included, and drops negative offsets so small that r/c underflows
    to -0.0, so that ``_floor_remainder`` can take the whole batch."""
    near = near_multiples(c)
    vals = np.concatenate([near + q0, near])
    periods = 13
    if kind == "special":
        vals = np.concatenate([np.array(SPECIALS), vals])
    elif kind == "reach":
        periods = min(periods, geometry.exact_multiples(c))
        r = vals - q0
        vals = vals[(np.abs(r) <= periods * c) & ~((-1e-300 < r) & (r < 0))]
    rng = np.random.default_rng(size)
    fill = rng.uniform(-periods * c, periods * c, max(0, size - vals.size)) + q0
    return np.concatenate([vals[:size], fill])


@pytest.fixture
def fast_calls(monkeypatch):
    return wrap_oracle.record_declines(monkeypatch)


def test_exact_multiples():
    assert geometry.exact_multiples(2 * math.pi) == 10
    assert geometry.exact_multiples(0.7) == 2
    assert geometry.exact_multiples(1.0) == 2**30
    # 2c overflows
    assert geometry.exact_multiples(1.5e308) == 1
    rng = np.random.default_rng(7)
    for c in [2 * math.pi, 0.7, 0.1, 3.0, 5e-324, 1e-300, *rng.uniform(0.01, 100, 50)]:
        c = float(c)
        num, den = c.as_integer_ratio()
        k = geometry.exact_multiples(c)
        # every multiple up to K is exact, the next is not (below the cap)
        for j in range(1, min(k, 64) + 1):
            a, b = (j * c).as_integer_ratio()
            assert a * den == j * num * b, (c, j)
        if k < 64:
            nxt = (k + 1) * c
            if math.isfinite(nxt):
                a, b = nxt.as_integer_ratio()
                assert a * den != (k + 1) * num * b, c


@pytest.mark.parametrize("c", CIRCUMFERENCES)
@pytest.mark.parametrize("q0", Q_MINS)
@pytest.mark.parametrize("size", [0, 1, 40, 11_041])
def test_wrap_q_matches_the_mod_oracle(c, q0, size, fast_calls):
    m = cyl_model(c, q0)
    for kind in ("special", "near", "reach"):
        q = hard_batch(c, q0, size, kind)
        # np.mod warns on infinities, in the oracle as in wrap_q
        with np.errstate(invalid="ignore"):
            assert same_bits(m.wrap_q(q), wrap_oracle.wrap_q(m, q))
            if size == 11_041:
                grid = q.reshape(61, 181)
                assert same_bits(m.wrap_q(grid), wrap_oracle.wrap_q(m, grid))
    if size == 11_041:
        # the batch within reach, flat and as a grid, took the fast path
        assert fast_calls[-2:] == [False, False]


@pytest.mark.parametrize("c", CIRCUMFERENCES)
@pytest.mark.parametrize("q0", Q_MINS)
def test_batch_wraps_as_each_point_alone(c, q0):
    m = cyl_model(c, q0)
    for kind in ("special", "near", "reach"):
        q = hard_batch(c, q0, 11_041, kind)
        with np.errstate(invalid="ignore"):
            alone = np.array([m.wrap_q(float(x)) for x in q])
            assert same_bits(m.wrap_q(q), alone)


def test_every_wrapped_q_lies_in_the_closed_period():
    m = cyl_model(2 * math.pi, -math.pi)
    out = m.wrap_q(hard_batch(2 * math.pi, -math.pi, 11_041, "reach"))
    assert np.all((-math.pi <= out) & (out <= -math.pi + 2 * math.pi))


@pytest.mark.parametrize("c", CIRCUMFERENCES)
def test_floor_remainder_takes_the_batches_it_can(c, fast_calls):
    m = cyl_model(c, -0.0)
    reach = geometry.exact_multiples(c)
    rng = np.random.default_rng(3)
    q = rng.uniform(-reach * c, reach * c, geometry.WRAP_FAST_MIN)
    m.wrap_q(q)
    m.wrap_q(q[:-1])  # below the crossover: np.mod, no call
    assert fast_calls == [False]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300, "beyond", -5e-324])
def test_floor_remainder_declines_what_it_cannot_prove(bad, fast_calls):
    # -5e-324 / c underflows to -0.0: a quotient past the true floor -1
    c = 2 * math.pi
    m = cyl_model(c, -0.0)
    q = np.linspace(-3.0, 3.0, geometry.WRAP_FAST_MIN)
    q[5] = (geometry.exact_multiples(c) + 1) * c if bad == "beyond" else bad
    with np.errstate(invalid="ignore"):
        assert same_bits(m.wrap_q(q), wrap_oracle.wrap_q(m, q))
    assert fast_calls == [True]


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


def test_primitive_not_finite_on_the_cylinder_is_rejected_as_such():
    # exp(800*sin(q)) overflows where sin(q) > 0.89: a numerical failure,
    # not a gap across one circumference
    m = cylinder(Window(-2, 2, 0, 2 * math.pi))
    with pytest.raises(NumericalError, match="component a_q overflowed: it is not "
                       "finite at 13 of 169 points") as caught:
        Primitive.custom("0", "p + exp(800*sin(q))").validate(m)
    assert "periodic" not in str(caught.value)


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


def test_quad_adaptive_depth_cap(monkeypatch):
    # a discontinuity stalls refinement at the jump
    monkeypatch.setattr(geometry, "QUAD_DEPTH_CAP", 8)
    step = lambda x: np.where(x < math.sqrt(0.5), 0.0, 1.0)
    with pytest.raises(QuadratureNonconvergence, match=r"\[0\.70703125, 0\.7109375\]"):
        quad_adaptive(step, 0.0, 1.0, tol=1e-15)


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
