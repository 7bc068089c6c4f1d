import math

import numpy as np
import pytest

from symcocycle.errors import ValidationError
from symcocycle.exprlang import parse
from symcocycle.geometry import GridSpec, Primitive, Window, cylinder, plane
from symcocycle.dynamics import (
    FlowMap,
    HamiltonianSpec,
    IdentityMap,
    TwistMap,
)
from symcocycle.cocycle import (
    GridFunction,
    GridTooCoarse,
    NonExactForm,
    Normalization,
    NotConstantOutsideSupport,
    cocycle_by_action,
    cocycle_by_path,
    hamiltonian_test,
    normalize_compact,
    pullback_difference,
)

PLANE4 = plane(Window(-4, 4, -4, 4))
CYL = cylinder(Window(-2, 2, 0, 2 * math.pi))
PDQ = Primitive.p_dq()

# widths are deliberately mild: the path route integrates over the grid, so
# fourth derivatives of the flow control its truncation error
BUMP = "0.2*exp(-0.6*(p^2 + q^2))"
BUMP_OFF = "0.15*exp(-0.8*((p - 0.4)^2 + (q + 0.3)^2))"


def bump_flow(expr=BUMP, duration=1.0, step=5e-3, manifold=PLANE4):
    return FlowMap(HamiltonianSpec(parse(expr), duration), manifold, step=step)


# ------------------------------------------------------------------
# GridFunction basics
# ------------------------------------------------------------------


def _lin_grid():
    w = Window(0, 1, 0, 2)
    P, Q = GridSpec(11, 21).mesh(w)
    return GridFunction(
        plane(w), 2.0 * P - 3.0 * Q + 0.5, Normalization.mod_constants()
    )


def test_cubic_reproduces_linear_data():
    g = _lin_grid()
    assert g.evaluate_cubic(0.37, 1.21) == pytest.approx(
        2 * 0.37 - 3 * 1.21 + 0.5, abs=1e-13
    )
    pts_p = np.array([0.1, 0.52, 0.9])
    pts_q = np.array([0.0, 1.99, 0.5])
    np.testing.assert_allclose(
        g.evaluate_cubic(pts_p, pts_q), 2 * pts_p - 3 * pts_q + 0.5, atol=1e-13
    )


def test_evaluation_clamps_to_window_edge():
    g = _lin_grid()
    assert g.evaluate_cubic(2.0, 1.0) == g.evaluate_cubic(1.0, 1.0)
    assert g.evaluate_cubic(-5.0, 0.4) == pytest.approx(
        g.evaluate_cubic(0.0, 0.4), abs=1e-13
    )


def test_cubic_reproduces_cubics():
    w = Window(-1, 1, -1, 1)
    P, Q = GridSpec(15, 15).mesh(w)
    vals = P**3 - 2.0 * P * Q**2 + Q**3
    g = GridFunction(plane(w), vals, Normalization.mod_constants())
    for p, q in [(0.33, -0.71), (-0.99, 0.02), (0.5, 0.5)]:
        want = p**3 - 2 * p * q**2 + q**3
        assert g.evaluate_cubic(p, q) == pytest.approx(want, abs=1e-12)


def test_cylinder_evaluation_wraps_q():
    w = CYL.window
    P, Q = GridSpec(9, 33).mesh(w)
    vals = np.sin(Q) * np.exp(P)
    g = GridFunction(CYL, vals, Normalization.mod_constants())
    assert g.evaluate_cubic(0.5, 1.0 + 2 * math.pi) == pytest.approx(
        g.evaluate_cubic(0.5, 1.0), abs=1e-12
    )
    assert g.evaluate_cubic(0.5, 1.0 - 2 * math.pi) == pytest.approx(
        g.evaluate_cubic(0.5, 1.0), abs=1e-12
    )


def test_gridfunction_arithmetic_and_osc():
    g = _lin_grid()
    d = g - g
    assert d.oscillation() == 0.0
    assert d.normalization.kind == "mod_constants"
    h = 2.0 * g + 1.0
    assert h.evaluate_cubic(0.5, 1.0) == pytest.approx(
        2 * g.evaluate_cubic(0.5, 1.0) + 1
    )
    assert g.equal_mod_constants(g + 17.0)
    assert not g.equal_mod_constants(2.0 * g, tol=1e-4)
    other = GridFunction(
        plane(Window(0, 1, 0, 1)),
        np.zeros((5, 5)),
        Normalization.mod_constants(),
    )
    with pytest.raises(ValidationError):
        g + other


def test_gridfunction_integral():
    w = Window(0, 1, 0, 1)
    P, Q = GridSpec(41, 41).mesh(w)
    g = GridFunction(plane(w), P * Q, Normalization.mod_constants())
    assert g.integral() == pytest.approx(0.25, abs=1e-10)


def test_fd_gradient_on_smooth_samples():
    w = Window(-2, 2, -2, 2)
    P, Q = GridSpec(81, 81).mesh(w)
    g = GridFunction(
        plane(w), np.sin(P) * np.cos(Q), Normalization.mod_constants()
    )
    gp, gq = g.fd_gradient()
    want_p = np.cos(P) * np.cos(Q)
    want_q = -np.sin(P) * np.sin(Q)
    assert np.max(np.abs(gp - want_p)[2:-2, 2:-2]) < 1e-6
    assert np.max(np.abs(gq - want_q)[2:-2, 2:-2]) < 1e-6


def test_gridfunction_validation():
    w = Window(0, 1, 0, 1)
    with pytest.raises(ValidationError):
        GridFunction(plane(w), np.zeros((2, 5)), Normalization.mod_constants())
    bad = np.zeros((5, 5))
    bad[2, 2] = math.nan
    with pytest.raises(ValidationError):
        GridFunction(plane(w), bad, Normalization.mod_constants())


# ------------------------------------------------------------------
# path route against closed forms
# ------------------------------------------------------------------


def test_identity_gives_zero():
    K = cocycle_by_path(IdentityMap(PLANE4), PDQ, grid=GridSpec(21, 21))
    assert np.max(np.abs(K.samples)) < 1e-9
    assert K.normalization.kind == "pinned"


def test_off_node_basepoint_is_pinned_exactly():
    bp = (0.2, -0.3)  # between the nodes, 2/15 apart
    K = cocycle_by_path(bump_flow(), PDQ, basepoint=bp, grid=GridSpec(61, 61))
    assert K.normalization.basepoint == bp
    assert abs(K.evaluate_cubic(*bp)) < 1e-12
    assert np.max(np.abs(K.samples)) > 1e-3


def test_momentum_flow_gives_zero():
    f = FlowMap(HamiltonianSpec(parse("p")), PLANE4, step=2e-3)
    K = cocycle_by_path(f, PDQ, grid=GridSpec(21, 21))
    assert np.max(np.abs(K.samples)) < 1e-8


def test_plane_p_translation_gives_linear_cocycle():
    # f = (p + c, q): the defect is c dq, so K = c (q - q0)
    c = 0.6
    f = FlowMap(HamiltonianSpec(parse(f"{c}*q")), PLANE4, step=2e-3)
    K = cocycle_by_path(f, PDQ, grid=GridSpec(21, 21))
    P, Q = GridSpec(21, 21).mesh(PLANE4.window)
    want = c * (Q - 0.0)
    assert np.max(np.abs(K.samples - want)) < 1e-8


SINE_PROFILE = "pi*(1 + sin(pi*min(1, max(-1, p))/2))"


def sine_twist_cocycle_exact(p):
    # integral of t'(s) s ds from 0 to p for the clamped sine profile
    ph = np.clip(p, -1.0, 1.0)
    u = math.pi * ph / 2
    return 2.0 * (u * np.sin(u) + np.cos(u) - 1.0)


def test_twist_cocycle_matches_quadrature_formula():
    # the profile has corners at p = +-1, so the row quadrature is only
    # second order there; a fine p-grid keeps that localized error small
    mani = plane(Window(-2, 2, -1, 1))
    tw = TwistMap(parse(SINE_PROFILE), mani)
    grid = GridSpec(641, 5)
    K = cocycle_by_path(tw, PDQ, basepoint=(0.0, 0.0), grid=grid)
    P, _ = grid.mesh(mani.window)
    want = sine_twist_cocycle_exact(P)
    assert np.max(np.abs(K.samples - want)) < 5e-5
    # independent of q entirely
    assert np.max(np.abs(K.samples - K.samples[:, :1])) < 1e-10
    # the corner errors are symmetric and cancel in the boundary difference
    diff = K.samples[-1, 0] - K.samples[0, 0]
    assert diff == pytest.approx(0.0, abs=1e-9)


def rotation_cocycle_exact(P, Q, T):
    return 0.5 * math.sin(T) * math.cos(T) * (Q**2 - P**2) - (
        math.sin(T) ** 2
    ) * P * Q


def test_rotation_cocycle_closed_form():
    T = 0.7
    mani = plane(Window(-2, 2, -2, 2))
    f = FlowMap(HamiltonianSpec(parse("(p^2 + q^2)/2"), duration=T), mani)
    K = cocycle_by_path(f, PDQ, basepoint=(0.0, 0.0), grid=GridSpec(41, 41))
    P, Q = GridSpec(41, 41).mesh(mani.window)
    assert np.max(np.abs(K.samples - rotation_cocycle_exact(P, Q, T))) < 1e-8


def test_gradient_matches_defect_form():
    T = 0.7
    mani = plane(Window(-2, 2, -2, 2))
    f = FlowMap(HamiltonianSpec(parse("(p^2 + q^2)/2"), duration=T), mani)
    grid = GridSpec(41, 41)
    K = cocycle_by_path(f, PDQ, grid=grid)
    _, _, tp, tq = pullback_difference(f, PDQ, grid=grid)
    gp, gq = K.fd_gradient()
    assert np.max(np.abs(gp - tp)[2:-2, 2:-2]) < 1e-8
    assert np.max(np.abs(gq - tq)[2:-2, 2:-2]) < 1e-8


class Doubler:
    """(p, q) -> (2p, q): not area preserving.  It has no isotopy data, so
    it carries its tangent itself, as a lifted map does."""

    manifold = PLANE4

    def apply(self, p, q):
        return 2.0 * np.asarray(p, float), np.asarray(q, float)

    def carry(self, p, q, tangent):
        dP, dQ = tangent
        return 2.0 * p, q, (2.0 * dP, dQ)


def test_nonexact_form_detected_for_nonsymplectic_map():
    # the defect p dq of the doubler has curl 1: the two path families
    # differ by rectangle areas, which no grid refinement removes
    with pytest.raises(NonExactForm, match="every other node"):
        cocycle_by_path(Doubler(), (parse("0"), parse("p")), grid=GridSpec(21, 21))


def test_truncation_disagreement_names_the_grid_needed():
    # the hinge bump is only C^3 across its rim, so at 41x41 the two path
    # families disagree by quadrature truncation, about 7.4 times less
    # than on the grid of every other node (order 2.9)
    hinge = bump_flow("0.1*max(0, 1 - ((p + 2)^2 + q^2)/2.25)^4", step=0.05)
    with pytest.raises(GridTooCoarse, match="order 2.9") as err:
        cocycle_by_path(hinge, PDQ, basepoint=(0.0, 0.0), grid=GridSpec(41, 41))
    n_p, n_q = err.value.needed
    assert n_p == n_q and 41 < n_p < 41 * 8
    # the grid the estimate names does resolve it
    K = cocycle_by_path(hinge, PDQ, basepoint=(0.0, 0.0), grid=GridSpec(n_p, n_q))
    assert K.samples.shape == (n_p, n_q)


@pytest.mark.parametrize("form", [3.0, ("p",), ("0", "p", "q")])
def test_malformed_one_form_is_a_validation_error(form):
    f = bump_flow(step=0.1)
    g = FlowMap(HamiltonianSpec(parse("0.3*q")), CYL, step=0.1)
    with pytest.raises(ValidationError, match="one-form"):
        cocycle_by_path(f, form, grid=GridSpec(11, 11))
    with pytest.raises(ValidationError, match="one-form"):
        cocycle_by_action(f, form, grid=GridSpec(11, 11))
    with pytest.raises(ValidationError, match="one-form"):
        hamiltonian_test(g, form)
    # the plane has no loop to integrate, but the form is checked all the same
    with pytest.raises(ValidationError, match="one-form"):
        hamiltonian_test(f, form)


def test_nonexact_form_period_on_cylinder():
    f = FlowMap(HamiltonianSpec(parse("0.7*q")), CYL)
    with pytest.raises(NonExactForm):
        cocycle_by_path(f, PDQ, grid=GridSpec(15, 33))


def test_basepoint_outside_window():
    with pytest.raises(ValidationError):
        cocycle_by_path(
            IdentityMap(PLANE4), PDQ, basepoint=(9.0, 0.0), grid=GridSpec(11, 11)
        )


def test_basepoint_checked_before_the_map_runs():
    calls = []

    class Recording:
        manifold = PLANE4

        def apply(self, p, q):
            calls.append(np.size(p))
            raise AssertionError("the map ran before the basepoint check")

    with pytest.raises(ValidationError, match="basepoint"):
        cocycle_by_path(
            Recording(), PDQ, basepoint=(9.0, 0.0), grid=GridSpec(11, 11)
        )
    assert calls == []


# ------------------------------------------------------------------
# action route
# ------------------------------------------------------------------


def test_action_zero_hamiltonian():
    A = cocycle_by_action(
        FlowMap(HamiltonianSpec(parse("0")), PLANE4, step=0.25),
        PDQ,
        grid=GridSpec(11, 11),
    )
    assert np.max(np.abs(A.samples)) == 0.0
    assert A.normalization.kind == "mod_constants"


def test_action_full_rotation_vanishes():
    mani = plane(Window(-1.5, 1.5, -1.5, 1.5))
    flow = FlowMap(
        HamiltonianSpec(parse("(p^2 + q^2)/2"), duration=2 * math.pi),
        mani,
        step=2e-3,
    )
    A = cocycle_by_action(flow, PDQ, grid=GridSpec(15, 15))
    assert np.max(np.abs(A.samples)) < 1e-8


def radial_action_exact(P, Q, amp, s):
    # orbit circles are swept clockwise with angular speed 2 h'(r^2); the
    # action integral picks up a radial and an angular part
    r2 = P**2 + Q**2
    h = amp * np.exp(-s * r2)
    hp = -amp * s * np.exp(-s * r2)
    theta = np.arctan2(Q, P)
    ang = (r2 / 4.0) * (np.sin(2 * theta - 4 * hp) - np.sin(2 * theta))
    return h - r2 * hp + ang


def test_action_radial_closed_form():
    amp, s = 0.2, 1.5
    flow = bump_flow(f"{amp}*exp(-{s}*(p^2 + q^2))", step=1e-3)
    A = cocycle_by_action(flow, PDQ, grid=GridSpec(31, 31))
    P, Q = GridSpec(31, 31).mesh(PLANE4.window)
    want = radial_action_exact(P, Q, amp, s)
    assert np.max(np.abs(A.samples - want)) < 1e-8


def test_action_at_origin_is_hamiltonian_value():
    amp, s = 0.2, 1.5
    flow = bump_flow(f"{amp}*exp(-{s}*(p^2 + q^2))")
    A = cocycle_by_action(flow, PDQ, grid=GridSpec(17, 17))
    # the origin is fixed: no line integral, just F(0) over unit time
    assert A.evaluate_cubic(0.0, 0.0) == pytest.approx(amp, abs=1e-6)


def test_action_requires_manifold_for_bare_spec():
    with pytest.raises(ValidationError):
        cocycle_by_action(HamiltonianSpec(parse("p")), PDQ)


def test_methods_agree_mod_constants():
    flow = bump_flow()
    grid = GridSpec(61, 61)
    K = cocycle_by_path(flow, PDQ, grid=grid)
    A = cocycle_by_action(flow, PDQ, grid=grid)
    assert K.equal_mod_constants(A, tol=5e-4)


# ------------------------------------------------------------------
# algebraic identities
# ------------------------------------------------------------------


def test_cocycle_identity():
    from symcocycle.dynamics import ComposedMap

    f = bump_flow(BUMP)
    g = bump_flow(BUMP_OFF)
    grid = GridSpec(61, 61)
    K_fg = cocycle_by_path(ComposedMap([g, f]), PDQ, grid=grid)  # g first
    K_f = cocycle_by_path(f, PDQ, grid=grid)
    K_g = cocycle_by_path(g, PDQ, grid=grid)
    lhs = K_fg
    rhs = K_f.compose_with(g) + K_g
    assert lhs.equal_mod_constants(rhs, tol=5e-4)


def test_inverse_law():
    f = bump_flow()
    grid = GridSpec(61, 61)
    K_f = cocycle_by_path(f, PDQ, grid=grid)
    K_inv = cocycle_by_path(f.inverse(), PDQ, grid=grid)
    rhs = -1.0 * K_f.compose_with(f.inverse())
    assert K_inv.equal_mod_constants(rhs, tol=5e-4)


def test_primitive_change():
    f = bump_flow()
    grid = GridSpec(61, 61)
    K_a = cocycle_by_path(f, PDQ, grid=grid)
    K_b = cocycle_by_path(f, Primitive.symmetric(), grid=grid)
    # p_dq - symmetric = d(pq/2); the cocycles differ by G o f - G
    P, Q = grid.mesh(PLANE4.window)
    yp, yq = f.apply(P.ravel(), Q.ravel())
    G_of_minus_G = (
        0.5 * yp.reshape(P.shape) * yq.reshape(P.shape) - 0.5 * P * Q
    )
    corr = GridFunction(PLANE4, G_of_minus_G, Normalization.mod_constants())
    assert (K_a - K_b).equal_mod_constants(corr, tol=5e-4)


# ------------------------------------------------------------------
# compact normalization
# ------------------------------------------------------------------


def test_normalize_compact_bump():
    # genuinely compact support inside r = sqrt(6), C^3 at the edge
    flow = bump_flow("0.05*max(0, 1 - (p^2 + q^2)/6)^4")
    K = cocycle_by_path(flow, PDQ, grid=GridSpec(61, 61))
    K0 = normalize_compact(K, Window(-2.6, 2.6, -2.6, 2.6))
    assert K0.normalization.kind == "compact"
    # all four window edges sit at zero now
    edges = np.concatenate(
        [K0.samples[0], K0.samples[-1], K0.samples[:, 0], K0.samples[:, -1]]
    )
    assert np.max(np.abs(edges)) < 2e-5


def test_normalize_compact_constant():
    w = Window(0, 1, 0, 1)
    K = GridFunction(
        plane(w), np.full((11, 11), 3.7), Normalization.mod_constants()
    )
    K0 = normalize_compact(K, Window(0.3, 0.7, 0.3, 0.7))
    assert np.max(np.abs(K0.samples)) < 1e-12


def test_normalize_compact_rejects_unbalanced_twist():
    # quadratic clamped profile integrates to 4pi/3, not one circumference,
    # so the two flat sides sit at levels 2pi/3 apart
    tw = TwistMap(parse("2*pi*((min(1, max(-1, p)) + 1)/2)^2"), CYL)
    K = cocycle_by_path(tw, PDQ, grid=GridSpec(81, 33))
    with pytest.raises(NotConstantOutsideSupport):
        normalize_compact(K, Window(-1.05, 1.05, 0, 2 * math.pi))


def test_normalize_compact_needs_room():
    w = Window(0, 1, 0, 1)
    K = GridFunction(plane(w), np.zeros((5, 5)), Normalization.mod_constants())
    with pytest.raises(ValidationError):
        normalize_compact(K, w)


# ------------------------------------------------------------------
# exactness / period test
# ------------------------------------------------------------------


def test_hamiltonian_test_plane_trivially_yes():
    rep = hamiltonian_test(IdentityMap(PLANE4), PDQ)
    assert rep.in_ham_hat and rep.period == 0.0


def test_hamiltonian_test_identity_on_cylinder():
    rep = hamiltonian_test(IdentityMap(CYL), PDQ)
    assert rep.in_ham_hat
    assert abs(rep.period) < 1e-12


def test_hamiltonian_test_q_translation_yes():
    shift = TwistMap(parse("1.1"), CYL)  # constant profile: rigid q-shift
    rep = hamiltonian_test(shift, PDQ)
    assert rep.in_ham_hat
    assert abs(rep.period) < 1e-9


def test_hamiltonian_test_p_translation_no():
    c = 0.7
    f = FlowMap(HamiltonianSpec(parse(f"{c}*q")), CYL)
    rep = hamiltonian_test(f, PDQ)
    assert not rep.in_ham_hat
    assert rep.period == pytest.approx(2 * math.pi * c, abs=1e-6)


def test_hamiltonian_test_compact_flow_yes():
    f = FlowMap(
        HamiltonianSpec(parse("0.1*exp(-3*p^2)*(1 - cos(q))")), CYL, step=2e-3
    )
    rep = hamiltonian_test(f, PDQ)
    assert rep.in_ham_hat


# ------------------------------------------------------------------
# generalized cocycle
# ------------------------------------------------------------------


def test_iota_of_exact_form_is_difference():
    f = bump_flow()
    grid = GridSpec(61, 61)
    # a = dG for G = sin(p) * q
    G = parse("sin(p)*q")
    a = (G.diff("p"), G.diff("q"))
    got = cocycle_by_path(f, a, basepoint=(0.0, 0.0), grid=grid)
    P, Q = grid.mesh(PLANE4.window)
    yp, yq = f.apply(P.ravel(), Q.ravel())
    want = np.sin(yp).reshape(P.shape) * yq.reshape(P.shape) - np.sin(P) * Q
    want = want - want[30, 30]  # pin at the (0,0) node
    assert np.max(np.abs(got.samples - want)) < 1e-4


def test_iota_identity_map_is_zero():
    got = cocycle_by_path(
        IdentityMap(CYL), (parse("0"), parse("1")), grid=GridSpec(11, 33)
    )
    assert np.max(np.abs(got.samples)) < 1e-9


def test_iota_dq_on_cylinder_measures_displacement():
    f = FlowMap(
        HamiltonianSpec(parse("0.1*exp(-0.8*p^2)*(1 - cos(q))")), CYL, step=2e-3
    )
    grid = GridSpec(41, 65)
    got = cocycle_by_path(f, (parse("0"), parse("1")), grid=grid)
    P, Q = grid.mesh(CYL.window)
    yp, yq = f.apply(P.ravel(), Q.ravel())
    disp = (yq - Q.ravel()).reshape(P.shape)
    want = GridFunction(CYL, disp, Normalization.mod_constants())
    assert got.equal_mod_constants(want, tol=5e-5)
