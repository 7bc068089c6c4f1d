import math

import numpy as np
import pytest

import wrap_oracle
from symcocycle.errors import ValidationError
from symcocycle.exprlang import parse
from symcocycle.geometry import GridSpec, Primitive, Window, WrongManifold, cylinder, plane
from symcocycle.dynamics import (
    ComposedMap,
    FlowMap,
    HamiltonianSpec,
    IdentityMap,
    TwistMap,
    map_with_jacobian,
)
from symcocycle.cocycle import cocycle_by_path, hamiltonian_test
from symcocycle.cover import (
    LiftedMap,
    TrajectoryGap,
    deck_residual,
    growth_rate,
    lifted_cocycle,
    lifted_grid,
    lifted_window,
    periodicity_residual,
    projection_residual,
)

CYL = cylinder(Window(-2, 2, 0, 2 * math.pi))
PDQ = Primitive.p_dq()
QUAD_PROFILE = "2*pi*((min(1, max(-1, p)) + 1)/2)^2"
COMPACT_F = "0.1*exp(-0.8*p^2)*(1 - cos(q))"


def compact_flow(step=5e-3):
    return FlowMap(HamiltonianSpec(parse(COMPACT_F)), CYL, step=step)


# ------------------------------------------------------------------
# construction
# ------------------------------------------------------------------


def test_lift_requires_cylinder():
    f = IdentityMap(plane(Window(-1, 1, -1, 1)))
    with pytest.raises(WrongManifold):
        LiftedMap(f)


def test_lift_requires_isotopy_data():
    class Opaque:
        manifold = CYL

        def apply(self, p, q):
            return p, q

    with pytest.raises(ValidationError):
        LiftedMap(Opaque())


def test_lifted_window_and_grid():
    w = lifted_window(CYL, 3)
    assert w.q_span == pytest.approx(6 * math.pi)
    assert (w.p_min, w.p_max) == (-2, 2)
    g = lifted_grid(GridSpec(41, 65), 3)
    assert (g.n_p, g.n_q) == (41, 193)
    with pytest.raises(ValidationError):
        lifted_grid(GridSpec(41, 65), 1)


# ------------------------------------------------------------------
# pointwise lifting
# ------------------------------------------------------------------


def test_identity_lift_is_identity():
    lm = LiftedMap(IdentityMap(CYL))
    assert lm.apply(0.3, 7.9) == (0.3, 7.9)


def test_twist_lift_quarter_turn_at_origin():
    tw = TwistMap(parse(QUAD_PROFILE), CYL)
    got = LiftedMap(tw).apply(0.0, 0.0)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(math.pi / 2, abs=1e-12)


def test_twist_lift_full_turn_not_wrapped():
    # above the clamp the lift moves a full circumference, visibly
    tw = TwistMap(parse(QUAD_PROFILE), CYL)
    got = LiftedMap(tw).apply(1.5, 1.0)
    assert got[1] == pytest.approx(1.0 + 2 * math.pi, abs=1e-12)


def test_deck_shift_exact_for_twist():
    tw = TwistMap(parse(QUAD_PROFILE), CYL)
    lm = LiftedMap(tw)
    a = lm.apply(0.3, 1.1)
    b = lm.apply(0.3, 1.1 + 2 * math.pi)
    assert b[0] - a[0] == 0.0
    assert b[1] - a[1] == pytest.approx(2 * math.pi, abs=1e-12)


def test_deck_and_projection_equivariance_for_flow():
    lm = LiftedMap(compact_flow())
    rng = np.random.default_rng(7)
    ps = rng.uniform(-2, 2, size=100)
    qs = rng.uniform(-10, 10, size=100)
    assert deck_residual(lm, ps, qs) < 1e-9
    assert projection_residual(lm, ps, qs) < 1e-9


def test_composition_lifts_factorwise():
    tw = TwistMap(parse(QUAD_PROFILE), CYL)
    lm = LiftedMap(ComposedMap([compact_flow(), tw]))
    rng = np.random.default_rng(11)
    ps = rng.uniform(-2, 2, size=40)
    qs = rng.uniform(-7, 7, size=40)
    assert deck_residual(lm, ps, qs) < 1e-9
    assert projection_residual(lm, ps, qs) < 1e-9


def test_deck_residual_is_that_of_two_lifts():
    # the two applies the stacked one replaces are the oracle
    lm = LiftedMap(ComposedMap([compact_flow(step=2e-2), TwistMap(parse(QUAD_PROFILE), CYL)]))
    circ = CYL.circumference
    rng = np.random.default_rng(5)
    ps = rng.uniform(-2, 2, size=30)
    qs = rng.uniform(-7, 7, size=30)
    yp0, yq0 = lm.apply(ps, qs)
    yp1, yq1 = lm.apply(ps, qs + circ)
    want = float(np.max(np.hypot(yp1 - yp0, yq1 - yq0 - circ)))
    assert deck_residual(lm, ps, qs) == want
    # a scalar point broadcasts against an array of them
    yp0, yq0 = lm.apply(0.5, qs)
    yp1, yq1 = lm.apply(0.5, qs + circ)
    want = float(np.max(np.hypot(yp1 - yp0, yq1 - yq0 - circ)))
    assert deck_residual(lm, 0.5, qs) == want


def test_trajectory_gap_on_coarse_step():
    # q moves by 4 in a single integrator step: unwrapping is ambiguous
    f = FlowMap(HamiltonianSpec(parse("4*p")), CYL, step=2.0)
    with pytest.raises(TrajectoryGap):
        LiftedMap(f).apply(0.5, 0.0)
    # the lifted jet marches its flows under the same monitor
    with pytest.raises(TrajectoryGap):
        lifted_cocycle(f, PDQ, grid=GridSpec(11, 11))
    # the watcher reaches every flow piece, here one after a gentle flow
    # and a twist
    word = ComposedMap([compact_flow(), TwistMap(parse("0.5*p"), CYL), f])
    with pytest.raises(TrajectoryGap):
        LiftedMap(word).apply(0.5, 0.0)
    with pytest.raises(TrajectoryGap):
        lifted_cocycle(word, PDQ, grid=GridSpec(11, 11))


def test_lift_of_a_twist_then_a_held_flow_takes_a_single_point():
    # the compact flow's field is exactly 0 at the twist's image of
    # (0, 0), so its march holds the 0-d point the twist hands on
    word = ComposedMap([TwistMap(parse("0.5*p"), CYL), compact_flow()])
    assert LiftedMap(word).apply(0.0, 0.0) == (0.0, 0.0)


# ------------------------------------------------------------------
# lifted cocycles
# ------------------------------------------------------------------


def test_lifted_cocycle_identity_zero():
    K = lifted_cocycle(IdentityMap(CYL), PDQ, grid=GridSpec(21, 33))
    assert np.max(np.abs(K.samples)) < 1e-9


def test_lifted_cocycle_p_translation_is_linear():
    c = 0.3
    f = FlowMap(HamiltonianSpec(parse(f"{c}*q")), CYL, step=5e-3)
    K = lifted_cocycle(f, PDQ, grid=GridSpec(21, 33), periods=3)
    P, Q = lifted_grid(GridSpec(21, 33), 3).mesh(lifted_window(CYL, 3))
    want = c * Q
    want = want - want[10, 48]  # pinned at the cover window center
    assert np.max(np.abs(K.samples - want)) < 1e-9
    assert growth_rate(K, CYL.circumference) == pytest.approx(c, abs=1e-9)
    assert periodicity_residual(K, CYL.circumference) == pytest.approx(
        c * 2 * math.pi, abs=1e-9
    )


def test_lifted_cocycle_hamiltonian_is_periodic():
    flow = compact_flow()
    K = lifted_cocycle(flow, PDQ, grid=GridSpec(41, 65), periods=2)
    assert periodicity_residual(K, CYL.circumference) < 1e-4
    assert abs(growth_rate(K, CYL.circumference)) < 1e-4
    # and the same map passes the exactness test downstairs
    assert hamiltonian_test(flow, PDQ).in_ham_hat


def test_periodicity_iff_exactness_fails_for_translation():
    c = 0.3
    f = FlowMap(HamiltonianSpec(parse(f"{c}*q")), CYL, step=5e-3)
    K = lifted_cocycle(f, PDQ, grid=GridSpec(21, 33), periods=2)
    assert periodicity_residual(K, CYL.circumference) > 1.0
    assert not hamiltonian_test(f, PDQ).in_ham_hat


def test_lifted_matches_base_on_fundamental_domain():
    flow = compact_flow()
    base_grid = GridSpec(41, 65)
    K_up = lifted_cocycle(flow, PDQ, grid=base_grid, periods=2)
    K_down = cocycle_by_path(flow, PDQ, grid=base_grid)
    P, Q = base_grid.mesh(CYL.window)
    up_vals = K_up.evaluate_cubic(P, Q)
    down_vals = K_down.samples
    diff = up_vals - down_vals
    assert np.max(diff) - np.min(diff) < 1e-4


def test_lifted_jet_wraps_every_stage_without_np_mod(monkeypatch):
    # a wrong exact_multiples or crossover would silently send the lifted
    # grid of the benchmark's size back to np.mod, bit-identical but slow
    declined = wrap_oracle.record_declines(monkeypatch)
    flow = compact_flow(step=1e-2)
    lifted = LiftedMap(flow, periods=3)
    P, Q = lifted_grid(GridSpec(61, 61), 3).mesh(lifted.manifold.window)
    assert P.size >= 11_000
    map_with_jacobian(lifted, P, Q)
    # one wrap per RK4 stage, none for the escape test
    assert len(declined) == 4 * flow.n_steps()
    assert not any(declined)
