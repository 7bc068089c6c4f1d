import math

import numpy as np
import pytest

from symcocycle.exprlang import parse
from symcocycle.geometry import (
    GridSpec,
    Primitive,
    Window,
    WrongManifold,
    cylinder,
    plane,
    quad_adaptive,
)
from symcocycle.dynamics import (
    ComposedMap,
    FlowMap,
    HamiltonianSpec,
    IdentityMap,
    TwistMap,
)
from symcocycle.cocycle import (
    GridFunction,
    Normalization,
    cocycle_by_action,
    cocycle_by_path,
    normalize_compact,
)
from symcocycle.invariants import (
    NoFixedPointFound,
    NotFixedPoint,
    WrongNormalization,
    calabi,
    calabi_from_hamiltonian,
    find_fixed_points,
    flux_compare,
    oscillation,
    polterovich,
    twist_boundary_difference,
)

PLANE4 = plane(Window(-4, 4, -4, 4))
CYL = cylinder(Window(-2, 2, 0, 2 * math.pi))
PDQ = Primitive.p_dq()

# compact quartic bump: support r <= sqrt(6), area integral 1.2*pi*amp
QBUMP = "0.05*max(0, 1 - (p^2 + q^2)/6)^4"
QBUMP_AREA = 1.2 * math.pi * 0.05
# second bump centered at (0.8, 0), support radius sqrt(5), integral 0.04*pi
QBUMP2 = "0.04*max(0, 1 - ((p - 0.8)^2 + q^2)/5)^4"
QBUMP2_AREA = math.pi * 0.04 * 0.5 * 2

QUAD_PROFILE = "2*pi*((min(1, max(-1, p)) + 1)/2)^2"
SINE_PROFILE = "pi*(1 + sin(pi*min(1, max(-1, p))/2))"
COMPACT_F = "0.1*exp(-0.8*p^2)*(1 - cos(q))"


def qbump_flow(expr=QBUMP, duration=1.0):
    return FlowMap(HamiltonianSpec(parse(expr), duration), PLANE4, step=5e-3)


# ------------------------------------------------------------------
# Calabi
# ------------------------------------------------------------------


def test_calabi_rejects_other_normalizations():
    w = Window(0, 1, 0, 1)
    K = GridFunction(plane(w), np.zeros((5, 5)), Normalization.mod_constants())
    with pytest.raises(WrongNormalization):
        calabi(K)


def test_calabi_of_sampled_bump_matches_closed_form():
    grid = GridSpec(201, 201)
    P, Q = grid.mesh(PLANE4.window)
    e = parse(QBUMP)
    K = GridFunction(PLANE4, e(P, Q), Normalization.compact())
    assert calabi(K) == pytest.approx(QBUMP_AREA, abs=1e-7)


def test_calabi_from_hamiltonian_zero():
    assert calabi_from_hamiltonian(
        HamiltonianSpec(parse("0")), PLANE4
    ) == pytest.approx(0.0, abs=1e-12)


def test_calabi_from_hamiltonian_autonomous():
    got = calabi_from_hamiltonian(HamiltonianSpec(parse(QBUMP)), PLANE4)
    assert got == pytest.approx(2 * QBUMP_AREA, rel=1e-8)


def test_calabi_from_hamiltonian_time_dependent():
    # (1 - t) ramp halves the time integral
    got = calabi_from_hamiltonian(
        HamiltonianSpec(parse(f"(1 - t)*{QBUMP}")), PLANE4
    )
    assert got == pytest.approx(QBUMP_AREA, rel=1e-6)


def test_calabi_of_flow_matches_hamiltonian_oracle():
    flow = qbump_flow()
    A = cocycle_by_action(flow, PDQ, grid=GridSpec(61, 61))
    K = normalize_compact(A, Window(-2.6, 2.6, -2.6, 2.6))
    want = calabi_from_hamiltonian(flow.spec, PLANE4)
    assert calabi(K) == pytest.approx(want, abs=2e-5)
    assert want == pytest.approx(2 * QBUMP_AREA, rel=1e-8)


def test_calabi_additive_over_composition():
    f = qbump_flow(QBUMP)
    g = qbump_flow(QBUMP2)
    support = Window(-2.6, 3.1, -2.6, 2.6)
    grid = GridSpec(61, 61)

    def cal(m, sup):
        K = normalize_compact(cocycle_by_action(m, PDQ, grid=grid), sup)
        return calabi(K)

    c_f = cal(f, Window(-2.6, 2.6, -2.6, 2.6))
    c_g = cal(g, Window(-1.5, 3.1, -2.4, 2.4))
    c_fg = cal(ComposedMap([g, f]), support)
    assert c_fg == pytest.approx(c_f + c_g, abs=1e-4)
    assert c_f == pytest.approx(2 * QBUMP_AREA, abs=1e-4)
    assert c_g == pytest.approx(2 * QBUMP2_AREA, abs=1e-4)


# ------------------------------------------------------------------
# Polterovich difference and oscillation
# ------------------------------------------------------------------


def test_polterovich_identity_zero():
    K = cocycle_by_path(IdentityMap(PLANE4), PDQ, grid=GridSpec(21, 21))
    got = polterovich(IdentityMap(PLANE4), K, (1.0, 1.0), (-2.0, 0.5))
    assert abs(got) < 1e-9


def test_polterovich_rejects_moving_points():
    flow = qbump_flow()
    K = cocycle_by_action(flow, PDQ, grid=GridSpec(31, 31))
    with pytest.raises(NotFixedPoint):
        polterovich(flow, K, (1.0, 0.0), (4.0, 4.0))


def test_polterovich_unit_bump_between_origin_and_exterior():
    # amplitude-one bump: the action at the fixed origin is h(0) = 1
    flow = FlowMap(
        HamiltonianSpec(parse("exp(-1.5*(p^2 + q^2))")), PLANE4, step=2e-3
    )
    K = cocycle_by_action(flow, PDQ, grid=GridSpec(41, 41))
    got = polterovich(flow, K, (0.0, 0.0), (4.0, 4.0))
    assert got == pytest.approx(1.0, abs=1e-6)
    assert abs(got) <= oscillation(K) + 1e-12


def test_polterovich_is_a_homomorphism_in_time():
    base = parse(QBUMP)
    x, y = (0.0, 0.0), (4.0, 4.0)
    vals = []
    for n in (1, 2, 3):
        flow = FlowMap(HamiltonianSpec(base, duration=float(n)), PLANE4, step=5e-3)
        K = cocycle_by_action(flow, PDQ, grid=GridSpec(21, 21))
        vals.append(polterovich(flow, K, x, y))
    assert vals[1] == pytest.approx(2 * vals[0], abs=2e-6)
    assert vals[2] == pytest.approx(3 * vals[0], abs=3e-6)


def test_oscillation_definition():
    w = Window(0, 1, 0, 1)
    s = np.zeros((5, 5))
    s[1, 2] = 3.0
    s[3, 3] = -1.0
    K = GridFunction(plane(w), s, Normalization.mod_constants())
    assert oscillation(K) == 4.0
    assert oscillation(K + 10.0) == 4.0


# ------------------------------------------------------------------
# Twist boundary difference
# ------------------------------------------------------------------


def test_twist_boundary_difference_quadratic_profile():
    tw = TwistMap(parse(QUAD_PROFILE), CYL)
    got = twist_boundary_difference(tw)
    assert got == pytest.approx(2 * math.pi / 3, abs=1e-8)


def test_twist_boundary_difference_sine_profile():
    tw = TwistMap(parse(SINE_PROFILE), CYL)
    got = twist_boundary_difference(tw)
    assert got == pytest.approx(0.0, abs=1e-8)


def test_twist_boundary_difference_generic_profile():
    # for any profile the jump is t(above) + t(below) - int t
    prof = parse("pi*(1 + tanh(2*p))")
    tw = TwistMap(prof, CYL)
    integral = quad_adaptive(lambda ps: prof(ps, 0.0, 0.0), -1.0, 1.0, 1e-12)
    want = prof(1.0, 0, 0) + prof(-1.0, 0, 0) - integral
    got = twist_boundary_difference(tw)
    assert got == pytest.approx(want, abs=1e-8)


# ------------------------------------------------------------------
# Fixed points
# ------------------------------------------------------------------


def test_fixed_points_identity_degenerate():
    rep = find_fixed_points(IdentityMap(PLANE4), grid=GridSpec(21, 21))
    assert rep.found
    assert rep.degenerate_identity
    assert len(rep.points) == 1
    fp = rep.points[0]
    assert fp.location == (-4.0, -4.0)
    assert fp.region_representative
    assert fp.residual == 0.0
    assert fp.contractible is True


def test_fixed_points_bump_flow():
    rep = find_fixed_points(qbump_flow(), grid=GridSpec(41, 41))
    assert rep.found and not rep.degenerate_identity
    best = min(rep.points, key=lambda fp: np.hypot(*fp.location))
    assert np.hypot(*best.location) < 1e-8
    assert best.residual < 1e-8
    assert best.action == pytest.approx(0.05, abs=1e-9)
    assert any(fp.region_representative for fp in rep.points)
    assert all(fp.contractible for fp in rep.points)


def test_fixed_points_twist_regions_and_winding():
    tw = TwistMap(parse(SINE_PROFILE), CYL)
    rep = find_fixed_points(tw, grid=GridSpec(41, 33))
    regions = [fp for fp in rep.points if fp.region_representative]
    assert len(regions) == 2
    lower = min(regions, key=lambda fp: fp.location[0])
    upper = max(regions, key=lambda fp: fp.location[0])
    assert lower.location[0] == pytest.approx(-2.0)
    assert upper.location[0] == pytest.approx(1.0)
    assert lower.contractible is True
    # on the far side the isotopy drags points one full turn around
    assert upper.contractible is False
    assert all(fp.action is None for fp in rep.points)


def test_fixed_points_none_for_translation():
    flow = FlowMap(HamiltonianSpec(parse("p")), PLANE4, step=0.05)
    rep = find_fixed_points(flow, grid=GridSpec(21, 21))
    assert not rep.found
    assert rep.points == ()
    assert issubclass(NoFixedPointFound, Exception)


# ------------------------------------------------------------------
# Flux
# ------------------------------------------------------------------


def test_flux_compare_needs_cylinder():
    with pytest.raises(WrongManifold):
        flux_compare(IdentityMap(PLANE4))


def test_flux_identity():
    rep = flux_compare(IdentityMap(CYL), grid=GridSpec(15, 33), periods=2)
    assert rep.flux_value == 0.0
    assert abs(rep.growth_rate_of_k) < 1e-10
    assert rep.bounded


def test_flux_p_translation():
    c = 0.3
    f = FlowMap(HamiltonianSpec(parse(f"{c}*q")), CYL, step=5e-3)
    rep = flux_compare(f, grid=GridSpec(15, 33), periods=3)
    assert rep.flux_value == pytest.approx(2 * math.pi * c, abs=1e-9)
    assert rep.growth_rate_of_k == pytest.approx(c, abs=1e-9)
    assert not rep.bounded
    assert rep.window.q_span == pytest.approx(6 * math.pi)


def test_flux_compact_hamiltonian_flow():
    f = FlowMap(HamiltonianSpec(parse(COMPACT_F)), CYL, step=5e-3)
    rep = flux_compare(f, grid=GridSpec(41, 65), periods=2)
    assert abs(rep.flux_value) < 1e-12
    assert abs(rep.growth_rate_of_k) < 1e-3
    assert rep.bounded


def test_flux_twist_is_zero():
    tw = TwistMap(parse(SINE_PROFILE), CYL)
    rep = flux_compare(tw, grid=GridSpec(41, 33), periods=2)
    assert rep.flux_value == 0.0
    assert abs(rep.growth_rate_of_k) < 1e-6
    assert rep.bounded


def test_flux_growth_rate_invariant_under_primitive_change():
    f = FlowMap(HamiltonianSpec(parse(COMPACT_F)), CYL, step=5e-3)
    other = Primitive.custom("0.2*sin(q)", "p*(1 + 0.2*cos(q))")
    other.validate(CYL)
    a = flux_compare(f, PDQ, grid=GridSpec(31, 49), periods=2)
    b = flux_compare(f, other, grid=GridSpec(31, 49), periods=2)
    assert a.growth_rate_of_k == pytest.approx(b.growth_rate_of_k, abs=1e-4)


def test_flux_additive_over_composition():
    c1, c2 = 0.3, -0.45
    f = FlowMap(HamiltonianSpec(parse(f"{c1}*q")), CYL, step=5e-3)
    g = FlowMap(HamiltonianSpec(parse(f"{c2}*q")), CYL, step=5e-3)
    rep = flux_compare(ComposedMap([f, g]), grid=GridSpec(15, 33), periods=3)
    assert rep.flux_value == pytest.approx(2 * math.pi * (c1 + c2), abs=1e-9)
    assert rep.growth_rate_of_k == pytest.approx(c1 + c2, abs=1e-9)
