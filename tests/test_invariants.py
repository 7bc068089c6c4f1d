import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixed_point_oracle
from symcocycle import invariants
from symcocycle.cli import load_scenario
from symcocycle.errors import NumericalError, ValidationError
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
    hamiltonian_test,
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


def test_fixed_points_off_node_found_by_newton():
    # the bump's center is no node of the scan grid, so only the Newton
    # iteration from a displacement minimum reaches it
    center = (0.03, -0.05)
    spec = HamiltonianSpec(parse("0.05*exp(-((p - 0.03)^2 + (q + 0.05)^2))"))
    rep = find_fixed_points(FlowMap(spec, PLANE4, step=1e-2), grid=GridSpec(41, 41))

    def miss(fp):
        return math.dist(fp.location, center)

    best = min(rep.points, key=miss)
    assert miss(best) < 1e-8
    assert not best.region_representative
    assert best.action == pytest.approx(0.05, abs=1e-9)


def test_fixed_points_seeds_newton_at_border_nodes():
    # the bump's center lies between the last two columns of nodes, and
    # the node where the motion is least near it is on the border
    center = (3.97, 0.03)
    spec = HamiltonianSpec(parse("0.05*exp(-((p - 3.97)^2 + (q - 0.03)^2))"))
    rep = find_fixed_points(FlowMap(spec, PLANE4, step=1e-2), grid=GridSpec(41, 41))
    best = min(rep.points, key=lambda fp: math.dist(fp.location, center))
    assert math.dist(best.location, center) < 1e-8
    assert not best.region_representative


def test_polterovich_at_the_off_grid_center_newton_finds():
    # the unit radial bump moved off the nodes: only Newton reaches its
    # center, where the action route reads P = h(center) = 1 against (4, 4)
    center = (0.03, -0.05)
    spec = HamiltonianSpec(parse("exp(-1.5*((p - 0.03)^2 + (q + 0.05)^2))"))
    flow = FlowMap(spec, PLANE4, step=1e-2)
    grid = GridSpec(101, 101)
    best = min(find_fixed_points(flow, grid=grid).points,
               key=lambda fp: math.dist(fp.location, center))
    assert math.dist(best.location, center) < 1e-8
    assert not best.region_representative
    K = cocycle_by_action(flow, PDQ, grid=grid)
    assert polterovich(flow, K, best.location, (4.0, 4.0)) == pytest.approx(1.0, abs=1e-4)


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


def test_fixed_points_identity_action_is_zero():
    # the identity is the composition of no flows, so its action is 0
    rep = find_fixed_points(IdentityMap(CYL), grid=GridSpec(11, 9))
    assert [fp.action for fp in rep.points] == [0.0]
    assert rep.points[0].contractible is True


@settings(max_examples=150, deadline=None)
@given(
    st.booleans(),
    st.integers(1, 9).flatmap(
        lambda n_p: st.integers(1, 9).flatmap(
            lambda cols: st.lists(
                st.lists(st.booleans(), min_size=cols, max_size=cols),
                min_size=n_p, max_size=n_p,
            )
        )
    ),
)
def test_exact_regions_match_flood_fill_oracle(wrap_q, rows):
    mask = np.array(rows, dtype=bool)
    # the oracle reads the cylinder's repeated last column and skips it
    full = np.concatenate([mask, mask[:, :1]], axis=1) if wrap_q else mask
    want = [
        (comp[0][0], comp[0][1], len(comp))
        for comp in fixed_point_oracle._exact_components(full, wrap_q)
    ]
    got = list(zip(*(a.tolist() for a in invariants._exact_regions(mask, wrap_q))))
    assert got == want


def scan_case(case):
    """A map, its grid and its primitive: the shipped scenarios' words, and
    a cylinder flow fixing the seam's column and the point (0, pi)."""
    if case == "cylinder flow":
        f = FlowMap(HamiltonianSpec(parse("0.1*exp(-0.8*p^2)*(1 - cos(q))")), CYL, step=2e-2)
        return f, GridSpec(21, 17), PDQ
    name, word = case.split(": ")
    sc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json")
    maps = [sc.maps[letter] for letter in reversed(word.split())]
    return ComposedMap(maps, sc.manifold), sc.grid, sc.primitive


def count_marches(monkeypatch):
    """A list of the number of points of every flow march."""
    marched = []
    march = FlowMap._march

    def counted(flow, p, q, t0, t1, on_node=None):
        marched.append(np.size(p))
        return march(flow, p, q, t0, t1, on_node)

    monkeypatch.setattr(FlowMap, "_march", counted)
    return marched


@pytest.mark.parametrize(
    "case", ["plane_bump: g", "plane_bump: off", "disjoint_pair: a b", "cylinder flow"]
)
def test_scan_on_the_walk_images_reports_what_the_marching_scan_does(case, monkeypatch):
    f, grid, alpha = scan_case(case)
    marched = count_marches(monkeypatch)
    # no walk of f is alive yet, so the scan marches
    want = find_fixed_points(f, grid=grid, alpha=alpha)
    scan = grid.n_p * (grid.n_q - f.manifold.is_cylinder)
    assert scan in marched
    assert want.found
    # a live walk of f under any primitive hands the scan its images
    for form in (alpha, Primitive.symmetric()):
        K = cocycle_by_action(f, form, grid=grid)
        del marched[:]
        assert find_fixed_points(f, grid=grid, alpha=alpha) == want
        assert scan not in marched
        # a dropped walk leaves the scan to march
        del K
        assert find_fixed_points(f, grid=grid, alpha=alpha) == want
        assert scan in marched


@pytest.mark.parametrize(
    "case", ["plane_bump: g", "plane_bump: off", "disjoint_pair: a b", "cylinder flow"]
)
def test_scan_on_a_path_jet_reports_what_the_marching_scan_does(case, monkeypatch):
    f, grid, alpha = scan_case(case)
    want = find_fixed_points(f, grid=grid, alpha=alpha)
    scan = grid.n_p * (grid.n_q - f.manifold.is_cylinder)
    # a live path cocycle of f hands the scan its jet's images
    K = cocycle_by_path(f, alpha, grid=grid, tol=1.0)
    marched = count_marches(monkeypatch)
    assert find_fixed_points(f, grid=grid, alpha=alpha) == want
    assert scan not in marched
    del K
    assert find_fixed_points(f, grid=grid, alpha=alpha) == want
    assert scan in marched


def test_scan_ignores_the_walk_of_another_map_or_grid(monkeypatch):
    f, grid, alpha = scan_case("cylinder flow")
    want = find_fixed_points(f, grid=grid)
    held = (
        cocycle_by_action(f.inverse(), alpha, grid=grid),
        cocycle_by_action(ComposedMap([f, f]), alpha, grid=grid),
        cocycle_by_action(f, alpha, grid=GridSpec(21, 21)),
    )
    marched = count_marches(monkeypatch)
    assert find_fixed_points(f, grid=grid) == want
    assert grid.n_p * (grid.n_q - 1) in marched
    del held


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


def test_flux_of_an_overflowing_field_raises_without_warnings():
    # the field's exp overflows for 0.37 < t < 1: the flux is not finite
    # there, which is reported before the lifted march reaches it
    F = "sin(q)*exp(20000*t*(t - 0.37)*(1 - t))"
    f = FlowMap(HamiltonianSpec(parse(F)), CYL, step=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="the flux overflowed"):
            flux_compare(f, grid=GridSpec(21, 21))


@pytest.mark.parametrize("expr", [
    "0.3*q", COMPACT_F, "0.2*q + 0.05*sin(q)*p", "(0.3 + 0.2*t)*q",
])
def test_flux_equals_the_loop_period(expr):
    # two independent routes to one number: a time quadrature of the field
    # over the core loop, and the core-loop period of the jet's pullback
    # defect f*alpha - alpha
    f = FlowMap(HamiltonianSpec(parse(expr)), CYL, step=1e-2)
    flux = flux_compare(f, grid=GridSpec(41, 65), periods=2).flux_value
    assert flux == pytest.approx(hamiltonian_test(f, PDQ).period, abs=1e-14)


def test_flux_additive_over_composition():
    c1, c2 = 0.3, -0.45
    f = FlowMap(HamiltonianSpec(parse(f"{c1}*q")), CYL, step=5e-3)
    g = FlowMap(HamiltonianSpec(parse(f"{c2}*q")), CYL, step=5e-3)
    rep = flux_compare(ComposedMap([f, g]), grid=GridSpec(15, 33), periods=3)
    assert rep.flux_value == pytest.approx(2 * math.pi * (c1 + c2), abs=1e-9)
    assert rep.growth_rate_of_k == pytest.approx(c1 + c2, abs=1e-9)
