import math
import warnings

import numpy as np
import pytest

from symcocycle.errors import NumericalError, ValidationError
from symcocycle.exprlang import parse
from symcocycle.geometry import Window, cylinder, plane
from symcocycle.dynamics import (
    ComposedMap,
    EscapedWindowWarning,
    FlowMap,
    GroupWord,
    HamiltonianSpec,
    IdentityMap,
    SupportClaimError,
    TwistMap,
    UnknownGenerator,
    compose,
    map_with_jacobian,
)

PLANE = plane(Window(-6, 6, -6, 6))
CYL = cylinder(Window(-2, 2, 0, 2 * math.pi))

ROTATION = HamiltonianSpec(parse("(p^2 + q^2)/2"))


def rotation_exact(p, q, t):
    # clockwise under the sign convention (p', q') = (dF/dq, -dF/dp)
    return (
        p * math.cos(t) + q * math.sin(t),
        -p * math.sin(t) + q * math.cos(t),
    )


# ------------------------------------------------------------------
# specs and vector fields
# ------------------------------------------------------------------


def test_vector_field_of_momentum():
    xp, xq = HamiltonianSpec(parse("p")).vector_field()
    assert xp(1.0, 2.0) == 0.0
    assert xq(1.0, 2.0) == -1.0


def test_vector_field_of_kinetic_energy():
    xp, xq = ROTATION.vector_field()
    assert xp(0.5, 1.5) == 1.5  # dF/dq = q
    assert xq(0.5, 1.5) == -0.5  # -dF/dp = -p


def test_constant_hamiltonian_flows_to_identity():
    flow = FlowMap(HamiltonianSpec(parse("3"), duration=1.0), PLANE)
    assert flow.apply(0.7, -1.1) == (0.7, -1.1)


def test_spec_validation():
    with pytest.raises(ValidationError):
        HamiltonianSpec(parse("p"), duration=0.0)
    with pytest.raises(ValidationError):
        HamiltonianSpec(parse("p"), duration=-2.0)


def test_time_reversed_spec():
    spec = HamiltonianSpec(parse("p*t"), duration=2.0)
    rev = spec.time_reversed()
    # -F(p, q, duration - t)
    assert rev.F(3.0, 0.0, 0.5) == pytest.approx(-3.0 * 1.5)
    assert rev.duration == 2.0


def test_support_claim_pass_and_fail():
    # cube of a hinge vanishes identically outside the unit disk
    bump = HamiltonianSpec(
        parse("0.05*max(0, 1 - p^2 - q^2)^3"),
        support_claim=Window(-1, 1, -1, 1),
    )
    bump.validate_support(PLANE)

    leaky = HamiltonianSpec(
        parse("0.25*exp(-(p^2 + q^2))"),
        support_claim=Window(-1, 1, -1, 1),
    )
    with pytest.raises(SupportClaimError):
        leaky.validate_support(PLANE)

    outside = HamiltonianSpec(
        parse("p"), support_claim=Window(-9, 9, -9, 9)
    )
    with pytest.raises(SupportClaimError):
        outside.validate_support(PLANE)


def test_support_claim_absent_is_fine():
    HamiltonianSpec(parse("p")).validate_support(PLANE)


# ------------------------------------------------------------------
# flows against closed forms
# ------------------------------------------------------------------


def test_momentum_translates_q():
    flow = FlowMap(HamiltonianSpec(parse("p")), PLANE)
    end = flow.apply(2.0, 5.0)
    assert end[0] == pytest.approx(2.0, abs=1e-12)
    assert end[1] == pytest.approx(4.0, abs=1e-12)


def test_full_rotation_returns_home():
    flow = FlowMap(HamiltonianSpec(ROTATION.F, 2 * math.pi), PLANE)
    end = flow.apply(1.0, 0.0)
    assert end[0] == pytest.approx(1.0, abs=1e-6)
    assert end[1] == pytest.approx(0.0, abs=1e-6)


def test_zero_field_trajectory_is_one_point():
    flow = FlowMap(HamiltonianSpec(parse("0")), PLANE)
    assert flow.apply(0.3, -0.4) == (0.3, -0.4)


def test_rotation_closed_form_along_the_way():
    p0, q0 = 0.8, -0.6
    for t in (0.5, 1.0, 2.0):
        end = FlowMap(HamiltonianSpec(ROTATION.F, t), PLANE).apply(p0, q0)
        want = rotation_exact(p0, q0, t)
        assert end[0] == pytest.approx(want[0], abs=1e-9)
        assert end[1] == pytest.approx(want[1], abs=1e-9)


def test_backward_advection():
    flow = FlowMap(HamiltonianSpec(parse("p")), PLANE)
    end = flow.inverse().apply(2.0, 5.0)
    assert end[1] == pytest.approx(6.0, abs=1e-12)


def test_apply_is_vectorized():
    flow = FlowMap(ROTATION, PLANE, step=1e-2)
    ps = np.array([1.0, 0.0, -0.5])
    qs = np.array([0.0, 1.0, 0.25])
    out = flow.apply(ps, qs)
    for i in range(3):
        want = rotation_exact(ps[i], qs[i], 1.0)
        assert out[0][i] == pytest.approx(want[0], abs=1e-8)
        assert out[1][i] == pytest.approx(want[1], abs=1e-8)


def test_energy_conservation_autonomous():
    spec = HamiltonianSpec(parse("p^2/2 + cos(q)"))
    flow = FlowMap(spec, PLANE, step=1e-3)
    ps = np.linspace(-1.0, 1.0, 9)
    qs = np.linspace(-0.5, 1.5, 9)
    ends = flow.apply(ps, qs)
    drift = np.max(np.abs(spec.F(*ends) - spec.F(ps, qs)))
    assert drift <= 1e-6


def test_symplectic_residual_small():
    spec = HamiltonianSpec(parse("p^2/2 + cos(q)"))
    flow = FlowMap(spec, PLANE, step=1e-3)
    xs = np.linspace(-1.5, 1.5, 10)
    P, Q = np.meshgrid(xs, xs, indexing="ij")
    jet = map_with_jacobian(flow, P, Q)
    assert np.max(np.abs(jet.det() - 1.0)) <= 1e-6


def test_fourth_order_convergence():
    spec = HamiltonianSpec(parse("p^2/2 + cos(q)"))
    seeds = [(0.5, 1.2), (-0.8, 0.3)]

    def endpoint_error(h):
        coarse = FlowMap(spec, PLANE, step=h)
        ref = FlowMap(spec, PLANE, step=h / 8)
        worst = 0.0
        for s in seeds:
            a = coarse.apply(*s)
            b = ref.apply(*s)
            worst = max(worst, math.hypot(a[0] - b[0], a[1] - b[1]))
        return worst

    e1 = endpoint_error(0.05)
    e2 = endpoint_error(0.025)
    assert e1 / e2 >= 8.0


def test_overflowing_flow_is_a_numerical_error():
    flow = FlowMap(
        HamiltonianSpec(parse("exp(3*(p^2 + q^2))")),
        plane(Window(-2, 2, -2, 2)),
        step=1e-2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="non-finite"):
            flow.apply(np.array([0.0, 1.5]), np.array([0.0, 1.5]))


def test_escape_warning():
    flow = FlowMap(HamiltonianSpec(parse("p")), plane(Window(0, 1, 0, 1)))
    with pytest.warns(EscapedWindowWarning):
        flow.apply(0.5, 0.1)  # q drifts to -0.9, far past the slack


def test_bad_scheme_and_step():
    with pytest.raises(ValidationError):
        FlowMap(ROTATION, PLANE, step=0.0)


def test_cylinder_field_must_be_periodic():
    # dF/dp = q is not periodic in q, so the flow does not descend
    with pytest.raises(ValidationError):
        FlowMap(HamiltonianSpec(parse("p*q")), CYL)
    # linear-in-q Hamiltonians have constant fields: fine even though F
    # itself is not single-valued on the quotient
    FlowMap(HamiltonianSpec(parse("0.7*q")), CYL)
    FlowMap(HamiltonianSpec(parse("sin(q)*exp(-(p^2))")), CYL)


def test_cylinder_translation_flow():
    flow = FlowMap(HamiltonianSpec(parse("0.7*q")), CYL)
    end = flow.apply(0.25, 1.0)
    assert end[0] == pytest.approx(0.95, abs=1e-12)
    assert end[1] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------
# twist maps
# ------------------------------------------------------------------

CLAMPED_PROFILE = "2*pi*((min(1, max(-1, p)) + 1)/2)^2"


def test_twist_quarter_turn_at_center():
    tw = TwistMap(parse(CLAMPED_PROFILE), CYL)
    out = tw.apply(0.0, 0.0)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(math.pi / 2, abs=1e-14)


def test_twist_inverse_round_trip():
    tw = TwistMap(parse("p^2 - 0.3*p"), PLANE)
    p, q = 0.7, -1.3
    fp, fq = tw.apply(p, q)
    bp, bq = tw.inverse().apply(fp, fq)
    assert bp == p
    assert bq == pytest.approx(q, abs=1e-15)


def test_twist_profile_must_depend_on_p_only():
    with pytest.raises(ValidationError):
        TwistMap(parse("q"), PLANE)
    with pytest.raises(ValidationError):
        TwistMap(parse("p + t"), PLANE)


def test_twist_jacobian():
    tw = TwistMap(parse("p^2"), PLANE)
    jet = map_with_jacobian(tw, np.array([0.5, -1.0]), np.array([0.0, 2.0]))
    assert jet.dpp == pytest.approx([1.0, 1.0])
    assert jet.dqq == pytest.approx([1.0, 1.0])
    assert jet.dpq == pytest.approx([0.0, 0.0])
    assert jet.dqp == pytest.approx([1.0, -2.0])  # profile slope 2p
    assert jet.det() == pytest.approx([1.0, 1.0])


# ------------------------------------------------------------------
# words and composition
# ------------------------------------------------------------------


def quarter_turn():
    return FlowMap(
        HamiltonianSpec(parse("(p^2 + q^2)/2"), duration=math.pi / 2), PLANE
    )


def down_shift():
    return FlowMap(HamiltonianSpec(parse("p")), PLANE)


def test_word_validation():
    with pytest.raises(ValidationError):
        GroupWord((("a", 2),))
    with pytest.raises(ValidationError):
        GroupWord(("a",))


def test_word_from_string():
    w = GroupWord.from_string("a b^-1 c^2")
    assert w.letters == (("a", 1), ("b", -1), ("c", 1), ("c", 1))
    assert GroupWord.from_string("a*b").letters == (("a", 1), ("b", 1))
    assert str(w) == "a b^-1 c c"
    with pytest.raises(ValidationError):
        GroupWord.from_string("a^x")
    with pytest.raises(ValidationError):
        GroupWord.from_string("^2")


def test_word_algebra():
    w = GroupWord((("a", 1), ("b", -1)))
    assert w.inverse().letters == (("b", 1), ("a", -1))
    assert w.power(2).letters == w.letters + w.letters
    assert w.power(0).letters == ()
    assert w.power(-1).letters == w.inverse().letters
    assert len(w) == 2


def test_product_order_rightmost_acts_first():
    gens = {"a": quarter_turn(), "b": down_shift()}
    m = compose(GroupWord.from_string("a b"), gens, PLANE)
    out = m.apply(1.0, 0.0)
    # b first: (1, -1); then the quarter turn sends (p,q) to (q, -p)
    assert out[0] == pytest.approx(-1.0, abs=1e-9)
    assert out[1] == pytest.approx(-1.0, abs=1e-9)
    m2 = compose(GroupWord.from_string("b a"), gens, PLANE)
    out2 = m2.apply(1.0, 0.0)
    assert out2[0] == pytest.approx(0.0, abs=1e-9)
    assert out2[1] == pytest.approx(-2.0, abs=1e-9)


def test_group_law():
    gens = {"a": quarter_turn(), "b": down_shift()}
    w1 = GroupWord.from_string("a")
    w2 = GroupWord.from_string("b a")
    chained = compose(w1.then(w2), gens, PLANE)
    assert w1.then(w2).letters == w2.letters + w1.letters
    seq_first = compose(w1, gens, PLANE)
    seq_second = compose(w2, gens, PLANE)
    for seed in [(0.3, -0.7), (1.1, 0.4), (-0.9, 1.3)]:
        mid = seq_first.apply(*seed)
        want = seq_second.apply(*mid)
        got = chained.apply(*seed)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_inverse_pair_cancels():
    gens = {"g": FlowMap(HamiltonianSpec(parse("p^2/2 + cos(q)")), PLANE)}
    m = compose(GroupWord.from_string("g g^-1"), gens, PLANE)
    for seed in [(0.5, 1.2), (-1.0, 0.1), (0.0, -2.0)]:
        out = m.apply(*seed)
        assert out[0] == pytest.approx(seed[0], abs=1e-7)
        assert out[1] == pytest.approx(seed[1], abs=1e-7)


def test_empty_word_is_identity():
    gens = {"g": down_shift()}
    m = compose(GroupWord(()), gens, PLANE)
    assert m.apply(0.4, 0.6) == (0.4, 0.6)
    bare = compose(GroupWord(()), {}, CYL)
    assert bare.manifold == CYL and bare.factors == ()
    ident = IdentityMap(PLANE)
    assert ident.apply(1.0, 2.0) == (1.0, 2.0)
    assert ident.inverse() is ident


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        compose(GroupWord.from_string("zz"), {"g": down_shift()}, PLANE)


def test_mixed_manifolds_rejected():
    with pytest.raises(ValidationError):
        ComposedMap([down_shift(), TwistMap(parse("p"), CYL)])


def test_flow_inverse_caching_and_roundtrip():
    flow = FlowMap(HamiltonianSpec(parse("p^2/2 + cos(q)")), PLANE)
    inv = flow.inverse()
    assert inv.inverse() is flow
    fp, fq = flow.apply(0.4, 0.9)
    bp, bq = inv.apply(fp, fq)
    assert bp == pytest.approx(0.4, abs=1e-9)
    assert bq == pytest.approx(0.9, abs=1e-9)


def test_composed_inverse():
    gens = {"a": quarter_turn(), "b": down_shift()}
    m = compose(GroupWord.from_string("a b"), gens, PLANE)
    there = m.apply(0.7, -0.2)
    back = m.inverse().apply(*there)
    assert back[0] == pytest.approx(0.7, abs=1e-8)
    assert back[1] == pytest.approx(-0.2, abs=1e-8)


def test_map_with_jacobian_matches_rotation():
    flow = FlowMap(HamiltonianSpec(parse("(p^2 + q^2)/2"), duration=1.0), PLANE)
    jet = map_with_jacobian(flow, np.array([0.5]), np.array([-0.3]))
    c, s = math.cos(1.0), math.sin(1.0)
    assert jet.dpp[0] == pytest.approx(c, abs=1e-8)
    assert jet.dpq[0] == pytest.approx(s, abs=1e-8)
    assert jet.dqp[0] == pytest.approx(-s, abs=1e-8)
    assert jet.dqq[0] == pytest.approx(c, abs=1e-8)
