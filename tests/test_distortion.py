"""Word-length bounds and the word-ball oracle."""

import functools

import numpy as np
import pytest

from symcocycle.distortion import (
    DegenerateBound,
    Fingerprint,
    FingerprintCollisionWarning,
    GeneratorSet,
    distortion_lower_bound,
    distortion_table,
    probe_points,
    word_ball_norm,
)
from symcocycle.dynamics import (
    FlowMap,
    GroupWord,
    HamiltonianSpec,
    IdentityMap,
    TwistMap,
)
from symcocycle.cocycle import cocycle_by_action, cocycle_by_path
from symcocycle.errors import ValidationError
from symcocycle.exprlang import parse
from symcocycle.geometry import GridSpec, Primitive, Window, cylinder, plane
from symcocycle.invariants import NotFixedPoint, oscillation

WIN = Window(-4.0, 4.0, -4.0, 4.0)
PLANE = plane(WIN)
PDQ = Primitive.p_dq()

CENTER_BUMP = "0.2*exp(-0.6*(p^2 + q^2))"
LEFT_BUMP = "0.1*max(0, 1 - ((p + 2)^2 + q^2)/2.25)^4"
RIGHT_BUMP = "0.1*max(0, 1 - ((p - 2)^2 + q^2)/2.25)^4"
# Support placed to contain secondary probes but no primary probe for
# the default probe seed; the collision test asserts that premise.
SNEAK_BUMP = "0.01*max(0, 1 - ((p - 3.2938)^2 + (q - 1.3781)^2)/0.36)^2"
SNEAK_CENTER = (3.2938, 1.3781)
SNEAK_RADIUS = 0.6

ORIGIN = (0.0, 0.0)
FAR = (4.0, 4.0)


def bump_flow(expr, duration=1.0):
    return FlowMap(HamiltonianSpec(parse(expr), duration), PLANE, step=5e-3)


@functools.lru_cache(maxsize=None)
def center_gens():
    return GeneratorSet({"g": bump_flow(CENTER_BUMP)}, grid=GridSpec(61, 61))


@functools.lru_cache(maxsize=None)
def disjoint_gens():
    return GeneratorSet(
        {"a": bump_flow(LEFT_BUMP), "b": bump_flow(RIGHT_BUMP)},
        grid=GridSpec(41, 41),
        method="action",
    )


# ============================================================
# Probe sets and fingerprints
# ============================================================


def test_probe_points_stay_inside_with_inset():
    ps, qs = probe_points(WIN, 40, 0)
    assert ps.shape == (40,) and qs.shape == (40,)
    assert ps.min() >= WIN.p_min + 0.05 * WIN.p_span
    assert ps.max() <= WIN.p_max - 0.05 * WIN.p_span
    assert qs.min() >= WIN.q_min + 0.05 * WIN.q_span
    assert qs.max() <= WIN.q_max - 0.05 * WIN.q_span


def test_probe_points_deterministic_per_seed():
    a = probe_points(WIN, 40, 0)
    b = probe_points(WIN, 40, 0)
    c = probe_points(WIN, 40, 3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_probe_points_validation():
    with pytest.raises(ValidationError):
        probe_points(WIN, 0)
    with pytest.raises(ValidationError):
        probe_points(WIN, 10, inset=0.7)
    with pytest.raises(ValidationError, match="nonnegative"):
        probe_points(WIN, 40, seed=-1)


def test_fingerprint_match_tolerance():
    ps, qs = probe_points(WIN, 40, 0)
    base = Fingerprint.of_map(IdentityMap(PLANE), ps, qs, PLANE)
    near = Fingerprint.of_map(TwistMap(parse("0.0000001"), PLANE), ps, qs, PLANE)
    far = Fingerprint.of_map(TwistMap(parse("0.001"), PLANE), ps, qs, PLANE)
    assert base.distance(near, PLANE) == pytest.approx(1e-7, rel=1e-9)
    assert base.matches(near, PLANE)
    assert not base.matches(far, PLANE)


def test_fingerprint_wraps_q_on_cylinder():
    cyl = cylinder(Window(-2.0, 2.0, 0.0, 2.0 * np.pi))
    ps, qs = probe_points(cyl.window, 40, 0)
    base = Fingerprint.of_map(IdentityMap(cyl), ps, qs, cyl)
    turned = Fingerprint.of_map(TwistMap(parse("2*pi"), cyl), ps, qs, cyl)
    assert base.matches(turned, cyl)


# ============================================================
# Generator sets
# ============================================================


def test_generator_set_rejects_bad_input():
    g = bump_flow(CENTER_BUMP)
    with pytest.raises(ValidationError):
        GeneratorSet({})
    with pytest.raises(ValidationError):
        GeneratorSet([("a", g), ("a", g)], grid=GridSpec(11, 11))
    other = FlowMap(
        HamiltonianSpec(parse(CENTER_BUMP)),
        plane(Window(-3.0, 3.0, -3.0, 3.0)),
    )
    with pytest.raises(ValidationError):
        GeneratorSet({"a": g, "b": other}, grid=GridSpec(11, 11))
    with pytest.raises(ValidationError):
        GeneratorSet({"a": g}, grid=GridSpec(11, 11), method="magic")


def test_generator_set_cocycles_and_constant():
    gens = center_gens()
    assert set(gens.cocycles) == {"g"}
    assert gens.m == oscillation(gens.cocycles["g"])
    assert 0.2 < gens.m < 0.3


def test_generator_set_inverse_letters():
    gens = center_gens()
    word = GroupWord.from_string("g g^-1")
    p, q = gens.realize(word).apply(0.5, 0.3)
    assert abs(p - 0.5) < 1e-9 and abs(q - 0.3) < 1e-9


def test_realize_uses_product_order():
    shift = FlowMap(HamiltonianSpec(parse("0.3*q")), PLANE, step=0.05)
    tw = TwistMap(parse("0.5*p"), PLANE)
    gens = GeneratorSet({"a": tw, "b": shift}, grid=GridSpec(21, 21))
    # "a b" means b acts first, then a reads the shifted p.
    p, q = gens.realize(GroupWord.from_string("a b")).apply(1.0, 0.0)
    assert p == pytest.approx(1.3, abs=1e-9)
    assert q == pytest.approx(0.5 * 1.3, abs=1e-9)


def test_lipschitz_constant_identity_and_max():
    idgens = GeneratorSet(
        {"e": IdentityMap(PLANE), "f": IdentityMap(PLANE)},
        grid=GridSpec(21, 21),
    )
    assert idgens.m < 1e-9

    two = GeneratorSet(
        {"g": bump_flow(CENTER_BUMP), "t": TwistMap(parse("0.5*exp(-(p^2))"), PLANE)},
        grid=GridSpec(61, 61),
    )
    oscs = [oscillation(K) for K in two.cocycles.values()]
    assert two.m == max(oscs)
    assert two.m > 0.5


# ============================================================
# The lower bound
# ============================================================


def test_bound_identity_word_is_degenerate():
    gens = center_gens()
    with pytest.raises(DegenerateBound):
        distortion_lower_bound(gens, GroupWord(()), ORIGIN, FAR, 3)


def test_bound_formula_linear_and_below_word_length():
    gens = center_gens()
    word = GroupWord.from_string("g")
    b1 = distortion_lower_bound(gens, word, ORIGIN, FAR, 1)
    b2 = distortion_lower_bound(gens, word, ORIGIN, FAR, 2)
    b3 = distortion_lower_bound(gens, word, ORIGIN, FAR, 3)
    assert 0.6 < b1 < 1.0
    assert b2 == 2.0 * b1
    assert b3 == pytest.approx(3.0 * b1, rel=1e-12)
    assert b1 < b2 < b3
    assert b3 <= 3.0 + 1e-12


def test_word_cocycle_is_memoized():
    # a single positive letter is answered by the generator's own cocycle,
    # bitwise equal to computing it afresh on the realized word
    path_gens = center_gens()
    word = GroupWord.from_string("g")
    K = path_gens.cocycle_of_word(word)
    assert K is path_gens.cocycles["g"]
    fresh = cocycle_by_path(path_gens.realize(word), PDQ, grid=GridSpec(61, 61))
    assert fresh.samples.tobytes() == K.samples.tobytes()

    action_gens = disjoint_gens()
    word = GroupWord.from_string("a")
    K = action_gens.cocycle_of_word(word)
    assert K is action_gens.cocycles["a"]
    fresh = cocycle_by_action(action_gens.realize(word), PDQ, grid=GridSpec(41, 41))
    assert fresh.samples.tobytes() == K.samples.tobytes()

    # longer words are computed once per generator set
    K = action_gens.cocycle_of_word(GroupWord.from_string("a b"))
    assert action_gens.cocycle_of_word(GroupWord.from_string("a b")) is K


def test_bound_rejects_moving_points_and_bad_n():
    gens = center_gens()
    word = GroupWord.from_string("g")
    with pytest.raises(NotFixedPoint):
        distortion_lower_bound(gens, word, (0.5, 0.0), FAR, 1)
    with pytest.raises(ValidationError):
        distortion_lower_bound(gens, word, ORIGIN, FAR, -1)


# ============================================================
# Word-ball oracle
# ============================================================


def test_word_ball_identity_target_is_zero():
    gens = center_gens()
    assert word_ball_norm(gens, IdentityMap(PLANE), radius_cap=2) == 0


def test_word_ball_single_generator_powers():
    gens = center_gens()
    three = gens.realize(GroupWord.from_string("g^3"))
    assert word_ball_norm(gens, three, radius_cap=6) == 3
    minus_two = gens.realize(GroupWord.from_string("g^-2"))
    assert word_ball_norm(gens, minus_two, radius_cap=6) == 2


def test_word_ball_radius_cap_guard():
    gens = center_gens()
    with pytest.raises(ValidationError):
        word_ball_norm(gens, IdentityMap(PLANE), radius_cap=9)


def test_word_ball_not_found_returns_none():
    gens = center_gens()
    target = TwistMap(parse("1"), PLANE)
    assert word_ball_norm(gens, target, radius_cap=2) is None


def test_word_ball_disjoint_supports():
    gens = disjoint_gens()
    assert word_ball_norm(gens, gens.realize(GroupWord.from_string("a")),
                          radius_cap=2) == 1
    product = gens.realize(GroupWord.from_string("a b"))
    assert word_ball_norm(gens, product, radius_cap=3) == 2


def test_word_ball_collision_warning():
    ps, qs = probe_points(WIN, 40, 0)
    sec_ps, sec_qs = probe_points(WIN, 200, 0, inset=0.04)
    cx, cy = SNEAK_CENTER
    primary_gap = np.sqrt(np.min((ps - cx) ** 2 + (qs - cy) ** 2))
    inside = (sec_ps - cx) ** 2 + (sec_qs - cy) ** 2 < (0.9 * SNEAK_RADIUS) ** 2
    assert primary_gap > SNEAK_RADIUS + 0.05
    assert inside.sum() >= 1

    gens = GeneratorSet(
        {"c": bump_flow(SNEAK_BUMP)}, grid=GridSpec(31, 31), method="action"
    )
    target = TwistMap(parse("1"), PLANE)
    with pytest.warns(FingerprintCollisionWarning):
        result = word_ball_norm(gens, target, radius_cap=1)
    assert result is None


# ============================================================
# Properties tying the pieces together
# ============================================================


def test_lipschitz_property_for_random_words():
    gens = disjoint_gens()
    rng = np.random.default_rng(7)
    names = list(gens.names)
    for _ in range(3):
        length = int(rng.integers(2, 6))
        letters = []
        while len(letters) < length:
            cand = (names[int(rng.integers(0, 2))], int(rng.choice([-1, 1])))
            if letters and letters[-1] == (cand[0], -cand[1]):
                continue
            letters.append(cand)
        K = gens.cocycle_of_word(GroupWord(tuple(letters)))
        assert oscillation(K) <= gens.m * length + 1e-3


def test_distortion_table_sound_and_ratio_constant():
    gens = center_gens()
    rows = distortion_table(gens, GroupWord.from_string("g"), ORIGIN, FAR, 4)
    assert [r[0] for r in rows] == [1, 2, 3, 4]
    bounds = [r[1] for r in rows]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    for n, bound, norm, ratio in rows:
        assert norm == n
        assert bound <= norm + 0.5
        assert ratio == pytest.approx(bound / norm, rel=1e-15)
    ratios = [r[3] for r in rows]
    assert max(ratios) - min(ratios) < 1e-9 * max(ratios)
