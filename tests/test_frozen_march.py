"""Held points against the full march, bit for bit.

A march of an autonomous flow holds the points where the field (and, for
a jet, its derivatives) is exactly 0 and steps only the others.
``march_oracle`` keeps the march that steps every point; every image,
tangent and action value here must equal its output to the bit, compared
as ``uint64`` views, as must its warnings and errors.
"""

import math
import warnings

import numpy as np
import pytest

import march_oracle as oracle
from symcocycle.cocycle import action_values
from symcocycle.cover import LiftedMap
from symcocycle.dynamics import (
    ComposedMap,
    EscapedWindowWarning,
    FlowMap,
    HamiltonianSpec,
    TwistMap,
    _held,
    isotopy,
    map_with_jacobian,
)
from symcocycle.errors import NumericalError
from symcocycle.exprlang import parse
from symcocycle.geometry import Primitive, Window, cylinder, plane

# some special points lie past the window plus slack; both marches warn
pytestmark = pytest.mark.filterwarnings(
    "ignore::symcocycle.dynamics.EscapedWindowWarning"
)

PLANE = plane(Window(-4, 4, -4, 4))
CYL = cylinder(Window(-2, 2, 0, 2 * math.pi))

PLANE_FIELDS = {
    "hinge": "0.05*max(0, 1 - (p^2 + q^2)/6)^4",
    # support boundary on exact points: (±2, 0), (0, ±2)
    "hinge4": "0.05*max(0, 1 - (p^2 + q^2)/4)^4",
    "left": "0.1*max(0, 1 - ((p + 2)^2 + q^2)/2.25)^4",
    # the field of max(0, u)^1 jumps at u = 0, its derivative too
    "kink": "0.05*max(0, 1 - (p^2 + q^2)/4)",
    "gauss": "0.2*exp(-0.6*(p^2 + q^2))",
    "flat": "0",
    "decay": "(1 - t)*0.05*max(0, 1 - (p^2 + q^2)/6)^4",
}
CYL_FIELDS = {
    "compact": "0.1*exp(-0.8*p^2)*(1 - cos(q))",
    # held wherever |p| >= 1, whatever q
    "band": "0.1*max(0, 1 - p^2)^3*(1 + 0.5*sin(q))",
}

# held and moving points, -0.0 coordinates, exact support boundaries,
# the bump centers and points on the window's edge
SPECIAL = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (2.0, 0.0), (-2.0, -0.0), (0.0, 2.0), (-0.0, -2.0),
    (-0.5, 0.0), (-3.5, -0.0), (-2.0, 1.5), (-2.0, 0.0),
    (3.5, -0.0), (-0.0, 3.5), (4.0, 4.0), (-4.0, -0.0),
    (1.0, 0.3), (-1.0, -0.0), (0.3, 1.0), (1.2, 5.0),
]


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def assert_bits(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(bits(got), bits(want))


def points(manifold):
    w = manifold.window
    P, Q = np.meshgrid(np.linspace(w.p_min, w.p_max, 13),
                       np.linspace(w.q_min, w.q_max, 11), indexing="ij")
    sp, sq = np.array(SPECIAL).T
    return np.concatenate([P.ravel(), sp]), np.concatenate([Q.ravel(), sq])


def flow(text, manifold, step=0.05):
    return FlowMap(HamiltonianSpec(parse(text)), manifold, step=step)


FLOWS = [(name, text, PLANE) for name, text in PLANE_FIELDS.items()]
FLOWS += [(name, text, CYL) for name, text in CYL_FIELDS.items()]


@pytest.fixture(params=FLOWS, ids=[name for name, _, _ in FLOWS])
def case(request):
    _, text, manifold = request.param
    f = flow(text, manifold)
    return f, points(manifold)


def test_apply_and_carry_equal_the_full_march(case):
    f, (ps, qs) = case
    for m in (f, f.inverse()):
        want = oracle.apply(m, ps, qs)
        for got in (m.apply(ps, qs), m.carry(ps, qs, None)[:2]):
            assert_bits(got[0], want[0])
            assert_bits(got[1], want[1])
    # a mesh batch, a column against a row, and one point at a time as
    # scalars
    P, Q = ps[:143].reshape(13, 11), qs[:143].reshape(13, 11)
    for pair in ((P, Q), (P[:, :1], Q[:1]), (ps, 0.0)):
        for got, want in zip(f.apply(*pair), oracle.apply(f, *pair)):
            assert_bits(got, want)
    for x, y in zip(ps[-len(SPECIAL):], qs[-len(SPECIAL):]):
        got, want = f.apply(x, y), oracle.apply(f, x, y)
        assert type(got[0]) is float
        assert_bits(got, want)


def test_jets_equal_the_full_march(case):
    f, (ps, qs) = case
    for m in (f, ComposedMap([f, f.inverse(), f])):
        got, want = map_with_jacobian(m, ps, qs), oracle.map_with_jacobian(m, ps, qs)
        for name in ("yp", "yq", "dpp", "dpq", "dqp", "dqq"):
            assert_bits(getattr(got, name), getattr(want, name))


def test_action_values_equal_the_full_march(case):
    f, (ps, qs) = case
    for alpha in (Primitive.p_dq(), Primitive.symmetric()):
        for m in (f, ComposedMap([f, f.inverse()])):
            assert_bits(action_values(m, alpha, ps, qs),
                        oracle.action_values(m, alpha, ps, qs))
    # a column against a row: the values come back in the batch's shape,
    # where the full march left those of a field that moves nothing
    # (flat) in p's
    P, Q = ps[:143].reshape(13, 11)[:, :1], qs[:11][None, :]
    got = action_values(f, Primitive.p_dq(), P, Q)
    assert got.shape == (13, 11)
    assert_bits(got, np.broadcast_to(oracle.action_values(f, Primitive.p_dq(), P, Q), got.shape))


def test_tangents_with_negative_zeros_equal_the_full_march():
    # a tangent entry of -0.0 turns into +0.0 under a step that adds +0.0,
    # so a point whose tangent holds one is stepped; a twist before the
    # flows hands them such entries (-0.0 + slope*-0.0 stays -0.0)
    ps, qs = points(PLANE)
    n = ps.size
    twist = TwistMap(parse("0.3*p"), PLANE)
    tangents = [
        (np.full((2, n), -0.0), np.full((2, n), -0.0)),
        (np.array([np.ones(n), np.full(n, -0.0)]),
         np.array([np.full(n, -0.0), np.ones(n)])),
    ]
    for text in (PLANE_FIELDS["hinge"], PLANE_FIELDS["gauss"], "0"):
        f = flow(text, PLANE)
        for tangent in tangents:
            got = want = (ps, qs, tangent)
            for piece in (twist, f, f.inverse()):
                got = piece.carry(*got)
                want = oracle.carry(piece, *want)
            for g, w in zip(got[:2] + got[2], want[:2] + want[2]):
                assert_bits(g, w)


def test_non_finite_or_negative_zero_tangents_are_not_held():
    f = flow(PLANE_FIELDS["hinge"], PLANE)
    p, q = np.full(4, 3.5), np.zeros(4)
    dP = np.array([[1.0, np.inf, -0.0, 1.0], [0.0, 0.0, 0.0, np.nan]])
    dQ = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    state = [p, q, dP, dQ]
    # the step's own k1: 0*inf and 0*nan are nan, which is not 0
    with np.errstate(invalid="ignore"):
        k1 = f._jet_rates(state, 0.0)
    assert _held(state, k1).tolist() == [True, False, False, False]
    # both marches end the non-finite tangents non-finite: one error, the
    # same count
    assert _outcome(lambda: f.carry(p, q, (dP, dQ))) == _outcome(
        lambda: oracle.carry(f, p, q, (dP, dQ)))


def test_gaussian_center_is_held_for_images_but_not_for_the_jet():
    f = flow(PLANE_FIELDS["gauss"], PLANE)
    p, q = np.array([0.0, 0.5]), np.array([0.0, 0.0])
    assert _held((p, q), f._rates((p, q), 0.0)).tolist() == [True, False]
    state = [p, q, np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]])]
    with np.errstate(invalid="ignore"):
        k1 = f._jet_rates(state, 0.0)
    assert _held(state, k1) is None


def test_zero_tangent_at_a_field_zero_is_held():
    # at the Gaussian's center the field is 0 but its derivatives are not;
    # a tangent of zeros has zero rates there, so the point is held, and
    # its jet is the full march's to the bit
    f = flow(PLANE_FIELDS["gauss"], PLANE)
    p, q = np.array([0.0, 0.5, -0.0]), np.array([0.0, 0.0, 0.0])
    tangent = (np.zeros((2, 3)), np.zeros((2, 3)))
    state = [p, q, *tangent]
    assert _held(state, f._jet_rates(state, 0.0)).tolist() == [True, False, False]
    for m in (f, f.inverse()):
        got, want = m.carry(p, q, tangent), oracle.carry(m, p, q, tangent)
        for g, w in zip(got[:2] + got[2], want[:2] + want[2]):
            assert_bits(g, w)


def test_negative_zero_coordinates_are_stepped():
    f = flow("0", PLANE)
    p, q = np.array([-0.0, 1.0, 0.0]), np.array([1.0, -0.0, 0.0])
    assert _held((p, q), f.field.fn(p, q, 0.0)).tolist() == [False, False, True]
    yp, yq = f.apply(p, q)
    # the flat field is (+0.0, -0.0): the full march turns the -0.0 p
    # into +0.0 (and keeps the -0.0 q, which held or not is the same)
    assert yp[0] == 0.0 and not np.signbit(yp[0])
    for got, want in zip((yp, yq), oracle.apply(f, p, q)):
        assert_bits(got, want)


@pytest.mark.parametrize("name, manifold, jet, holds", [
    ("hinge", PLANE, False, True),
    ("gauss", PLANE, False, False),
    ("band", CYL, False, True),
    ("hinge", PLANE, True, True),
], ids=["hinge", "gauss", "band", "hinge-jet"])
def test_watcher_gets_the_march_s_own_rates(name, manifold, jet, holds):
    # at nodes 0..n-1 the march hands its watcher the rates it steps from
    # there, over the points the node reports; the last node gets None
    f = flow({**PLANE_FIELDS, **CYL_FIELDS}[name], manifold)
    ps, qs = points(manifold)
    if name == "gauss":
        # the bump's center is a zero of the field, which would be held
        keep = (ps != 0.0) | (qs != 0.0)
        ps, qs = ps[keep], qs[keep]
    tangent = None
    if jet:
        tangent = (np.array([np.ones(ps.size), np.zeros(ps.size)]),
                   np.array([np.zeros(ps.size), np.ones(ps.size)]))
    seen = []

    def watch(piece):
        assert piece is f

        def on_node(k, t, pv, qv, moving, k1):
            seen.append((k, t, pv.copy(), qv.copy(), moving, k1))

        return on_node

    f.carry(ps, qs, tangent, watch)
    n = f.n_steps()
    assert [node[0] for node in seen] == list(range(n + 1))
    assert seen[0][4] is None and seen[0][2].size == ps.size
    assert (seen[1][4] is not None) == holds
    for k, t, pv, qv, moving, k1 in seen[:-1]:
        assert len(k1) == (4 if jet else 2)
        want = f.field.fn(pv, manifold.wrap_q(qv), t)
        for got, w in zip(k1[:2], want):
            assert_bits(np.broadcast_to(got, pv.shape), np.broadcast_to(w, pv.shape))
    assert seen[-1][5] is None


def test_time_dependent_field_holds_nothing(monkeypatch):
    f = flow(PLANE_FIELDS["decay"], PLANE)
    assert not f.spec.autonomous
    calls = []
    monkeypatch.setattr("symcocycle.dynamics._held", lambda *a: calls.append(1))
    ps, qs = points(PLANE)
    for got, want in zip(f.apply(ps, qs), oracle.apply(f, ps, qs)):
        assert_bits(got, want)
    assert not calls


def test_lifted_map_of_a_held_band_equals_the_full_march():
    f = flow(CYL_FIELDS["band"], CYL)
    lifted = LiftedMap(ComposedMap([f, TwistMap(parse("0.5*p"), CYL), f.inverse()]))
    ps, qs = points(lifted.manifold)
    want_p, want_q = ps, qs
    for piece in isotopy(lifted.base):
        want_p, want_q, _ = oracle.carry(piece, want_p, want_q, None)
    got_p, got_q = lifted.apply(ps, qs)
    assert_bits(got_p, want_p)
    assert_bits(got_q, want_q)
    jet = map_with_jacobian(lifted, ps, qs)
    assert_bits(jet.yp, want_p)
    assert_bits(jet.yq, want_q)


def test_all_held_batch_returns_fresh_copies_of_its_inputs():
    f = flow(PLANE_FIELDS["hinge"], PLANE)
    p, q = np.array([3.0, -3.5]), np.array([3.0, 0.5])
    yp, yq, _ = f.carry(p, q, None)
    assert_bits(yp, p)
    assert_bits(yq, q)
    assert not np.shares_memory(yp, p) and not np.shares_memory(yq, q)
    values = action_values(f, Primitive.p_dq(), p, q)
    assert_bits(values, oracle.action_values(f, Primitive.p_dq(), p, q))


def test_empty_batch_marches_to_empty_images():
    f = flow(PLANE_FIELDS["hinge"], PLANE)
    empty = np.array([])
    assert [x.shape for x in f.apply(empty, empty)] == [(0,), (0,)]
    jet = map_with_jacobian(f, empty, empty)
    assert jet.yp.shape == jet.dqp.shape == (0,)
    assert action_values(f, Primitive.p_dq(), empty, empty).shape == (0,)


def _outcome(run):
    """The warnings a call issues and the message of the NumericalError it
    raises, or None."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run()
            error = None
        except NumericalError as e:
            error = str(e)
    return [type(w.message) for w in caught], error


def test_held_point_outside_the_window_warns_once_as_the_full_march():
    # the hinge's support is inside the window; the one point past the
    # window plus slack (6 > 4 + 2) is held
    f = flow(PLANE_FIELDS["hinge"], PLANE)
    ps, qs = np.array([0.5, 6.5, 3.0, 1.0]), np.array([0.2, 0.0, 3.0, -1.0])
    assert _held((ps, qs), f.field.fn(ps, qs, 0.0)).tolist() == [False, True, True, False]
    for run, full in (
        (lambda: f.apply(ps, qs), lambda: oracle.apply(f, ps, qs)),
        (lambda: map_with_jacobian(f, ps, qs), lambda: oracle.map_with_jacobian(f, ps, qs)),
        (lambda: action_values(f, Primitive.p_dq(), ps, qs),
         lambda: oracle.action_values(f, Primitive.p_dq(), ps, qs)),
    ):
        got = _outcome(run)
        assert got == _outcome(full)
        assert got == ([EscapedWindowWarning], None)


def test_overflow_of_a_moving_point_counts_the_whole_batch():
    # a field that overflows inside the unit disc and is exactly 0 outside:
    # the moving point ends at -inf, the held ones where they started, and
    # the error counts all five
    f = flow("iflte(p^2 + q^2, 1, exp(1000*p), 0)", PLANE, step=0.5)
    ps, qs = np.array([0.8, 3.0, -3.0, 2.0, 0.0]), np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    with np.errstate(over="ignore"):
        held = _held((ps, qs), f.field.fn(ps, qs, 0.0))
    assert held.tolist() == [False, True, True, True, True]
    for run, full in (
        (lambda: f.apply(ps, qs), lambda: oracle.apply(f, ps, qs)),
        (lambda: map_with_jacobian(f, ps, qs), lambda: oracle.map_with_jacobian(f, ps, qs)),
    ):
        got = _outcome(run)
        assert got == _outcome(full)
        assert got[1] is not None and "not finite at 1 of 5 points" in got[1]
