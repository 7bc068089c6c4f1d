"""Exact jets against the finite-difference oracle.

``map_with_jacobian`` carries a tangent through the isotopy pieces of a
map: RK4 on the variational equation for flows, the closed form for
twists.  Its images must be bitwise equal to ``apply`` and its jacobian
must agree with the central-difference jacobian of ``fd_jet_oracle`` to
within that oracle's own error.  The bound is fixed here, before any
run:

* truncation: ``FD_H**2 / 6 * D3`` with ``D3 = 100`` bounding the third
  derivatives of these small-amplitude maps on the sampled points;
* roundoff: every RK4 step rounds the images by about ``eps * max|y|``
  and the oracle divides the difference of two images by ``2 * FD_H``,
  so ``n_steps * eps * max|y| / FD_H``, where ``n_steps`` counts the RK4
  steps of every flow piece plus one for each twist piece and one for
  the rounding of the stencil points themselves.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_jet_oracle import FD_H, map_with_jacobian as fd_jet
from symcocycle.cover import LiftedMap
from symcocycle.dynamics import (
    FlowMap,
    GroupWord,
    HamiltonianSpec,
    IdentityMap,
    TwistMap,
    compose,
    map_with_jacobian,
)
from symcocycle.errors import NumericalError
from symcocycle.exprlang import parse
from symcocycle.geometry import Window, cylinder, plane

PLANE = plane(Window(-4, 4, -4, 4))
CYL = cylinder(Window(-2, 2, 0, 2 * math.pi))
EPS = np.finfo(float).eps
D3 = 100.0

PLANE_FLOWS = {
    "b": "0.15*exp(-(0.5*(p - 0.3)^2 + 0.6*(q + 0.2)^2))",
    # the hinge evaluates its field and derivatives through iflte
    "h": "0.05*max(0, 1 - (p^2 + q^2)/6)^4",
    "d": "(1 - t)*0.1*exp(-((p + 0.4)^2 + q^2))",
}
CYL_FLOWS = {
    "c": "0.1*exp(-0.8*p^2)*(1 - cos(q))",
    # a q-translation part: its field has constant components
    "r": "0.08*exp(-0.5*p^2)*sin(q - 0.7) + 0.2*q",
}
PLANE_TWIST = "0.3*sin(p) + 0.1*p^2"
CYL_TWIST = "0.8*sin(p) + 0.3*p"


@functools.lru_cache(maxsize=None)
def generators(kind):
    manifold = PLANE if kind == "plane" else CYL
    flows = PLANE_FLOWS if kind == "plane" else CYL_FLOWS
    maps = {
        name: FlowMap(HamiltonianSpec(parse(text)), manifold, step=0.1)
        for name, text in flows.items()
    }
    maps["t"] = TwistMap(parse(PLANE_TWIST if kind == "plane" else CYL_TWIST), manifold)
    return maps


def points(kind):
    ps = np.linspace(-1.7, 1.9, 7)
    qs = np.linspace(-1.6, 1.8, 6) if kind == "plane" else np.linspace(0.3, 6.1, 6)
    P, Q = np.meshgrid(ps, qs, indexing="ij")
    return P, Q


def n_steps(m):
    pieces = (m if hasattr(m, "factors") else m.base).factors
    return 1 + sum(
        piece.n_steps() if isinstance(piece, FlowMap) else 1 for piece in pieces
    )


def assert_matches_oracle(m, apply, P, Q):
    jet = map_with_jacobian(m, P, Q)
    yp, yq = apply(P, Q)
    assert jet.yp.tobytes() == np.asarray(yp).tobytes()
    assert jet.yq.tobytes() == np.asarray(yq).tobytes()
    oracle = fd_jet(m, P, Q)
    ymax = max(np.max(np.abs(jet.yp)), np.max(np.abs(jet.yq)))
    bound = FD_H**2 / 6.0 * D3 + n_steps(m) * EPS * ymax / FD_H
    for name in ("dpp", "dpq", "dqp", "dqq"):
        err = np.max(np.abs(getattr(jet, name) - getattr(oracle, name)))
        assert err < bound, (name, err, bound)


letters = st.lists(st.tuples(st.sampled_from("bhdt"), st.sampled_from([1, -1])), max_size=4)
cyl_letters = st.lists(st.tuples(st.sampled_from("crt"), st.sampled_from([1, -1])), max_size=4)


@settings(max_examples=20, deadline=None)
@given(letters)
def test_plane_word_jet_matches_the_oracle(word):
    m = compose(GroupWord(tuple(word)), generators("plane"), PLANE)
    assert_matches_oracle(m, m.apply, *points("plane"))


@settings(max_examples=20, deadline=None)
@given(cyl_letters)
def test_cylinder_word_jet_matches_the_oracle(word):
    m = compose(GroupWord(tuple(word)), generators("cylinder"), CYL)
    assert_matches_oracle(m, m.apply, *points("cylinder"))


@settings(max_examples=10, deadline=None)
@given(cyl_letters)
def test_lifted_jet_matches_the_oracle(word):
    lm = LiftedMap(compose(GroupWord(tuple(word)), generators("cylinder"), CYL))
    assert_matches_oracle(lm, lm.apply, *points("cylinder"))


def test_identity_jet_is_the_identity():
    P, Q = points("plane")
    jet = map_with_jacobian(IdentityMap(PLANE), P, Q)
    assert np.array_equal(jet.yp, P) and np.array_equal(jet.yq, Q)
    assert np.all(jet.dpp == 1.0) and np.all(jet.dqq == 1.0)
    assert np.all(jet.dpq == 0.0) and np.all(jet.dqp == 0.0)


def test_composition_jet_is_the_chain_rule():
    gens = generators("plane")
    P, Q = points("plane")
    g, f = gens["b"], gens["t"]
    jg = map_with_jacobian(g, P, Q)
    jf = map_with_jacobian(f, jg.yp, jg.yq)
    jfg = map_with_jacobian(compose(GroupWord.from_string("t b"), gens, PLANE), P, Q)
    # the composition carries g's tangent into f: (Df Dg) row by row
    assert np.array_equal(jfg.dpp, jg.dpp)
    assert np.array_equal(jfg.dqp, jg.dqp + jf.dqp * jg.dpp)
    assert np.allclose(jfg.det(), jf.det() * jg.det(), atol=1e-14)


def test_flow_jet_area_defect_is_the_integrators():
    # RK4 is not symplectic: det Df - 1 of the computed map falls at the
    # method's fourth order as the step halves, down to roundoff
    P, Q = points("plane")
    for name, flow in generators("plane").items():
        if not isinstance(flow, FlowMap):
            continue
        half = FlowMap(flow.spec, PLANE, step=0.5 * flow.step)
        coarse, fine = (
            np.max(np.abs(map_with_jacobian(m, P, Q).det() - 1.0))
            for m in (flow, half)
        )
        assert coarse < 1e-9
        assert fine < coarse / 8.0 + 1e-14, (name, coarse, fine)


def test_overflowing_tangent_is_a_numerical_error():
    # the origin is a fixed point of the hyperbolic flow F = 3000*p*q, so
    # its image stays finite while each RK4 step stretches the tangent by
    # about 4e4 until it overflows
    flow = FlowMap(HamiltonianSpec(parse("3000*p*q")), plane(Window(-2, 2, -2, 2)), step=1e-2)
    origin = np.zeros(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yp, yq = flow.apply(origin, origin)
        assert yp[0] == 0.0 and yq[0] == 0.0
        with pytest.raises(NumericalError, match="not finite at 1 of 1 points"):
            map_with_jacobian(flow, origin, origin)


def test_overflowing_twist_is_a_numerical_error():
    # exp(709) is finite, so at p = 1 the image of exp(709*p) is finite
    # while its slope, 709*exp(709), overflows the tangent; at p = 2 the
    # image overflows too
    twist = TwistMap(parse("exp(709*p)"), CYL)
    p, q = np.array([0.0, 1.0]), np.zeros(2)
    identity = (np.stack([np.ones(2), np.zeros(2)]), np.stack([np.zeros(2), np.ones(2)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yp, yq = twist.apply(p, q)
        assert np.isfinite(yq).all()
        with pytest.raises(NumericalError, match="twist overflowed: it is not finite at 1 of 2 points"):
            twist.carry(p, q, identity)
        with pytest.raises(NumericalError, match="not finite at 1 of 1 points"):
            twist.apply(2.0, 0.0)
