"""The full march: every point of a flow's batch stepped at every node.

``FlowMap`` steps only the points its field moves and holds the others
at their inputs; this module keeps the march that steps them all, with
a field call per RK4 stage and the action integrand evaluated at every
time node for every point, as the oracle the held points are compared
with bit for bit.  It reads a flow's public pieces (``field``,
``tangent_field``, ``manifold``, ``spec``, ``step``) and the slack the
flow computed, nothing of its march.
"""

import math
import warnings

import numpy as np

from symcocycle.cocycle import _form_components, simpson_weights
from symcocycle.dynamics import (
    EscapedWindowWarning,
    FlowMap,
    MapJet,
    _as_float_pair,
    _require_finite,
    isotopy,
)


def _linearized(u, v, s, dP, dQ):
    return u * dP + v * dQ, s * dP - u * dQ


def _step_rk4(flow, p, q, t, h):
    field, w = flow.field.fn, flow.manifold.wrap_q
    k1p, k1q = field(p, w(q), t)
    tm = t + 0.5 * h
    k2p, k2q = field(p + 0.5 * h * k1p, w(q + 0.5 * h * k1q), tm)
    k3p, k3q = field(p + 0.5 * h * k2p, w(q + 0.5 * h * k2q), tm)
    k4p, k4q = field(p + h * k3p, w(q + h * k3q), t + h)
    sixth = h / 6.0
    return (
        p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p),
        q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q),
    )


def _step_tangent(flow, p, q, dP, dQ, t, h):
    field, w = flow.tangent_field.fn, flow.manifold.wrap_q
    k1p, k1q, u, v, s = field(p, w(q), t)
    k1P, k1Q = _linearized(u, v, s, dP, dQ)
    tm = t + 0.5 * h
    k2p, k2q, u, v, s = field(p + 0.5 * h * k1p, w(q + 0.5 * h * k1q), tm)
    k2P, k2Q = _linearized(u, v, s, dP + 0.5 * h * k1P, dQ + 0.5 * h * k1Q)
    k3p, k3q, u, v, s = field(p + 0.5 * h * k2p, w(q + 0.5 * h * k2q), tm)
    k3P, k3Q = _linearized(u, v, s, dP + 0.5 * h * k2P, dQ + 0.5 * h * k2Q)
    k4p, k4q, u, v, s = field(p + h * k3p, w(q + h * k3q), t + h)
    k4P, k4Q = _linearized(u, v, s, dP + h * k3P, dQ + h * k3Q)
    sixth = h / 6.0
    return (
        p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p),
        q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q),
        dP + sixth * (k1P + 2.0 * (k2P + k3P) + k4P),
        dQ + sixth * (k1Q + 2.0 * (k2Q + k3Q) + k4Q),
    )


def march(flow, state, t0, t1, on_node=None):
    """Step (p, q) or (p, q, dP, dQ) from t0 to t1; ``on_node(k, t, p, q)``
    sees every point at every node.  One EscapedWindowWarning per call;
    NumericalError when an end point or its tangent is not finite."""
    step = _step_tangent if len(state) > 2 else _step_rk4
    span = t1 - t0
    n = max(1, math.ceil(abs(span) / flow.step))
    h = span / n
    mani = flow.manifold
    escaped = False
    with np.errstate(over="ignore", invalid="ignore"):
        if on_node is not None:
            on_node(0, t0, state[0], state[1])
        for k in range(n):
            state = step(flow, *state, t0 + k * h, h)
            p, q = state[0], state[1]
            if not escaped:
                escaped = mani.escaped(p, q, flow._slack)
            if on_node is not None:
                on_node(k + 1, t0 + (k + 1) * h, p, q)
    _require_finite(state, "the flow", "shrink the window or the step, or "
                    "tame the Hamiltonian")
    if escaped:
        warnings.warn(EscapedWindowWarning("a trajectory left the window plus slack"))
    return state


def apply(flow, p, q):
    out = march(flow, (np.asarray(p, dtype=float), np.asarray(q, dtype=float)),
                0.0, flow.spec.duration)
    return _as_float_pair(p, q, out[0], out[1])


def carry(piece, p, q, tangent):
    """A piece's images and pushed tangent (None stays None); flows by the
    full march, twists by their own closed form."""
    if not isinstance(piece, FlowMap):
        return piece.carry(p, q, tangent)
    if tangent is None:
        p, q = march(piece, (p, q), 0.0, piece.spec.duration)
        return p, q, None
    p, q, dP, dQ = march(piece, (p, q) + tuple(tangent), 0.0, piece.spec.duration)
    return p, q, (dP, dQ)


def map_with_jacobian(m, P, Q):
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    shape = np.broadcast(P, Q).shape
    p = np.broadcast_to(P, shape).copy()
    q = np.broadcast_to(Q, shape).copy()
    dP = np.zeros((2,) + shape)
    dQ = np.zeros((2,) + shape)
    dP[0] = dQ[1] = 1.0
    tangent = (dP, dQ)
    for piece in isotopy(m):
        p, q, tangent = carry(piece, p, q, tangent)
    dP, dQ = tangent
    return MapJet(yp=p, yq=q, dpp=dP[0], dpq=dP[1], dqp=dQ[0], dqq=dQ[1])


def _action_stream(flow, fap, faq, p0, q0):
    n = flow.n_steps()
    h = flow.spec.duration / n
    weights = simpson_weights(n + 1, h)
    ff, field, wrap = flow.spec.F.fn, flow.field.fn, flow.manifold.wrap_q
    acc = np.zeros(np.shape(p0))

    def on_node(k, t, pv, qv):
        nonlocal acc
        qe = wrap(qv)
        pdot, qdot = field(pv, qe, t)
        line = fap(pv, qe, 0.0) * pdot + faq(pv, qe, 0.0) * qdot
        acc = acc + weights[k] * (line + ff(pv, qv, t))

    end_p, end_q = march(
        flow,
        (np.asarray(p0, dtype=float).copy(), np.asarray(q0, dtype=float).copy()),
        0.0, flow.spec.duration, on_node,
    )
    return acc, end_p, end_q


def action_values(flow, alpha, ps, qs):
    a_p, a_q = _form_components(alpha)
    p = np.asarray(ps, dtype=float).copy()
    q = np.asarray(qs, dtype=float).copy()
    total = np.zeros(p.shape)
    for factor in isotopy(flow):
        inc, p, q = _action_stream(factor, a_p.fn, a_q.fn, p, q)
        total = total + inc
    return total
