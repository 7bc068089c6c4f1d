"""Grid-valued cocycles of area-preserving maps.

For a map f and a primitive one-form alpha, the defect f*alpha - alpha is
exact whenever f preserves areas and has no period obstruction; the
cocycle K(f) is the potential of that defect, a function determined up to
an additive constant.  This module computes K two independent ways:

* ``cocycle_by_path`` integrates f*alpha - alpha from a basepoint along
  axis-aligned two-segment grid paths, with the pullback built from a
  finite-difference jacobian of f.

* ``cocycle_by_action`` uses the Hamiltonian action: for the time-duration
  map of F, the value at x is the line integral of alpha along the orbit
  of x plus the time integral of F along that orbit.

The two routes share no code beyond map evaluation, so their agreement is
a strong end-to-end check and is part of the verification suite.

Values live in GridFunction objects tagged with a normalization: pinned
at a basepoint, compactly supported, or considered modulo constants.
Quotient-by-constants comparisons always go through the oscillation of a
difference; no canonical constant is ever chosen silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .exprlang import as_expr
from .dynamics import FD_H, FlowMap, isotopy, map_with_jacobian
from .geometry import (
    GridSpec,
    Primitive,
    cumulative_integral,
    simpson_weights,
)

__all__ = [
    "GridFunction",
    "HamHatReport",
    "NonExactForm",
    "Normalization",
    "NotConstantOutsideSupport",
    "action_values",
    "cocycle_by_action",
    "cocycle_by_path",
    "hamiltonian_test",
    "normalize_compact",
    "pullback_difference",
]

#: Path-route tolerance: the two path families and the cylinder loop
#: periods may disagree by at most 100 times this.
PATH_TOL = 1e-6
#: Largest oscillation outside the support that ``normalize_compact``
#: still treats as one constant.
COMPACT_TOL = 1e-4
#: Largest core-loop period that ``hamiltonian_test`` counts as zero.
PERIOD_TOL = 1e-6


class NonExactForm(NumericalError):
    """The pullback defect has a detectable period; no single-valued
    potential exists on the region."""


class NotConstantOutsideSupport(NumericalError):
    """A cocycle expected to be constant outside the support oscillates
    there beyond tolerance."""


# ============================================================
# Normalization tags and grid functions
# ============================================================


@dataclass(frozen=True)
class Normalization:
    kind: str
    basepoint: tuple | None = None

    @classmethod
    def pinned(cls, x0):
        return cls("pinned", (float(x0[0]), float(x0[1])))

    @classmethod
    def compact(cls):
        return cls("compact")

    @classmethod
    def mod_constants(cls):
        return cls("mod_constants")


class GridFunction:
    """Real samples on a uniform grid over the manifold's window, with
    interpolation.

    Default evaluation is bilinear; ``evaluate_cubic`` interpolates with a
    four-point Lagrange stencil per axis for fourth-order accuracy where
    composition precision matters.  On the cylinder evaluation wraps q;
    grids on the universal cover live on a plane model and never wrap.
    Coordinates outside the window clamp to the edge, which continues
    boundary values constantly.
    """

    def __init__(self, manifold, samples, normalization):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 3 or samples.shape[1] < 3:
            raise ValidationError(
                f"samples must be a matrix with at least 3x3 entries, got "
                f"shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValidationError("samples contain non-finite values")
        self.manifold = manifold
        self.window = window = manifold.window
        self.samples = samples
        self.normalization = normalization
        self._wraps = manifold.is_cylinder
        self.n_p, self.n_q = samples.shape
        self.p_nodes = np.linspace(window.p_min, window.p_max, self.n_p)
        self.q_nodes = np.linspace(window.q_min, window.q_max, self.n_q)
        self.dp = self.p_nodes[1] - self.p_nodes[0]
        self.dq = self.q_nodes[1] - self.q_nodes[0]

    # -- bookkeeping ----------------------------------------------

    def with_samples(self, samples, normalization=None):
        return GridFunction(
            self.manifold, samples, normalization or self.normalization
        )

    def _check_compatible(self, other):
        if (
            self.samples.shape != other.samples.shape
            or self.manifold != other.manifold
        ):
            raise ValidationError(
                "grid functions must share manifold and resolution"
            )

    # -- arithmetic (results are considered modulo constants) -----

    def __neg__(self):
        return self.with_samples(-self.samples, Normalization.mod_constants())

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check_compatible(other)
            return self.with_samples(
                self.samples + other.samples, Normalization.mod_constants()
            )
        return self.with_samples(
            self.samples + float(other), Normalization.mod_constants()
        )

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check_compatible(other)
            return self.with_samples(
                self.samples - other.samples, Normalization.mod_constants()
            )
        return self.with_samples(
            self.samples - float(other), Normalization.mod_constants()
        )

    def __mul__(self, c):
        return self.with_samples(
            self.samples * float(c), Normalization.mod_constants()
        )

    __rmul__ = __mul__

    # -- summaries ------------------------------------------------

    def oscillation(self):
        return float(np.max(self.samples) - np.min(self.samples))

    def max_abs(self):
        return float(np.max(np.abs(self.samples)))

    def equal_mod_constants(self, other, tol=1e-4):
        """Equality in the quotient by constants: the difference must have
        oscillation below tol."""
        self._check_compatible(other)
        diff = self.samples - other.samples
        return float(np.max(diff) - np.min(diff)) < tol

    def integral(self):
        """Integral over the window by tensor-product composite rules."""
        wp = simpson_weights(self.n_p, self.dp)
        wq = simpson_weights(self.n_q, self.dq)
        return float(wp @ self.samples @ wq)

    # -- evaluation -----------------------------------------------

    def _coords(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if self._wraps:
            q = self.window.q_min + np.mod(
                q - self.window.q_min, self.manifold.circumference
            )
        x = np.clip((p - self.window.p_min) / self.dp, 0.0, self.n_p - 1.0)
        y = np.clip((q - self.window.q_min) / self.dq, 0.0, self.n_q - 1.0)
        return x, y

    def evaluate(self, p, q):
        """Bilinear interpolation; scalar in, float out."""
        x, y = self._coords(p, q)
        i = np.clip(np.floor(x).astype(int), 0, self.n_p - 2)
        j = np.clip(np.floor(y).astype(int), 0, self.n_q - 2)
        u = x - i
        v = y - j
        s = self.samples
        out = (
            (1 - u) * (1 - v) * s[i, j]
            + u * (1 - v) * s[i + 1, j]
            + (1 - u) * v * s[i, j + 1]
            + u * v * s[i + 1, j + 1]
        )
        if np.ndim(out) == 0:
            return float(out)
        return out

    @staticmethod
    def _lagrange4(s):
        # cubic Lagrange basis at offsets 0, 1, 2, 3
        a = s - 1.0
        b = s - 2.0
        c = s - 3.0
        return (
            -a * b * c / 6.0,
            s * b * c / 2.0,
            -s * a * c / 2.0,
            s * a * b / 6.0,
        )

    def evaluate_cubic(self, p, q):
        """Four-point Lagrange interpolation per axis."""
        if self.n_p < 4 or self.n_q < 4:
            raise ValidationError(
                "cubic interpolation needs at least 4 nodes per axis"
            )
        x, y = self._coords(p, q)
        i0 = np.clip(np.floor(x).astype(int) - 1, 0, self.n_p - 4)
        wx = self._lagrange4(x - i0)
        s = self.samples
        if self._wraps:
            # wrap the q stencil over the unique columns (the seam column
            # repeats the first one)
            uniq = self.n_q - 1
            j0 = np.floor(y).astype(int) - 1
            wy = self._lagrange4(y - j0)
            cols = [np.mod(j0 + b, uniq) for b in range(4)]
        else:
            j0 = np.clip(np.floor(y).astype(int) - 1, 0, self.n_q - 4)
            wy = self._lagrange4(y - j0)
            cols = [j0 + b for b in range(4)]
        out = 0.0
        for a in range(4):
            row = i0 + a
            acc = 0.0
            for b in range(4):
                acc = acc + wy[b] * s[row, cols[b]]
            out = out + wx[a] * acc
        if np.ndim(out) == 0:
            return float(out)
        return out

    def compose_with(self, m):
        """Samples of self(m(x)) on the same grid, modulo constants, by
        cubic interpolation."""
        P, Q = np.meshgrid(self.p_nodes, self.q_nodes, indexing="ij")
        yp, yq = m.apply(P.ravel(), Q.ravel())
        vals = self.evaluate_cubic(yp, yq)
        return self.with_samples(
            np.asarray(vals).reshape(self.samples.shape),
            Normalization.mod_constants(),
        )

    def fd_gradient(self):
        """(dK/dp, dK/dq) arrays by finite differences: fourth-order
        centered stencils two nodes in from the boundary, second-order
        near it."""
        s = self.samples
        gp = np.gradient(s, self.dp, axis=0, edge_order=2)
        gq = np.gradient(s, self.dq, axis=1, edge_order=2)
        gp[2:-2, :] = (
            s[:-4, :] - 8.0 * s[1:-3, :] + 8.0 * s[3:-1, :] - s[4:, :]
        ) / (12.0 * self.dp)
        gq[:, 2:-2] = (
            s[:, :-4] - 8.0 * s[:, 1:-3] + 8.0 * s[:, 3:-1] - s[:, 4:]
        ) / (12.0 * self.dq)
        return gp, gq


# ============================================================
# Pullback defect on a grid
# ============================================================


def _form_components(form):
    """(a_p, a_q) expressions of a Primitive or of an (a_p, a_q) pair."""
    if isinstance(form, Primitive):
        return form.a_p, form.a_q
    try:
        a_p, a_q = form
    except (TypeError, ValueError):
        raise ValidationError(
            "a one-form must be a Primitive or an (a_p, a_q) pair"
        ) from None
    return as_expr(a_p), as_expr(a_q)


def _pullback_defect(f, form, ps, qs, fd_h=FD_H):
    """Components (theta_p, theta_q) of f*(form) - form at the points.

    The pullback uses the finite-difference jacobian of f; all five
    stencil shifts ride through a single map evaluation.  Images are
    wrapped on the cylinder before the form is evaluated there.
    """
    a_p, a_q = _form_components(form)
    fp, fq = a_p.fn, a_q.fn
    jet = map_with_jacobian(f, ps, qs, fd_h=fd_h)
    yq = f.manifold.wrap_q(jet.yq)
    shape = jet.yp.shape
    ap_f = np.broadcast_to(np.asarray(fp(jet.yp, yq, 0.0), float), shape)
    aq_f = np.broadcast_to(np.asarray(fq(jet.yp, yq, 0.0), float), shape)
    ap_here = np.broadcast_to(np.asarray(fp(ps, qs, 0.0), float), shape)
    aq_here = np.broadcast_to(np.asarray(fq(ps, qs, 0.0), float), shape)
    theta_p = ap_f * jet.dpp + aq_f * jet.dqp - ap_here
    theta_q = ap_f * jet.dpq + aq_f * jet.dqq - aq_here
    return theta_p, theta_q


def pullback_difference(f, form, grid=None, fd_h=FD_H):
    """Components of f*(form) - form at the grid nodes of f's window.

    Returns (P, Q, theta_p, theta_q).
    """
    grid = grid or GridSpec()
    P, Q = grid.mesh(f.manifold.window)
    theta_p, theta_q = _pullback_defect(f, form, P, Q, fd_h)
    return P, Q, theta_p, theta_q


def _integrate_exact_defect(manifold, theta_p, theta_q, basepoint, tol):
    """Potential of an exact grid one-form on the manifold's window, pinned
    at the basepoint, which the caller has checked lies in the window.

    Integrates along both axis-aligned two-segment path families and
    cross-checks them; on the cylinder additionally checks the loop
    periods row by row.  Raises NonExactForm past 100*tol.
    """
    window = manifold.window
    n_p, n_q = theta_p.shape
    dp = window.p_span / (n_p - 1)
    dq = window.q_span / (n_q - 1)

    if manifold.is_cylinder:
        # nonzero loop periods mean no single-valued potential exists
        wq = simpson_weights(n_q, dq)
        periods = theta_q @ wq
        worst = float(np.max(np.abs(periods)))
        if worst > 100.0 * tol:
            raise NonExactForm(
                f"pullback defect has loop period {worst:.3e} "
                f"(threshold {100.0 * tol:.1e}); the map is outside the "
                "kernel of the period cocycle on this window"
            )

    ip = cumulative_integral(theta_p, dp, axis=0)
    iq = cumulative_integral(theta_q, dq, axis=1)

    bp, bq = basepoint
    i0 = int(round((bp - window.p_min) / dp))
    j0 = int(round((bq - window.q_min) / dq))

    # route 1: q-leg along the basepoint row, then the p-leg
    k_qfirst = (iq[i0, :] - iq[i0, j0])[None, :] + (ip - ip[i0, :][None, :])
    # route 2: p-leg along the basepoint column, then the q-leg
    k_pfirst = (ip[:, j0] - ip[i0, j0])[:, None] + (iq - iq[:, j0][:, None])

    disagreement = float(np.max(np.abs(k_qfirst - k_pfirst)))
    if disagreement > 100.0 * tol:
        raise NonExactForm(
            f"axis-aligned paths to the same point disagree by "
            f"{disagreement:.3e} (threshold {100.0 * tol:.1e}); "
            "the defect form is not exact on the window"
        )

    samples = 0.5 * (k_qfirst + k_pfirst)
    out = GridFunction(manifold, samples, Normalization.pinned((bp, bq)))
    # pin at the true basepoint, not just its nearest node
    off = out.evaluate(bp, bq)
    if off != 0.0:
        out = out.with_samples(samples - off)
    return out


def cocycle_by_path(f, alpha, basepoint=None, grid=None, fd_h=FD_H, tol=PATH_TOL):
    """Cocycle of a map by path integration of its pullback defect.

    The result is pinned to zero at the basepoint (window center by
    default).  Raises NonExactForm when path cross-checks or cylinder
    loop periods detect an obstruction beyond 100*tol.
    """
    manifold = f.manifold
    w = manifold.window
    if basepoint is None:
        basepoint = (0.5 * (w.p_min + w.p_max), 0.5 * (w.q_min + w.q_max))
    bp, bq = float(basepoint[0]), float(basepoint[1])
    # checked before the jet, which marches five copies of the grid
    if not w.contains(bp, bq, slack=1e-12):
        raise ValidationError(f"basepoint ({bp}, {bq}) is outside the window")
    P, Q, theta_p, theta_q = pullback_difference(f, alpha, grid, fd_h)
    return _integrate_exact_defect(manifold, theta_p, theta_q, (bp, bq), tol)


# ============================================================
# The action route
# ============================================================


def _action_stream(flow, fap, faq, p0, q0):
    """March one flow, accumulating its action; returns (values, end_p, end_q).

    Per start point x the value is the line integral of the form along
    the orbit of x plus the time integral of F(orbit(t), t); both use
    composite Simpson weights on the integrator's own time nodes.
    """
    manifold = flow.manifold
    n = flow.n_steps()
    if n < 2:
        raise ValidationError(
            "action quadrature needs at least two time steps; decrease the "
            "integrator step"
        )
    duration = flow.spec.duration
    h = duration / n
    weights = simpson_weights(n + 1, h)
    ff = flow.spec.F.fn
    xp, xq = flow._xp, flow._xq
    wrap = manifold.wrap_q
    acc = np.zeros(np.shape(p0))

    def on_node(k, t, pv, qv):
        qe = wrap(qv)
        pdot = xp(pv, qe, t)
        qdot = xq(pv, qe, t)
        line = fap(pv, qe, 0.0) * pdot + faq(pv, qe, 0.0) * qdot
        # F itself is evaluated at the unwrapped representative so that
        # chart Hamiltonians with periodic fields but multivalued F (the
        # translation family) accumulate their honest lifted action
        ham = ff(pv, qv, t)
        nonlocal acc
        acc = acc + weights[k] * (line + ham)

    end_p, end_q = flow._march(
        np.asarray(p0, dtype=float).copy(),
        np.asarray(q0, dtype=float).copy(),
        0.0,
        duration,
        on_node=on_node,
    )
    return acc, end_p, end_q


def _flows_of(m):
    """The isotopy pieces of ``m``, all of which must be flows."""
    flows = isotopy(m)
    if not all(isinstance(factor, FlowMap) for factor in flows):
        raise ValidationError(
            "the action route needs generating Hamiltonian data: a flow, the "
            "identity, or a composition of flows"
        )
    return flows


def action_values(flow, alpha, ps, qs):
    """Action-route cocycle values at arbitrary points.

    ``flow`` may be a FlowMap or a composition of FlowMaps; factors
    accumulate sequentially, each along the orbits started where the
    previous factor ended.  Values are defined modulo one constant.
    """
    a_p, a_q = _form_components(alpha)
    fap, faq = a_p.fn, a_q.fn
    flows = _flows_of(flow)
    p = np.asarray(ps, dtype=float).copy()
    q = np.asarray(qs, dtype=float).copy()
    total = np.zeros(p.shape)
    for factor in flows:
        inc, p, q = _action_stream(factor, fap, faq, p, q)
        total = total + inc
    return total


def cocycle_by_action(flow, alpha, grid=None):
    """Cocycle of a Hamiltonian flow map from the action integral.

    Accepts a FlowMap or a composition of FlowMaps.  Per grid node x the
    value is

        integral of alpha along the orbit of x
        + integral of F(orbit(t), t) dt over the flow duration,

    accumulated in one streaming march over the whole grid (and over the
    factors in turn for compositions).  The result is a GridFunction
    modulo constants.
    """
    # anything else (a bare Hamiltonian specification, a twist) is
    # rejected before its manifold is read
    _flows_of(flow)
    manifold = flow.manifold
    grid = grid or GridSpec()
    P, Q = grid.mesh(manifold.window)
    acc = action_values(flow, alpha, P.ravel(), Q.ravel())
    return GridFunction(
        manifold, acc.reshape(P.shape), Normalization.mod_constants()
    )


# ============================================================
# Normalizations and membership tests
# ============================================================


def normalize_compact(K, support_window):
    """Subtract the constant that K takes outside the support window.

    Requires K to be constant (within COMPACT_TOL of oscillation) on the
    sampled part of its window outside ``support_window``; the classic
    failure is a twist whose profile integral misses one full
    circumference, which takes two different constants on the two sides.
    """
    P, Q = np.meshgrid(K.p_nodes, K.q_nodes, indexing="ij")
    outside = ~support_window.contains(P, Q)
    if not outside.any():
        raise ValidationError(
            "the support window covers the whole grid; nothing to normalize "
            "against"
        )
    vals = K.samples[outside]
    osc = float(np.max(vals) - np.min(vals))
    if osc > COMPACT_TOL:
        raise NotConstantOutsideSupport(
            f"cocycle oscillates by {osc:.3e} outside the claimed support "
            f"(tolerance {COMPACT_TOL:.1e}); no compactly supported "
            "representative exists"
        )
    level = float(np.mean(vals))
    return K.with_samples(K.samples - level, Normalization.compact())


@dataclass(frozen=True)
class HamHatReport:
    """Outcome of the exactness (period) test.

    ``in_ham_hat`` holds when every loop period of f*alpha - alpha
    vanishes within PERIOD_TOL.  Isotopy of f to the identity is not
    checked and cannot be from samples; this is the exactness criterion
    alone.
    """

    in_ham_hat: bool
    period: float


def hamiltonian_test(f, alpha):
    """Loop period of f*alpha - alpha around the cylinder's core circle,
    the loop at the window's middle p, by the trapezoid rule on 1024
    nodes; periods below PERIOD_TOL count as zero.

    On the plane there are no loops and the answer is always yes with
    period zero.
    """
    manifold = f.manifold
    if not manifold.is_cylinder:
        return HamHatReport(True, 0.0)
    w = manifold.window
    circ = manifold.circumference
    qs = w.q_min + circ * np.arange(1024) / 1024
    ps = np.full_like(qs, 0.5 * (w.p_min + w.p_max))
    _, theta_q = _pullback_defect(f, alpha, ps, qs)
    # trapezoid rule on a periodic integrand: just the mean times the length
    period = float(np.mean(theta_q) * circ)
    return HamHatReport(abs(period) < PERIOD_TOL, period)
