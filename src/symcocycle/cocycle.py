"""Grid-valued cocycles of area-preserving maps.

For a map f and a primitive one-form alpha, the defect f*alpha - alpha is
exact whenever f preserves areas and has no period obstruction; the
cocycle K(f) is the potential of that defect, a function determined up to
an additive constant.  This module computes K two independent ways:

* ``cocycle_by_path`` integrates f*alpha - alpha from a basepoint along
  axis-aligned two-segment grid paths, with the pullback built from the
  exact jacobian of the computed map (flows carry their tangent by RK4
  on the variational equation, twists by their closed form).

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, positive
from .exprlang import as_expr
from .dynamics import flow_pieces, isotopy, map_with_jacobian
from .geometry import (
    GridSpec,
    Primitive,
    cumulative_integral,
    simpson_weights,
)

__all__ = [
    "GridFunction",
    "GridTooCoarse",
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
#: Least order at which a path disagreement must shrink from the grid of
#: every other node to count as truncation: half the quadrature's fourth
#: order, which the kinks of piecewise-polynomial Hamiltonians lower.
TRUNCATION_ORDER = 2.0
#: Formal order of ``cumulative_integral``, the most a finer grid's
#: estimate assumes.
QUADRATURE_ORDER = 4.0
#: Roache's factor of safety on a Richardson error estimate.
RICHARDSON_SAFETY = 1.25


class NonExactForm(NumericalError):
    """The pullback defect has a detectable period; no single-valued
    potential exists on the region."""


class GridTooCoarse(NumericalError):
    """The two path families disagree by quadrature truncation: the
    disagreement shrinks with the grid spacing at TRUNCATION_ORDER or
    faster.  ``needed`` is the (n_p, n_q) grid that the Richardson
    estimate says brings it under the threshold."""

    def __init__(self, message, needed):
        super().__init__(message)
        self.needed = needed


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

    ``evaluate_cubic`` interpolates with a four-point Lagrange stencil per
    axis, fourth-order accurate, so every grid has at least 4 nodes per
    axis.  On the cylinder evaluation wraps q; grids on the universal
    cover live on a plane model and never wrap.  Coordinates outside the
    window clamp to the edge, which continues boundary values constantly.
    """

    def __init__(self, manifold, samples, normalization):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise ValidationError(
                f"samples must be a matrix, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValidationError("samples contain non-finite values")
        self.manifold = manifold
        self.window = window = manifold.window
        self.samples = samples
        self.normalization = normalization
        self.n_p, self.n_q = samples.shape
        self.grid = GridSpec(self.n_p, self.n_q)
        self.p_nodes = self.grid.p_nodes(window)
        self.q_nodes = self.grid.q_nodes(window)
        self.dp, self.dq = self.grid.spacing(window)

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
        q = self.manifold.wrap_q(np.asarray(q, dtype=float))
        x = np.clip((p - self.window.p_min) / self.dp, 0.0, self.n_p - 1.0)
        y = np.clip((q - self.window.q_min) / self.dq, 0.0, self.n_q - 1.0)
        return x, y

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
        """Four-point Lagrange interpolation per axis; scalar in, float
        out."""
        x, y = self._coords(p, q)
        i0 = np.clip(np.floor(x).astype(int) - 1, 0, self.n_p - 4)
        wx = self._lagrange4(x - i0)
        s = self.samples
        if self.manifold.is_cylinder:
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
        P, Q = self.grid.mesh(self.window)
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


def _pullback_defect(f, form, ps, qs):
    """Components (theta_p, theta_q) of f*(form) - form at the points.

    The pullback uses the exact jacobian of f from ``map_with_jacobian``.
    Images are wrapped on the cylinder before the form is evaluated there.
    A component that is not finite at some point raises NumericalError.
    """
    a_p, a_q = _form_components(form)
    fp, fq = a_p.fn, a_q.fn
    jet = map_with_jacobian(f, ps, qs)
    yq = f.manifold.wrap_q(jet.yq)
    with np.errstate(over="ignore", invalid="ignore"):
        ap_f, aq_f = fp(jet.yp, yq, 0.0), fq(jet.yp, yq, 0.0)
        # the jacobian entries give the batch's shape to constant components
        theta_p = ap_f * jet.dpp + aq_f * jet.dqp - fp(ps, qs, 0.0)
        theta_q = ap_f * jet.dpq + aq_f * jet.dqq - fq(ps, qs, 0.0)
    return _finite("the pullback defect", theta_p, theta_q)


def _finite(what, *values):
    """``values``, or NumericalError naming how many points are not finite."""
    lost = np.count_nonzero(~np.isfinite(values).all(axis=0))
    if lost:
        raise NumericalError(f"{what} overflowed: it is not finite at {lost} of "
                             f"{np.size(values[0])} points; tame the Hamiltonian "
                             "or the primitive, or shrink the window")
    return values


def pullback_difference(f, form, grid=None):
    """Components of f*(form) - form at the grid nodes of f's window.

    Returns (P, Q, theta_p, theta_q).
    """
    grid = grid or GridSpec()
    P, Q = grid.mesh(f.manifold.window)
    theta_p, theta_q = _pullback_defect(f, form, P, Q)
    return P, Q, theta_p, theta_q


def _path_families(theta_p, theta_q, dp, dq, i0, j0):
    """Potentials from node (i0, j0) along the two axis-aligned
    two-segment path families: q-leg first, and p-leg first."""
    ip = cumulative_integral(theta_p, dp, axis=0)
    iq = cumulative_integral(theta_q, dq, axis=1)
    # route 1: q-leg along the basepoint row, then the p-leg
    k_qfirst = (iq[i0, :] - iq[i0, j0])[None, :] + (ip - ip[i0, :][None, :])
    # route 2: p-leg along the basepoint column, then the q-leg
    k_pfirst = (ip[:, j0] - ip[i0, j0])[:, None] + (iq - iq[:, j0][:, None])
    return k_qfirst, k_pfirst


def _disagreement_error(theta_p, theta_q, dp, dq, i0, j0, disagreement, threshold):
    """The error for a path disagreement past the threshold.

    The same cross-check on the grid of every other node through the
    basepoint tells truncation from an obstruction (Richardson; Roache's
    grid-convergence index): a disagreement that shrinks at
    TRUNCATION_ORDER or faster on the finer grid gives GridTooCoarse,
    naming the grid the observed order says is needed; any other gives
    NonExactForm.
    """
    text = (
        f"axis-aligned paths to the same point disagree by "
        f"{disagreement:.3e} (threshold {threshold:.1e})"
    )
    sub_p = theta_p[i0 % 2::2, j0 % 2::2]
    sub_q = theta_q[i0 % 2::2, j0 % 2::2]
    if min(sub_p.shape) < 3:
        return NonExactForm(f"{text}; the defect form is not exact on the window")
    k_qfirst, k_pfirst = _path_families(
        sub_p, sub_q, 2.0 * dp, 2.0 * dq, i0 // 2, j0 // 2
    )
    coarse = float(np.max(np.abs(k_qfirst - k_pfirst)))
    order = math.log2(coarse / disagreement) if coarse > 0.0 else -math.inf
    if order < TRUNCATION_ORDER:
        return NonExactForm(
            f"{text} and by {coarse:.3e} on the grid of every other node; "
            "the defect form is not exact on the window"
        )
    excess = RICHARDSON_SAFETY * disagreement / threshold
    scale = excess ** (1.0 / min(order, QUADRATURE_ORDER))
    needed = tuple(math.ceil((n - 1) * scale) + 1 for n in theta_p.shape)
    return GridTooCoarse(
        f"{text}, {coarse:.3e} on the grid of every other node: quadrature "
        f"truncation falling at order {order:.1f}, not an obstruction; a "
        f"grid of about {needed[0]}x{needed[1]} nodes would resolve it",
        needed,
    )


def _integrate_exact_defect(manifold, theta_p, theta_q, basepoint, tol):
    """Potential of an exact grid one-form on the manifold's window, pinned
    at the basepoint, which the caller has checked lies in the window.

    Integrates along both axis-aligned two-segment path families and
    cross-checks them; on the cylinder additionally checks the loop
    periods row by row.  Past 100*tol, a loop period or a disagreement
    that does not shrink with the grid raises NonExactForm, and one that
    does raises GridTooCoarse.
    """
    window = manifold.window
    n_p, n_q = theta_p.shape
    dp, dq = GridSpec(n_p, n_q).spacing(window)

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

    bp, bq = basepoint
    i0 = int(round((bp - window.p_min) / dp))
    j0 = int(round((bq - window.q_min) / dq))
    k_qfirst, k_pfirst = _path_families(theta_p, theta_q, dp, dq, i0, j0)

    disagreement = float(np.max(np.abs(k_qfirst - k_pfirst)))
    if disagreement > 100.0 * tol:
        raise _disagreement_error(
            theta_p, theta_q, dp, dq, i0, j0, disagreement, 100.0 * tol
        )

    samples = 0.5 * (k_qfirst + k_pfirst)
    out = GridFunction(manifold, samples, Normalization.pinned((bp, bq)))
    # pin at the true basepoint, not just its nearest node
    off = out.evaluate_cubic(bp, bq)
    if off != 0.0:
        out = out.with_samples(samples - off)
    return out


def cocycle_by_path(f, alpha, basepoint=None, grid=None, tol=PATH_TOL):
    """Cocycle of a map by path integration of its pullback defect.

    The result is pinned to zero at the basepoint (window center by
    default).  Raises NonExactForm when path cross-checks or cylinder
    loop periods detect an obstruction beyond 100*tol, and GridTooCoarse
    when the path disagreement is truncation that a finer grid resolves.
    A map without isotopy data, and a tol that is not positive and
    finite, are rejected with ValidationError.
    """
    manifold = f.manifold
    w = manifold.window
    if basepoint is None:
        basepoint = w.center
    bp, bq = float(basepoint[0]), float(basepoint[1])
    # checked before the jet, which marches the whole grid
    if not w.contains(bp, bq, slack=1e-12):
        raise ValidationError(f"basepoint ({bp}, {bq}) is outside the window")
    tol = positive(tol, "tol")
    P, Q, theta_p, theta_q = pullback_difference(f, alpha, grid)
    return _integrate_exact_defect(manifold, theta_p, theta_q, (bp, bq), tol)


# ============================================================
# The action route
# ============================================================


def action_values(flow, alpha, ps, qs):
    """Action-route cocycle values at arbitrary points.

    ``flow`` may be a FlowMap or a composition of FlowMaps.  Per start
    point x and flow piece, the value is the line integral of the form
    along the orbit of x plus the time integral of F(orbit(t), t), both
    by composite Simpson weights on the integrator's own time nodes.
    The pieces are walked in turn, each along the orbits started where
    the previous one ended, and each piece's own sum is added to the
    total at its last node.  Values are defined modulo one constant; a
    value that is not finite raises NumericalError."""
    a_p, a_q = _form_components(alpha)
    fap, faq = a_p.fn, a_q.fn
    flow_pieces(flow)
    p, q = np.broadcast_arrays(np.asarray(ps, dtype=float), np.asarray(qs, dtype=float))
    total = np.zeros(p.shape)

    def watch(piece):
        n = piece.n_steps()
        if n < 2:
            raise ValidationError(
                "action quadrature needs at least two time steps; decrease "
                "the integrator step"
            )
        weights = simpson_weights(n + 1, piece.spec.duration / n)
        ff = piece.spec.F.fn
        wrap = piece.manifold.wrap_q
        acc, c = np.zeros(p.shape), np.zeros(p.shape)  # the sum, the integrand

        def on_node(k, t, pv, qv, moving, k1):
            nonlocal acc, total
            if pv.size:
                qe = wrap(qv)
                # the march's own field; it steps on from every node but the last
                pdot, qdot = piece._rates((pv, qv), t) if k1 is None else k1[:2]
                line = fap(pv, qe, 0.0) * pdot + faq(pv, qe, 0.0) * qdot
                # F is read at the unwrapped q, so chart Hamiltonians with
                # periodic fields but multivalued F (the translation family)
                # accumulate their honest lifted action.  A held point keeps
                # node 0's integrand (same point, an autonomous F reads no
                # t), still added term by term as the full march adds it
                c[... if moving is None else moving] = line + ff(pv, qv, t)
            acc = acc + weights[k] * c
            if k == n:
                total = total + acc

        return on_node

    flow.carry(p, q, None, watch)
    return _finite("the action", total)[0]


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
    flow_pieces(flow)
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
    P, Q = K.grid.mesh(K.window)
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
    """Loop period of f*alpha - alpha around the cylinder's core loop
    (``ManifoldModel.core_loop``); periods below PERIOD_TOL count as zero.

    On the plane there are no loops: a map and a form that pass their
    checks get yes with period zero.
    """
    isotopy(f)
    alpha = _form_components(alpha)
    manifold = f.manifold
    if not manifold.is_cylinder:
        return HamHatReport(True, 0.0)
    ps, qs = manifold.core_loop()
    _, theta_q = _pullback_defect(f, alpha, ps, qs)
    period = float(np.mean(theta_q) * manifold.circumference)
    return HamHatReport(abs(period) < PERIOD_TOL, period)
