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

A map whose pieces extend those of a live result of the same route
continues its jet or walk instead of marching them again, and
``GridFunction.compose_with`` and the fixed-point scan read either's
images.

The two routes share no code beyond map evaluation, so their agreement is
a strong end-to-end check and is part of the verification suite.

Values live in GridFunction objects tagged with a normalization: pinned
at a basepoint, compactly supported, or considered modulo constants.
Quotient-by-constants comparisons always go through the oscillation of a
difference; no canonical constant is ever chosen silently.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, finite, positive
from .exprlang import as_expr
from .dynamics import ComposedMap, MapJet, flow_pieces, isotopy, map_with_jacobian
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
#: What to do about a defect or an action that overflows.
_REMEDY = "tame the Hamiltonian or the primitive, or shrink the window"


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

    ``walk`` is None except on a route's result, which keeps there the
    read-only end images of its nodes, unwrapped: (p, q), row-major, from
    ``cocycle_by_action``, and the jet (p, q, dP, dQ) in the grid's shape
    from ``cocycle_by_path``; ``with_samples`` and arithmetic make none.
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
        self.walk = None

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

    def _mod_constants(self, samples):
        return self.with_samples(samples, Normalization.mod_constants())

    def _operand(self, other):
        """The samples of a compatible grid function, or a float."""
        if isinstance(other, GridFunction):
            self._check_compatible(other)
            return other.samples
        return float(other)

    def __neg__(self):
        return self._mod_constants(-self.samples)

    def __add__(self, other):
        return self._mod_constants(self.samples + self._operand(other))

    def __sub__(self, other):
        return self._mod_constants(self.samples - self._operand(other))

    def __mul__(self, c):
        return self._mod_constants(self.samples * float(c))

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
        cubic interpolation.  m on this manifold takes the nodes' images
        from a live result of its pieces (``_walk_images``) if any."""
        images = _walk_images(m, self.grid) if m.manifold == self.manifold else None
        if images is None:
            P, Q = self.grid.mesh(self.window)
            images = m.apply(P.ravel(), Q.ravel())
        vals = self.evaluate_cubic(*images)
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


def _pullback_defect(f, form, ps, qs, jet=None):
    """Components (theta_p, theta_q) of f*(form) - form at the points.

    The pullback uses the exact jacobian of f: ``jet`` at the points, or
    ``map_with_jacobian``'s.  Images are wrapped on the cylinder before
    the form is evaluated there.  A component that is not finite at some
    point raises NumericalError.
    """
    a_p, a_q = _form_components(form)
    fp, fq = a_p.fn, a_q.fn
    if jet is None:
        jet = map_with_jacobian(f, ps, qs)
    yq = f.manifold.wrap_q(jet.yq)
    with np.errstate(over="ignore", invalid="ignore"):
        ap_f, aq_f = fp(jet.yp, yq, 0.0), fq(jet.yp, yq, 0.0)
        # the jacobian entries give the batch's shape to constant components
        theta_p = ap_f * jet.dpp + aq_f * jet.dqp - fp(ps, qs, 0.0)
        theta_q = ap_f * jet.dpq + aq_f * jet.dqq - fq(ps, qs, 0.0)
    return finite("the pullback defect", _REMEDY, theta_p, theta_q)


def _jet_key(f, grid):
    """f's jet's key in ``_WALKS``: a map without ``factors``, such as a
    lifted map, is its own single piece."""
    return f.manifold, grid, None, getattr(f, "factors", (f,))


def _grid_jet(f, grid):
    """f's MapJet at ``grid``'s nodes, continuing the longest live jet
    whose pieces begin f's: the rest go through ``map_with_jacobian``
    from its end state, with the whole march's bits, and a full match
    marches nothing."""
    *under, pieces = _jet_key(f, grid)
    for n in range(len(pieces), 0, -1):
        start = _WALKS.get((*under, pieces[:n]))
        if start is not None:
            p, q, dP, dQ = start.walk
            if n == len(pieces):
                return MapJet(p, q, dP[0], dP[1], dQ[0], dQ[1], (dP, dQ))
            rest = ComposedMap(pieces[n:], f.manifold)
            return map_with_jacobian(rest, p, q, tangent=(dP, dQ))
    P, Q = grid.mesh(f.manifold.window)
    return map_with_jacobian(f, P, Q)


def pullback_difference(f, form, grid=None):
    """Components of f*(form) - form at the grid nodes of f's window.

    Returns (P, Q, theta_p, theta_q).
    """
    grid = grid or GridSpec()
    form = _form_components(form)  # rejected before the jet marches
    P, Q = grid.mesh(f.manifold.window)
    theta_p, theta_q = _pullback_defect(f, form, P, Q, _grid_jet(f, grid))
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

    The result keeps f's jet (``_grid_jet``) as its ``walk``, and
    ``_WALKS`` holds it while no equal one is held.
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
    grid = grid or GridSpec()
    alpha = _form_components(alpha)
    P, Q = grid.mesh(w)
    jet = _grid_jet(f, grid)
    theta_p, theta_q = _pullback_defect(f, alpha, P, Q, jet)
    K = _integrate_exact_defect(manifold, theta_p, theta_q, (bp, bq), tol)
    K.walk = jet.yp, jet.yq, *jet.tangent
    for x in K.walk:
        x.flags.writeable = False
    _WALKS.setdefault(_jet_key(f, grid), K)
    return K


# ============================================================
# The action route
# ============================================================


# Every live result of ``cocycle_by_action`` under (manifold, grid, form,
# pieces), the form as its components (a_p, a_q), and of
# ``cocycle_by_path`` under a form of None, since a jet depends on none:
# no route continues the other's record.  Flows compare by identity, so
# a key names the very pieces a walk marched; an entry goes when its
# cocycle does.
_WALKS = weakref.WeakValueDictionary()


def _walk_action(pieces, manifold, form, p, q, total):
    """The action walk over ``pieces`` from the points ``p``, ``q``, each
    piece's own sum added to ``total`` at its last node.  Returns the end
    images and the total; a total that is not finite raises
    NumericalError."""
    fap, faq = form[0].fn, form[1].fn

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

    p, q, _ = ComposedMap(pieces, manifold).carry(p, q, None, watch)
    return p, q, finite("the action", _REMEDY, total)[0]


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
    form = _form_components(alpha)
    pieces = flow_pieces(flow)
    p, q = np.broadcast_arrays(np.asarray(ps, dtype=float), np.asarray(qs, dtype=float))
    return _walk_action(pieces, flow.manifold, form, p, q, np.zeros(p.shape))[2]


def cocycle_by_action(flow, alpha, grid=None):
    """Cocycle of a Hamiltonian flow map from the action integral.

    Accepts a FlowMap or a composition of FlowMaps.  Per grid node x the
    value is

        integral of alpha along the orbit of x
        + integral of F(orbit(t), t) dt over the flow duration,

    accumulated in one streaming march over the whole grid (and over the
    factors in turn for compositions).  The result is a GridFunction
    modulo constants whose samples are the running total and whose
    ``walk`` holds the end images of the nodes, all read-only, so no
    edit can change a later walk that continues them.

    The walk continues the longest live result (``_WALKS``) whose pieces
    begin ``flow``'s, under the same manifold, grid and form, adding the
    same sums in the same order as the whole walk: whichever it
    continues, the bits are the whole walk's.  The very same pieces
    march nothing, and a result is kept while no equal one is.
    """
    # anything else (a bare Hamiltonian specification, a twist) is
    # rejected before its manifold is read
    pieces = flow_pieces(flow)
    manifold = flow.manifold
    grid = grid or GridSpec()
    form = _form_components(alpha)
    under = (manifold, grid, form)
    for done in range(len(pieces), 0, -1):
        start = _WALKS.get((*under, pieces[:done]))
        if start is not None:
            (p, q), total = start.walk, start.samples.ravel()
            break
    else:
        P, Q = grid.mesh(manifold.window)
        done, p, q, total = 0, P.ravel(), Q.ravel(), np.zeros(P.size)
    p, q, total = _walk_action(pieces[done:], manifold, form, p, q, total)
    for x in (p, q, total):
        x.flags.writeable = False
    K = GridFunction(
        manifold, total.reshape(grid.n_p, grid.n_q), Normalization.mod_constants()
    )
    K.walk = p, q
    _WALKS.setdefault((*under, pieces), K)
    return K


def _walk_images(f, grid):
    """f's images of ``grid``'s nodes, as ``apply`` marches them, from a
    live walk or jet of exactly f's pieces on that grid, or None."""
    *_, pieces = _jet_key(f, grid)
    for (manifold, held_grid, _, held), K in _WALKS.items():
        if held == pieces and held_grid == grid and manifold == f.manifold:
            return tuple(x.reshape(grid.n_p, grid.n_q) for x in K.walk[:2])
    return None


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
