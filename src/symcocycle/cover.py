"""Lifting cylinder maps to their universal cover.

The cover of the cylinder is a plane strip with the same p band and an
unbounded q coordinate; computations use a window spanning a few
fundamental domains.  A map downstairs lifts once isotopy data is in
hand: flows carry their own trajectories, twists come with an explicit
one-parameter family, and both already return unwrapped q, so the lift
is the base map's ``carry`` of points, and a tangent for its jet, with a
watcher on the flow trajectories for unwrapping gaps.  Plain callables
carry no isotopy data and are rejected.
"""

from __future__ import annotations

import numpy as np

from .errors import NonconvergenceError, ValidationError
from .geometry import GridSpec, Window, WrongManifold, plane
from .dynamics import _as_float_pair, isotopy
from .cocycle import PATH_TOL, cocycle_by_path


class TrajectoryGap(NonconvergenceError):
    """Consecutive trajectory samples jumped more than half the
    circumference, so the unwrapping is ambiguous."""


# ============================================================
# Windows and grids upstairs
# ============================================================


def lifted_window(base_manifold, periods=2):
    """Cover window spanning ``periods`` fundamental domains in q."""
    if not base_manifold.is_cylinder:
        raise WrongManifold("only cylinder maps have a nontrivial cover")
    if periods < 2:
        raise ValidationError(
            "the lifted window must span at least two fundamental domains"
        )
    w = base_manifold.window
    return Window(
        w.p_min, w.p_max, w.q_min, w.q_min + periods * base_manifold.circumference
    )


def lifted_grid(base_grid, periods=2):
    """Grid for the cover whose q spacing matches the base grid.

    The base cylinder grid stores both q endpoints (the last column
    repeats the first), so one fundamental domain holds n_q - 1 fresh
    columns; deck translates of a node then land on nodes again, offset
    by exactly that stride.
    """
    if periods < 2:
        raise ValidationError(
            "the lifted window must span at least two fundamental domains"
        )
    return GridSpec(base_grid.n_p, periods * (base_grid.n_q - 1) + 1)


def deck_stride(K, circumference):
    """Column stride of one deck translate on a lifted grid of a cylinder
    with this circumference."""
    n_q = K.samples.shape[1]
    per = K.window.q_span / circumference
    periods = int(round(per))
    if periods < 2 or abs(per - periods) > 1e-9 * per or (n_q - 1) % periods:
        raise ValidationError(
            "grid does not cover a whole number of fundamental domains"
        )
    return (n_q - 1) // periods


# ============================================================
# Lifted maps
# ============================================================


def _watch_gaps(flow):
    """The ``on_node`` of a lifted flow's march: raises TrajectoryGap at
    the first step in which q jumps by over half the circumference."""
    half = 0.5 * flow.manifold.circumference
    prev = None

    def on_node(k, t, pv, qv, moving, k1):
        nonlocal prev
        if k == 1 and moving is not None:
            # the march reports its moving points only; a held point's q
            # does not change, so its gap is 0
            prev = prev[moving]
        if prev is not None:
            gap = float(np.max(np.abs(qv - prev), initial=0.0))
            if gap > half:
                raise TrajectoryGap(
                    f"trajectory q jumped by {gap:.3e} in one step, "
                    f"more than half the circumference ({half:.3e}); the "
                    "integrator step is too coarse to unwrap"
                )
        prev = np.asarray(qv, dtype=float)

    return on_node


class LiftedMap:
    """Evaluator of the lifted map on cover coordinates (p, unwrapped q).

    ``manifold`` is the plane model of the chosen cover window, so the
    object plugs straight into the path-route cocycle machinery.
    """

    def __init__(self, base, periods=2):
        if not getattr(base, "manifold", None) or not base.manifold.is_cylinder:
            raise WrongManifold("only cylinder maps can be lifted")
        self.base = base
        self.base_manifold = base.manifold
        self.periods = int(periods)
        self.manifold = plane(lifted_window(base.manifold, periods))
        isotopy(base)  # rejects a base without isotopy data

    def apply(self, p, q):
        yp, yq, _ = self.carry(np.asarray(p, float), np.asarray(q, float), None)
        return _as_float_pair(p, q, yp, yq)

    def carry(self, p, q, tangent):
        """Images of float arrays and the tangent pushed forward (or None)
        by the base map's ``carry``, its flows under the gap watcher.  A
        lifted map is no isotopy piece, so no walk hands it a ``watch``."""
        return self.base.carry(p, q, tangent, _watch_gaps)


# ============================================================
# Equivariance diagnostics
# ============================================================


def deck_residual(lifted, ps, qs):
    """max |lift(x + (0, circ)) - lift(x) - (0, circ)| over the points,
    x and its translate lifted in one stacked ``apply``."""
    circ = lifted.base_manifold.circumference
    ps, qs = np.broadcast_arrays(np.asarray(ps, dtype=float), np.asarray(qs, dtype=float))
    (yp0, yp1), (yq0, yq1) = lifted.apply(np.stack([ps, ps]), np.stack([qs, qs + circ]))
    return float(np.max(np.hypot(yp1 - yp0, yq1 - yq0 - circ)))


def projection_residual(lifted, ps, qs):
    """max distance between project-then-map and map-then-project."""
    mani = lifted.base_manifold
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    up, uq = lifted.apply(ps, qs)
    dp, dq = lifted.base.apply(ps, mani.wrap_q(qs))
    return float(np.max(mani.norm(up - dp, mani.wrap_q(uq) - mani.wrap_q(dq))))


# ============================================================
# The lifted cocycle
# ============================================================


def lifted_cocycle(
    f, alpha, grid=None, periods=2, basepoint=None, tol=PATH_TOL
):
    """Path-route cocycle of the lift of the cylinder map ``f`` on the
    cover window.

    ``grid`` is the BASE cylinder grid; the cover grid repeats its q
    spacing across ``periods`` fundamental domains so deck translates
    stay on nodes.
    """
    lm = LiftedMap(f, periods)
    grid = grid or GridSpec()
    return cocycle_by_path(
        lm, alpha, basepoint=basepoint,
        grid=lifted_grid(grid, lm.periods), tol=tol,
    )


def periodicity_residual(K, circumference):
    """max |K(p, q + circ) - K(p, q)| over lifted grid nodes.

    Small iff the lifted cocycle descends to the cylinder, which happens
    exactly when the base map passes the exactness test downstairs.
    """
    stride = deck_stride(K, circumference)
    s = K.samples
    return float(np.max(np.abs(s[:, stride:] - s[:, :-stride])))


def growth_rate(K, circumference):
    """Least-squares slope of K along q, taken over deck translates.

    Every lattice family {(p_i, q_k + j*circ)} is fit with a line in q
    and the slopes are averaged.  A p-translation gives its translation
    amount; anything descending from the cylinder gives ~0.
    """
    stride = deck_stride(K, circumference)
    s = K.samples
    n_q = s.shape[1]
    periods = (n_q - 1) // stride
    qs = K.q_nodes
    # families indexed by (row, column within one domain), samples by j
    fam = np.stack(
        [s[:, j * stride:j * stride + stride] for j in range(periods)], axis=-1
    )
    qf = np.stack(
        [qs[j * stride:j * stride + stride] for j in range(periods)], axis=-1
    )
    qbar = qf.mean(axis=-1, keepdims=True)
    fbar = fam.mean(axis=-1, keepdims=True)
    denom = ((qf - qbar) ** 2).sum(axis=-1)
    slopes = ((qf - qbar) * (fam - fbar)).sum(axis=-1) / denom
    return float(np.mean(slopes))
