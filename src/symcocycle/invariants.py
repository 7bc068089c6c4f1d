"""Derived functionals of the cocycle.

Calabi (the integral of a compactly normalized cocycle), the two-point
difference at fixed points, oscillation, the boundary jump of twists,
flux diagnostics against growth of the lifted cocycle, and a numerical
fixed-point search with refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, finite
from .geometry import (
    GridSpec,
    Primitive,
    WrongManifold,
    area_integrals,
    integrate_area,
    quad_adaptive,
    simpson_weights,
)
from .dynamics import FlowMap, HamiltonianSpec, flow_pieces, isotopy, map_with_jacobian
from .cocycle import PATH_TOL, _form_components, _pullback_defect, action_values
from .cover import LiftedMap, growth_rate, lifted_cocycle

__all__ = [
    "FixedPoint",
    "FixedPointReport",
    "FluxReport",
    "NoFixedPointFound",
    "NotFixedPoint",
    "WrongNormalization",
    "calabi",
    "calabi_from_hamiltonian",
    "find_fixed_points",
    "flux_compare",
    "oscillation",
    "polterovich",
    "twist_boundary_difference",
]


#: How far a point may move under f and still count as fixed.
FIXED_TOL = 1e-8

#: Fixed-point search: scan residuals below EXACT_TOL form exactly fixed
#: regions; refined candidates are kept below ACCEPT_TOL and merged
#: within DEDUP_RADIUS; at most MAX_CANDIDATES seeds are refined.
EXACT_TOL = 1e-10
ACCEPT_TOL = 1e-8
DEDUP_RADIUS = 1e-6
MAX_CANDIDATES = 200

#: Quadrature tolerances of ``calabi_from_hamiltonian`` (per space
#: integral) and of ``twist_boundary_difference``.
CALABI_TOL = 1e-9
TWIST_TOL = 1e-9
#: ``flux_compare`` calls the lifted cocycle bounded when its growth rate
#: along q stays below this.
GROWTH_TOL = 1e-3


class WrongNormalization(ValidationError):
    """The operation needs a differently normalized cocycle."""


class NotFixedPoint(ValidationError):
    """A supplied point moves more than the fixed-point tolerance."""


class NoFixedPointFound(NumericalError):
    """Raised by strict callers, such as the CLI's automatic choice of a
    fixed-point pair, when a fixed-point search finds too few points.

    The search itself returns an empty, flagged report instead of
    raising; a coarse scan finding nothing proves nothing.
    """


# ============================================================
# Calabi
# ============================================================


def calabi(K):
    """Integral of the cocycle over its window.

    Only meaningful for the compactly supported representative, so any
    other normalization is rejected.
    """
    if K.normalization.kind != "compact":
        raise WrongNormalization(
            "calabi needs a compact-support normalized cocycle; call "
            "normalize_compact first (got normalization "
            f"{K.normalization.kind!r})"
        )
    return K.integral()


def calabi_from_hamiltonian(spec, manifold):
    """Twice the space-time integral of the generating Hamiltonian.

    This is the closed-form counterpart of ``calabi`` of the flow's
    cocycle and serves as its oracle in the verification suite.
    """
    if not isinstance(spec, HamiltonianSpec):
        raise ValidationError("expected a HamiltonianSpec")
    w = manifold.window
    if spec.autonomous:
        return 2.0 * integrate_area(spec.F, w, tol=CALABI_TOL) * spec.duration
    return 2.0 * quad_adaptive(
        lambda ts: area_integrals(spec.F.fn, ts.ravel(), w, CALABI_TOL).reshape(ts.shape),
        0.0, spec.duration, tol=10.0 * CALABI_TOL, noise_floor=4.0 * CALABI_TOL,
    )


# ============================================================
# Two-point differences and oscillation
# ============================================================


def _motion(f, p, q):
    dp, dq = f.apply(float(p), float(q))
    return float(f.manifold.norm(dp - p, dq - q))


def polterovich(f, K, x, y):
    """K(x) - K(y) for two fixed points of f.

    Constants cancel in the difference, so any normalization of K is
    accepted.  Both points must genuinely be fixed: each may move by at
    most FIXED_TOL.
    """
    for label, pt in (("x", x), ("y", y)):
        moved = _motion(f, pt[0], pt[1])
        if moved > FIXED_TOL:
            raise NotFixedPoint(
                f"{label} = ({pt[0]:.6g}, {pt[1]:.6g}) moves by {moved:.3e} "
                f"under f (tolerance {FIXED_TOL:.1e})"
            )
    return float(
        K.evaluate_cubic(float(x[0]), float(x[1]))
        - K.evaluate_cubic(float(y[0]), float(y[1]))
    )


def oscillation(K):
    """max - min of the sampled cocycle; constant-shift invariant."""
    return K.oscillation()


# ============================================================
# Twist boundary jump
# ============================================================


def twist_boundary_difference(tw, alpha=None):
    """K(1, q) - K(-1, q) for a twist, by adaptive line quadrature.

    The cocycle of a twist depends on p alone, so the difference is the
    integral of the p-component of the pullback defect along a constant-q
    line.  Adaptive panels keep Gauss nodes away from the profile's
    clamp corners, which fixed grids would smear.
    """
    # parsed once here rather than on every quadrature level
    alpha = _form_components(alpha or Primitive.p_dq())
    q0 = tw.manifold.window.center[1]
    return quad_adaptive(lambda ps: _pullback_defect(tw, alpha, ps, np.full_like(ps, q0))[0],
                         -1.0, 1.0, tol=TWIST_TOL)


# ============================================================
# Fixed points
# ============================================================


@dataclass(frozen=True)
class FixedPoint:
    location: tuple
    residual: float
    action: float | None
    contractible: bool | None
    region_representative: bool = False


@dataclass(frozen=True)
class FixedPointReport:
    points: tuple
    degenerate_identity: bool

    @property
    def found(self):
        return len(self.points) > 0


def _exact_regions(mask, wrap_q):
    """Row and column of the first node, in row-major order, and size of
    each 4-connected region of a boolean grid mask, regions ordered by
    their first nodes.

    Every masked node takes the least flat index among itself and its
    neighbors, then the label of the node that index names (pointer
    jumping), until nothing changes, so a region ends up labelled by its
    first node.  With ``wrap_q`` the q axis is glued; otherwise a
    padding column keeps ``np.roll`` from gluing it.
    """
    if not wrap_q:
        mask = np.pad(mask, ((0, 0), (0, 1)))
    outside = mask.size
    labels = np.where(mask, np.arange(outside).reshape(mask.shape), outside)
    while True:
        least = np.minimum(labels, np.roll(labels, 1, axis=1))
        least = np.minimum(least, np.roll(labels, -1, axis=1))
        least[1:] = np.minimum(least[1:], labels[:-1])
        least[:-1] = np.minimum(least[:-1], labels[1:])
        least = np.where(mask, least, outside)
        least = np.append(least.ravel(), outside)[least]
        if np.array_equal(least, labels):
            break
        labels = least
    firsts, sizes = np.unique(labels[mask], return_counts=True)
    return (*np.unravel_index(firsts, mask.shape), sizes)


def _newton_refine(f, p, q):
    mani = f.manifold
    wrapd = mani.wrap_delta
    w = mani.window
    span = max(w.p_span, w.q_span)

    def residual(pp, qq):
        yp, yq = f.apply(float(pp), float(qq))
        return float(yp - pp), float(wrapd(yq - qq))

    rp, rq = residual(p, q)
    best = float(np.hypot(rp, rq))
    for _ in range(30):
        if best < 1e-13 * (1.0 + abs(p) + abs(q)):
            break
        jet = map_with_jacobian(f, np.array([p]), np.array([q]))
        a = float(jet.dpp[0]) - 1.0
        b = float(jet.dpq[0])
        c = float(jet.dqp[0])
        d = float(jet.dqq[0]) - 1.0
        det = a * d - b * c
        if abs(det) < 1e-14:
            break
        sp = (-d * rp + b * rq) / det
        sq = (c * rp - a * rq) / det
        # damped update: halve the step while the residual grows
        scale = 1.0
        moved = False
        for _ in range(10):
            np_, nq_ = p + scale * sp, q + scale * sq
            if abs(np_) + abs(nq_) > 10.0 * (span + abs(p) + abs(q)):
                scale *= 0.5
                continue
            nrp, nrq = residual(np_, nq_)
            nr = float(np.hypot(nrp, nrq))
            if nr < best:
                p, q, rp, rq, best = np_, nq_, nrp, nrq, nr
                moved = True
                break
            scale *= 0.5
        if not moved:
            break
    return p, q, best if best < ACCEPT_TOL else None


def find_fixed_points(f, grid=None, alpha=None):
    """Scan-and-refine search for fixed points of f on its window.

    Exactly fixed regions (residual below EXACT_TOL over connected
    patches of the scan grid) are reported through one representative
    each, the lexicographically first node.  Isolated candidates start
    from strict local minima of the displacement and are polished by a
    damped Newton iteration on f(x) - x; only residuals below
    ACCEPT_TOL are kept.  When every isotopy piece of the map is a flow
    (the identity has none), the points get their actions from one
    ``action_values`` call; on the cylinder one march of the lift gives
    every point's winding, and so whether it is contractible.  An empty
    report is legal output: finding nothing at one resolution proves
    nothing.
    """
    mani = f.manifold
    w = mani.window
    grid = grid or GridSpec()
    P, Q = grid.mesh(w)
    yp, yq = f.apply(P, Q)
    R = mani.norm(yp - P, yq - Q)

    # on the cylinder the last column repeats the first
    unique = R[:, :-1] if mani.is_cylinder else R
    rows, cols, sizes = _exact_regions(unique < EXACT_TOL, mani.is_cylinder)
    # a clamped twist already fixes half its window; identity-like means
    # essentially everything is fixed
    degenerate = bool(sizes.sum() > 0.9 * unique.size)
    found = [
        (float(P[i, j]), float(Q[i, j]), float(R[i, j]), bool(size > 1))
        for i, j, size in zip(rows, cols, sizes)
    ]

    # strict local minima of the displacement as Newton seeds
    interior = R[1:-1, 1:-1]
    mins = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mins &= interior < R[1 + di : R.shape[0] - 1 + di,
                                 1 + dj : R.shape[1] - 1 + dj]
    seeds = [
        (float(interior[i, j]), float(P[i + 1, j + 1]), float(Q[i + 1, j + 1]))
        for i, j in zip(*np.nonzero(mins))
        if interior[i, j] >= EXACT_TOL
    ]
    seeds.sort()
    for _, sp, sq in seeds[:MAX_CANDIDATES]:
        pp, qq, res = _newton_refine(f, sp, sq)
        if res is None:
            continue
        qq = mani.wrap_q(qq)
        if not w.contains(pp, qq, slack=1e-9):
            continue
        found.append((pp, qq, res, False))

    # lexicographic order, then drop near-duplicates
    found.sort(key=lambda item: (item[0], item[1]))
    kept = []
    for cand in found:
        if not any(
            mani.norm(cand[0] - prev[0], cand[1] - prev[1]) < DEDUP_RADIUS
            for prev in kept
        ):
            kept.append(cand)

    ps = np.array([cand[0] for cand in kept])
    qs = np.array([cand[1] for cand in kept])
    actions = contractible = [None] * len(kept)
    try:
        flow_pieces(f)
    except ValidationError:
        pass  # no generating Hamiltonian, so no action
    else:
        actions = action_values(f, alpha or Primitive.p_dq(), ps, qs).tolist()
    if not mani.is_cylinder:
        contractible = [True] * len(kept)
    else:
        try:
            lifted = LiftedMap(f)
        except ValidationError:
            pass  # no isotopy data, so no winding
        else:
            # the net q-winding of each point's isotopy path
            _, yq = lifted.apply(ps, qs)
            winding = np.round((yq - qs) / mani.circumference)
            contractible = (winding == 0).tolist()
    points = tuple(
        FixedPoint((pp, qq), res, action, closed, is_region)
        for (pp, qq, res, is_region), action, closed in zip(kept, actions, contractible)
    )
    return FixedPointReport(points=points, degenerate_identity=degenerate)


# ============================================================
# Flux
# ============================================================


@dataclass(frozen=True)
class FluxReport:
    """Flux of the isotopy against boundedness of the lifted cocycle.

    ``bounded`` is a finite-window diagnostic: the least-squares growth
    rate of the lifted cocycle along q is compared with GROWTH_TOL on the
    lifted window of ``periods`` fundamental domains, not on the whole
    cover.
    """

    flux_value: float
    growth_rate_of_k: float
    bounded: bool


def _flux_of_flow(m):
    """Core-loop period of the time-integrated flux form of one flow, by
    Simpson's rule on 64 time intervals; a field sample that is not
    finite raises NumericalError."""
    mani = m.manifold
    ps, qs = mani.core_loop()
    duration = m.spec.duration
    field = m.field.fn
    ts = np.linspace(0.0, duration, 65)
    wts = simpson_weights(65, duration / 64)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.array([
            np.broadcast_to(np.asarray(field(ps, qs, float(t))[0], float), qs.shape)
            for t in ts
        ])
    finite("the flux", "tame the Hamiltonian", vals)
    total = 0.0
    for row, wt in zip(vals, wts):
        # loop integral of the dq component by the periodic trapezoid
        total += wt * float(np.mean(row)) * mani.circumference
    return total


def flux_compare(f, alpha=None, grid=None, periods=3, basepoint=None,
                 tol=PATH_TOL):
    """Flux of the isotopy of f next to the growth of its lifted cocycle.

    On the cylinder a map with nonzero flux cannot be Hamiltonian, and
    its lifted cocycle grows linearly in q; both numbers are reported so
    the correspondence can be checked.  ``bounded`` holds when the
    least-squares growth rate stays below GROWTH_TOL.  ``basepoint`` and
    ``tol`` go to ``lifted_cocycle``.
    """
    if not f.manifold.is_cylinder:
        raise WrongManifold("flux_compare is a cylinder diagnostic")
    alpha = alpha or Primitive.p_dq()
    # a twist family moves points along q only, so its flux form is a
    # multiple of dp, which has no period over the core loop
    flux = sum(
        _flux_of_flow(piece) for piece in isotopy(f) if isinstance(piece, FlowMap)
    )
    K = lifted_cocycle(
        f, alpha, grid=grid, periods=periods, basepoint=basepoint, tol=tol
    )
    rate = growth_rate(K, f.manifold.circumference)
    return FluxReport(
        flux_value=float(flux),
        growth_rate_of_k=float(rate),
        bounded=bool(abs(rate) < GROWTH_TOL),
    )
