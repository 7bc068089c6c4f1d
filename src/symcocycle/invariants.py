"""Derived functionals of the cocycle.

Calabi (the integral of a compactly normalized cocycle), the two-point
difference at fixed points, oscillation, the boundary jump of twists,
flux diagnostics against growth of the lifted cocycle, and a numerical
fixed-point search with refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import (
    GridSpec,
    Primitive,
    Window,
    WrongManifold,
    integrate_area,
    quad_adaptive,
    simpson_weights,
)
from .dynamics import FlowMap, HamiltonianSpec, isotopy, map_with_jacobian
from .cocycle import _form_components, _pullback_defect, action_values
from .cover import LiftedMap, growth_rate, lifted_cocycle, lifted_window

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
    ff = spec.F.fn
    if spec.autonomous:
        area = integrate_area(spec.F, w, tol=CALABI_TOL)
        return 2.0 * area * spec.duration

    def at_time(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty(ts.shape)
        for i, tv in enumerate(ts):
            out[i] = integrate_area(
                lambda p, q: ff(p, q, float(tv)), w, tol=CALABI_TOL
            )
        return out

    return 2.0 * quad_adaptive(
        at_time, 0.0, spec.duration, tol=10.0 * CALABI_TOL,
        noise_floor=4.0 * CALABI_TOL,
    )


# ============================================================
# Two-point differences and oscillation
# ============================================================


def _motion(f, p, q):
    dp, dq = f.apply(float(p), float(q))
    return float(np.hypot(dp - p, f.manifold.wrap_delta(dq - q)))


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
    # parsed once here rather than on every quadrature panel
    alpha = _form_components(alpha or Primitive.p_dq())
    w = tw.manifold.window
    q0 = 0.5 * (w.q_min + w.q_max)

    def theta_p(ps):
        ps = np.asarray(ps, dtype=float)
        qs = np.full_like(ps, q0)
        return _pullback_defect(tw, alpha, ps, qs)[0]

    return quad_adaptive(theta_p, -1.0, 1.0, tol=TWIST_TOL)


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


def _exact_components(mask, wrap_q):
    """Connected components of a boolean grid mask, 4-neighbor flood fill.

    With ``wrap_q`` the last column is a duplicate of the first and the q
    axis is glued.
    """
    n_p, n_q = mask.shape
    cols = n_q - 1 if wrap_q else n_q
    seen = np.zeros((n_p, cols), dtype=bool)
    comps = []
    for i0 in range(n_p):
        for j0 in range(cols):
            if not mask[i0, j0] or seen[i0, j0]:
                continue
            stack = [(i0, j0)]
            seen[i0, j0] = True
            comp = []
            while stack:
                i, j = stack.pop()
                comp.append((i, j))
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if wrap_q:
                        nj %= cols
                    if 0 <= ni < n_p and 0 <= nj < cols:
                        if mask[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            stack.append((ni, nj))
            comps.append(sorted(comp))
    return comps


def _newton_refine(f, p, q, max_iter=30):
    mani = f.manifold
    wrapd = mani.wrap_delta
    w = mani.window
    span = max(w.p_span, w.q_span)

    def residual(pp, qq):
        yp, yq = f.apply(float(pp), float(qq))
        return float(yp - pp), float(wrapd(yq - qq))

    rp, rq = residual(p, q)
    best = float(np.hypot(rp, rq))
    for _ in range(max_iter):
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


def _winding_of_orbit(f, p, q):
    """Net q-winding of the isotopy path of a fixed point, or None."""
    mani = f.manifold
    if not mani.is_cylinder:
        return 0
    try:
        lm = LiftedMap(f)
    except (ValidationError, WrongManifold):
        return None
    _, yq = lm.apply(float(p), float(q))
    return int(round((yq - q) / mani.circumference))


def find_fixed_points(f, grid=None, alpha=None):
    """Scan-and-refine search for fixed points of f on its window.

    Exactly fixed regions (residual below EXACT_TOL over connected
    patches of the scan grid) are reported through one representative
    each, the lexicographically first node.  Isolated candidates start
    from strict local minima of the displacement and are polished by a
    damped Newton iteration on f(x) - x; only residuals below
    ACCEPT_TOL are kept.  An empty report is legal output: finding
    nothing at one resolution proves nothing.
    """
    mani = f.manifold
    w = mani.window
    grid = grid or GridSpec()
    P, Q = grid.mesh(w)
    yp, yq = f.apply(P, Q)
    R = np.hypot(yp - P, mani.wrap_delta(yq - Q))

    exact = R < EXACT_TOL
    wrap_q = mani.is_cylinder
    comps = _exact_components(exact, wrap_q)
    n_exact = int(exact[:, : exact.shape[1] - 1].sum() if wrap_q else exact.sum())
    cells = (exact.shape[0]) * (exact.shape[1] - (1 if wrap_q else 0))
    # a clamped twist already fixes half its window; identity-like means
    # essentially everything is fixed
    degenerate = n_exact > 0.9 * cells

    found = []
    for comp in comps:
        i, j = comp[0]
        found.append((float(P[i, j]), float(Q[i, j]), float(R[i, j]), len(comp) > 1))

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
        dup = False
        for prev in kept:
            dq_ = mani.wrap_delta(cand[1] - prev[1])
            if np.hypot(cand[0] - prev[0], dq_) < DEDUP_RADIUS:
                dup = True
                break
        if not dup:
            kept.append(cand)

    single_flow = isinstance(f, FlowMap)
    points = []
    for pp, qq, res, is_region in kept:
        action = None
        if single_flow:
            vals = action_values(
                f, alpha or Primitive.p_dq(), np.array([pp]), np.array([qq])
            )
            action = float(vals[0])
        winding = _winding_of_orbit(f, pp, qq)
        contractible = None if winding is None else (winding == 0)
        points.append(
            FixedPoint(
                location=(pp, qq),
                residual=res,
                action=action,
                contractible=contractible,
                region_representative=is_region,
            )
        )
    return FixedPointReport(points=tuple(points), degenerate_identity=degenerate)


# ============================================================
# Flux
# ============================================================


@dataclass(frozen=True)
class FluxReport:
    """Flux of the isotopy against boundedness of the lifted cocycle.

    ``bounded`` is a finite-window diagnostic: the least-squares growth
    rate of the lifted cocycle along q is compared with GROWTH_TOL on the
    window reported here, not on the whole cover.
    """

    flux_value: float
    growth_rate_of_k: float
    bounded: bool
    window: Window


def _flux_of_flow(m, n_loop=1024, n_time=64):
    """Core-loop period of the time-integrated flux form of one flow."""
    mani = m.manifold
    w = mani.window
    p0 = 0.5 * (w.p_min + w.p_max)
    qs = w.q_min + mani.circumference * np.arange(n_loop) / n_loop
    ps = np.full_like(qs, p0)
    duration = m.spec.duration
    xp = m._xp
    ts = np.linspace(0.0, duration, n_time + 1)
    wts = simpson_weights(n_time + 1, duration / n_time)
    total = 0.0
    for t, wt in zip(ts, wts):
        # loop integral of the dq component by the periodic trapezoid
        vals = np.broadcast_to(
            np.asarray(xp(ps, qs, float(t)), float), qs.shape
        )
        total += wt * float(np.mean(vals)) * mani.circumference
    return total


def flux_compare(f, alpha=None, grid=None, periods=3):
    """Flux of the isotopy of f next to the growth of its lifted cocycle.

    On the cylinder a map with nonzero flux cannot be Hamiltonian, and
    its lifted cocycle grows linearly in q; both numbers are reported so
    the correspondence can be checked.  ``bounded`` holds when the
    least-squares growth rate stays below GROWTH_TOL.
    """
    if not f.manifold.is_cylinder:
        raise WrongManifold("flux_compare is a cylinder diagnostic")
    alpha = alpha or Primitive.p_dq()
    # a twist family moves points along q only, so its flux form is a
    # multiple of dp, which has no period over the core loop
    flux = sum(
        _flux_of_flow(piece) for piece in isotopy(f) if isinstance(piece, FlowMap)
    )
    K = lifted_cocycle(f, alpha, grid=grid, periods=periods)
    rate = growth_rate(K, f.manifold.circumference)
    return FluxReport(
        flux_value=float(flux),
        growth_rate_of_k=float(rate),
        bounded=bool(abs(rate) < GROWTH_TOL),
        window=lifted_window(f.manifold, periods),
    )
