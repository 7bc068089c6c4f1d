"""Chart models, primitive one-forms and quadrature.

Two manifold models are supported, both with the area form dp^dq on a
global (p, q) chart: the plane, and the open cylinder where q lives modulo
a circumference (default 2*pi).  A rectangular window marks the compact
region of computational interest; on the cylinder the window must span
exactly one circumference in q so that grids tile the circle.

A primitive is a one-form a_p*dp + a_q*dq whose exterior derivative is the
area form.  Three built-ins are provided (``p_dq``, ``minus_q_dp``,
``symmetric``) plus custom pairs of expressions.  Quadrature is adaptive
Gauss-Legendre for line and area integrals, plus fixed-node composite rules
used by the grid-based code elsewhere in the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError, NumericalError, ValidationError, finite
from .exprlang import Expr, as_expr

__all__ = [
    "GridSpec",
    "ManifoldModel",
    "Primitive",
    "QuadratureNonconvergence",
    "Window",
    "WrongManifold",
    "cumulative_integral",
    "cylinder",
    "integrate_area",
    "plane",
    "quad_adaptive",
    "simpson_weights",
]

TWO_PI = 2.0 * math.pi


class QuadratureNonconvergence(NonconvergenceError):
    """Adaptive refinement hit its depth cap without meeting the tolerance."""


class WrongManifold(ValidationError):
    """An operation that only makes sense on one manifold model was called
    on the other."""


# ============================================================
# Windows and grids
# ============================================================


@dataclass(frozen=True)
class Window:
    """Closed rectangle [p_min, p_max] x [q_min, q_max] in the chart."""

    p_min: float
    p_max: float
    q_min: float
    q_max: float

    def __post_init__(self):
        vals = (self.p_min, self.p_max, self.q_min, self.q_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"window bounds must be finite, got {vals}")
        if not (self.p_min < self.p_max and self.q_min < self.q_max):
            raise ValidationError(
                f"window must have positive area, got "
                f"[{self.p_min}, {self.p_max}] x [{self.q_min}, {self.q_max}]"
            )

    @property
    def p_span(self):
        return self.p_max - self.p_min

    @property
    def q_span(self):
        return self.q_max - self.q_min

    @property
    def center(self):
        return 0.5 * (self.p_min + self.p_max), 0.5 * (self.q_min + self.q_max)

    def contains(self, p, q, slack=0.0):
        """Whether (p, q) lies in the window grown by ``slack``; elementwise
        on arrays."""
        return (
            (self.p_min - slack <= p) & (p <= self.p_max + slack)
            & (self.q_min - slack <= q) & (q <= self.q_max + slack)
        )

    def contains_window(self, other):
        return (
            self.p_min <= other.p_min
            and other.p_max <= self.p_max
            and self.q_min <= other.q_min
            and other.q_max <= self.q_max
        )


@dataclass(frozen=True)
class GridSpec:
    """Uniform node counts for sampling a window, endpoints included."""

    n_p: int = 101
    n_q: int = 101

    def __post_init__(self):
        if self.n_p < 4 or self.n_q < 4:
            raise ValidationError(
                f"grids need at least 4 nodes per axis, got {self.n_p} x {self.n_q}"
            )

    def p_nodes(self, window):
        return np.linspace(window.p_min, window.p_max, self.n_p)

    def q_nodes(self, window):
        return np.linspace(window.q_min, window.q_max, self.n_q)

    def spacing(self, window):
        """(dp, dq), the difference of the first two nodes on each axis:
        the one spacing every grid computation uses."""
        p, q = self.p_nodes(window), self.q_nodes(window)
        return p[1] - p[0], q[1] - q[0]

    def mesh(self, window):
        """(P, Q) arrays of shape (n_p, n_q); p varies along the first axis."""
        return np.meshgrid(
            self.p_nodes(window), self.q_nodes(window), indexing="ij"
        )


# ============================================================
# Manifold models
# ============================================================

#: The fewest points ``ManifoldModel.wrap_q`` hands to
#: ``_floor_remainder``: below it the three reductions of the exactness
#: test cost more than ``np.mod``'s per-point price saves (the two cross
#: at about 600-800 points on a 2-core Xeon KVM guest: 3.1 against 11.2
#: us at 100 points, 14.8 against 13.4 us at 700).  A cylinder-cover
#: pass wraps 1,603 batches of 100 points and 3 of 10 below it, in
#: 10.6-12.8 ms through ``np.mod`` and 19.2-26.6 ms through
#: ``_floor_remainder``, so the threshold saves about 10 ms per pass.
WRAP_FAST_MIN = 700

_FLOAT_MAX = int(sys.float_info.max)


def exact_multiples(c):
    """The largest K <= 2**30 for which every j*c with |j| <= K is a
    finite float equal to the exact product (10 for c = fl(2*pi)).

    Write c = n * 2**e with n odd.  Then j*c is exact when the odd part
    of j, times n, is below 2**53 and the product does not overflow; the
    first j that fails is the least odd one at or above 2**53 / n.
    """
    num, den = float(c).as_integer_ratio()
    odd = num // (num & -num)
    first = -(-(1 << 53) // odd)
    first += 1 - first % 2
    return min(first - 1, 1 << 30, _FLOAT_MAX * den // num)


def _floor_remainder(r, c, reach):
    """``np.mod(r, c)`` for an array r and c > 0 as r - floor(r/c)*c,
    or None when that might differ from it in any bit.

    With every |r| <= reach*c (``reach`` from ``exact_multiples``), the
    quotient k = floor(fl(r/c)) has |k| <= reach, so k*c is exact; and
    k is never below the true floor, since fl is monotone and integers
    of that size are floats.  When k is the true floor, r - k*c is, for
    k >= 0, the exact remainder fmod returns, and for k < 0 one rounding
    of fmod(r, c) + c, numpy's own correction; a zero comes out +0.0,
    as numpy makes it.  A k past the true floor leaves r - k*c < 0, so
    a nonnegative result shows that no quotient overshot.  NaN and
    infinities fail the range test, so nothing here can overflow.
    """
    bound = reach * c
    if not (-bound <= r.min() and r.max() <= bound):
        return None
    m = r / c
    np.floor(m, out=m)
    np.multiply(m, c, out=m)
    np.subtract(r, m, out=m)
    if not m.min() >= 0.0:
        return None
    return m


@dataclass(frozen=True)
class ManifoldModel:
    """The plane or the open cylinder, with its window of interest.

    On the cylinder the window is required to span exactly one
    circumference in q, so that grid nodes cover the circle once with the
    two edge columns identified.
    """

    kind: str
    window: Window
    circumference: float = TWO_PI

    def __post_init__(self):
        if self.kind not in ("plane", "cylinder"):
            raise ValidationError(
                f"manifold kind must be 'plane' or 'cylinder', got {self.kind!r}"
            )
        if self.kind == "cylinder":
            if not (self.circumference > 0 and math.isfinite(self.circumference)):
                raise ValidationError(
                    f"circumference must be positive, got {self.circumference}"
                )
            if abs(self.window.q_span - self.circumference) > 1e-9 * self.circumference:
                raise ValidationError(
                    "cylinder window must span exactly one circumference in q: "
                    f"q span {self.window.q_span} vs circumference "
                    f"{self.circumference}"
                )
            # set once here; the frozen dataclass does not compare it
            object.__setattr__(
                self, "_reach", exact_multiples(self.circumference)
            )

    @property
    def is_cylinder(self):
        return self.kind == "cylinder"

    def wrap_q(self, q):
        """Representative of q in [q_min, q_min + circumference], bitwise
        equal to ``q_min + np.mod(q - q_min, circumference)`` (the upper
        end only where np.mod rounds up to it).  Batches of at least
        WRAP_FAST_MIN points take ``_floor_remainder``; scalars, smaller
        batches and batches it declines take ``np.mod``."""
        if not self.is_cylinder:
            return q
        q0, c = self.window.q_min, self.circumference
        r = np.asarray(q, dtype=float) - q0
        m = _floor_remainder(r, c, self._reach) if r.size >= WRAP_FAST_MIN else None
        if m is None:
            m = np.mod(r, c)
        out = q0 + m
        if np.ndim(out) == 0:
            return float(out)
        return out

    def escaped(self, p, q, slack):
        """Whether any of the points is a NaN or lies outside the window
        grown by ``slack``.  On the cylinder only p is read: a finite q wraps
        into [q_min, q_min + circumference], inside the window plus any
        positive slack, and a march whose q is not finite raises
        NumericalError before it would warn."""
        w = self.window
        return p.size > 0 and not (
            w.p_min - slack <= p.min() and p.max() <= w.p_max + slack
            and (self.is_cylinder
                 or w.q_min - slack <= q.min() and q.max() <= w.q_max + slack))

    def wrap_delta(self, dq):
        """Smallest representative of a q-difference, in (-circ/2, circ/2]."""
        if not self.is_cylinder:
            return dq
        c = self.circumference
        out = np.asarray(dq, dtype=float) - c * np.floor(
            np.asarray(dq, dtype=float) / c + 0.5
        )
        # floor(x + 1/2) maps the half-open boundary to -c/2; flip it
        out = np.where(out <= -0.5 * c, out + c, out)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def norm(self, dp, dq):
        """Length of the displacement (dp, dq), dq wrapped on the cylinder."""
        return np.hypot(dp, self.wrap_delta(dq))

    def core_loop(self):
        """(ps, qs) at the 1024 nodes of the periodic trapezoid rule on the
        cylinder's core circle, the loop at the window's middle p: the mean
        of a q-periodic integrand there, times the circumference, is its
        loop integral."""
        w = self.window
        qs = w.q_min + self.circumference * np.arange(1024) / 1024
        return np.full_like(qs, w.center[0]), qs


def q_jump(manifold, fn, t, what, remedy):
    """How ``fn(p, q, t)``, or a component of the tuple it returns, fails
    to repeat across one circumference in q on a 13x13 grid of the window,
    as text, or None when every component's jumps stay within
    1e-9*(1 + max|value|): the test that a field descends to the cylinder.
    A sample or its translate that is not finite raises NumericalError
    naming ``what``."""
    P, Q = GridSpec(13, 13).mesh(manifold.window)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        here = fn(P, Q, t)
        there = fn(P, Q + manifold.circumference, t)
    if not isinstance(here, tuple):
        here, there = (here,), (there,)
    here, there = ([np.broadcast_to(np.asarray(x, dtype=float), P.shape) for x in xs]
                   for xs in (here, there))
    finite(what, remedy, *here, *there)
    worst = None
    for a, b in zip(here, there):
        gap = float(np.max(np.abs(a - b)))
        if gap > 1e-9 * (1.0 + float(np.max(np.abs(a)))):
            worst = gap if worst is None else max(worst, gap)
    return None if worst is None else f"jumps by {worst:.3e} across one circumference"


def plane(window):
    return ManifoldModel("plane", window)


def cylinder(window, circumference=TWO_PI):
    return ManifoldModel("cylinder", window, circumference)


# ============================================================
# Primitive one-forms
# ============================================================


@dataclass(frozen=True)
class Primitive:
    """One-form a_p*dp + a_q*dq with d(alpha) equal to the area form."""

    name: str
    a_p: Expr
    a_q: Expr

    @classmethod
    def p_dq(cls):
        return cls("p_dq", as_expr(0.0), as_expr("p"))

    @classmethod
    def minus_q_dp(cls):
        return cls("minus_q_dp", as_expr("-q"), as_expr(0.0))

    @classmethod
    def symmetric(cls):
        return cls("symmetric", as_expr("-q/2"), as_expr("p/2"))

    @classmethod
    def custom(cls, a_p, a_q):
        return cls("custom", as_expr(a_p), as_expr(a_q))

    @classmethod
    def named(cls, name):
        try:
            return {
                "p_dq": cls.p_dq,
                "minus_q_dp": cls.minus_q_dp,
                "symmetric": cls.symmetric,
            }[name]()
        except KeyError:
            raise ValidationError(
                f"unknown primitive {name!r}; built-ins are p_dq, "
                f"minus_q_dp, symmetric"
            ) from None

    def __post_init__(self):
        for comp in (self.a_p, self.a_q):
            if "t" in comp.free_vars():
                raise ValidationError(
                    "primitive components must not depend on time"
                )

    def validate(self, manifold):
        """Check d(alpha) = dp^dq within 1e-8 on a 13x13 grid of the window
        and, on the cylinder, q-periodicity of both components.  Returns
        self."""
        tol = 1e-8
        P, Q = GridSpec(13, 13).mesh(manifold.window)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            curl = self.a_q.diff("p")(P, Q, 0.0) - self.a_p.diff("q")(P, Q, 0.0)
        remedy = "tame the primitive or shrink the window"
        curl = finite("d(alpha)", remedy, np.broadcast_to(curl, P.shape))[0]
        deviation = np.abs(curl - 1.0)
        dev = float(np.max(deviation))
        if dev > tol:
            i = int(np.argmax(deviation))
            bad = (float(P.ravel()[i]), float(Q.ravel()[i]))
            raise ValidationError(
                f"d(alpha) deviates from the area form by {dev:.3e} "
                f"(tolerance {tol:.1e}) near {bad}"
            )
        if manifold.is_cylinder:
            for label, comp in (("a_p", self.a_p), ("a_q", self.a_q)):
                why = q_jump(manifold, comp, 0.0,
                             f"primitive {self.name!r} component {label}", remedy)
                if why is not None:
                    raise ValidationError(
                        f"primitive {self.name!r} is not periodic in q on the "
                        f"cylinder: component {label} {why}"
                    )
        return self


# ============================================================
# Adaptive Gauss-Legendre quadrature
# ============================================================

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)


def _panels(f, a, b, k):
    """10-point Gauss-Legendre sums of integrand k[i] over [a[i], b[i]]
    from one call ``f(nodes, k)``, each by its own ``np.dot`` for its bits."""
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[:, None] + half[:, None] * _GAUSS_X
    # constant integrands may come back as scalars; broadcast before dotting
    vals = np.broadcast_to(np.asarray(f(pts, k), dtype=float), pts.shape)
    total = half * np.array([np.dot(_GAUSS_W, v) for v in vals])
    if not np.isfinite(total).all():
        i = np.argmin(np.isfinite(total))
        raise NumericalError(f"the integrand is not finite on [{float(a[i])}, {float(b[i])}]")
    return total


#: Bisection levels ``quad_adaptive`` refines before it gives up.
QUAD_DEPTH_CAP = 40


def _quad_levels(f, m, a, b, tol, noise_floor):
    """``quad_adaptive`` of m integrands, one call ``f(nodes, k)`` per
    bisection level on the panels still refining (row i of integrand
    k[i]), with the bits of bisecting each one recursively.  Of several
    failures, the shallowest, and there the leftmost, is raised."""
    k = np.arange(m)
    lo, hi = np.full(m, float(a)), np.full(m, float(b))
    whole = _panels(f, lo, hi, k)
    levels = []  # each level's left + right sums, and which were accepted
    for depth_left in range(QUAD_DEPTH_CAP, -1, -1):
        mid = 0.5 * (lo + hi)
        los, his, ks = (np.column_stack(x).ravel() for x in ((lo, mid), (mid, hi), (k, k)))
        halves = _panels(f, los, his, ks)
        better = halves[0::2] + halves[1::2]
        residual = np.abs(better - whole)
        done = residual <= np.maximum(tol, noise_floor * (hi - lo))
        levels.append((better, done))
        if done.all():
            break
        if depth_left <= 0:
            i = np.argmin(done)
            raise QuadratureNonconvergence(
                f"adaptive quadrature failed on [{float(lo[i])}, {float(hi[i])}]: "
                f"residual {residual[i]:.3e} exceeds {tol:.3e}"
            )
        split = np.repeat(~done, 2)
        lo, hi, k, whole = los[split], his[split], ks[split], halves[split]
        tol = 0.5 * tol
    total = levels.pop()[0]
    for better, done in reversed(levels):
        better[~done] = total[0::2] + total[1::2]
        total = better
    return total


def quad_adaptive(f, a, b, tol=1e-10, noise_floor=0.0):
    """Integrate a vectorized callable over [a, b] by adaptive bisection.

    Each panel is compared against its two halves with 10-point
    Gauss-Legendre; panels that disagree by more than their share of the
    tolerance are split; ``f`` gets a level's panels at once, a row each.
    Raises QuadratureNonconvergence past QUAD_DEPTH_CAP levels (far below
    attainable resolution for any integrand this package produces), and
    NumericalError, not numpy warnings, for a panel whose integrand is
    not finite.

    ``noise_floor`` is the irreducible per-unit-length uncertainty of the
    integrand itself.  Iterated integrals use it so the outer pass stops
    refining once panel residuals drop to the noise carried by the inner
    pass; such panels contribute at most noise_floor * (b - a) in total.
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if a == b:
        return 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return float(_quad_levels(lambda x, k: f(x), 1, a, b, tol, noise_floor)[0])


def _q_integrals(fn, ps, ts, window, tol):
    """The q-integrals of fn(p, q, t) over the window at the points ps
    (an array) and the times ts (broadcast to it), one batch a level."""
    P, T = (np.repeat(np.broadcast_to(x, ps.shape), 10).reshape(-1, 10) for x in (ps, ts))
    return _quad_levels(lambda qs, k: fn(P[k], qs, T[k]), len(P), window.q_min,
                        window.q_max, tol, 0.0).reshape(ps.shape)


def integrate_area(g, window, tol=1e-10):
    """Iterated adaptive quadrature over the window of an expression or
    of a vectorized callable g(p, q)."""
    fn = g.fn if isinstance(g, Expr) else lambda p, q, t: g(p, q)
    inner = tol / (8.0 * window.p_span)
    return quad_adaptive(lambda ps: _q_integrals(fn, ps, 0.0, window, inner), window.p_min,
                         window.p_max, 0.5 * tol, noise_floor=2.0 * inner)


def area_integrals(fn, ts, window, tol):
    """``integrate_area`` of fn(p, q, t) at each time of the 1-d array ts,
    in one batch per level; for ``quad_adaptive``, which silences numpy."""
    inner = tol / (8.0 * window.p_span)
    return _quad_levels(lambda ps, k: _q_integrals(fn, ps, ts[k, None], window, inner),
                        ts.size, window.p_min, window.p_max, 0.5 * tol, 2.0 * inner)


# ============================================================
# Fixed-node composite rules (used by the grid code)
# ============================================================


def simpson_weights(n, spacing):
    """Weights w so that dot(w, y) integrates n uniform samples.

    Composite Simpson when the interval count is even; otherwise Simpson
    up to the third-to-last node plus a one-sided three-point rule for the
    final interval.  Fourth-order accurate either way.
    """
    if n < 3:
        raise ValidationError(f"composite rule needs at least 3 nodes, got {n}")
    d = float(spacing)
    w = np.zeros(n)
    intervals = n - 1
    if intervals % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        return w * (d / 3.0)
    # odd interval count: Simpson over the first n-1 nodes, then patch the
    # last interval with the right-edge interpolatory rule
    w[0] = w[n - 2] = 1.0
    w[1 : n - 2 : 2] = 4.0
    w[2 : n - 3 : 2] = 2.0
    w *= d / 3.0
    w[n - 3] += -d / 12.0
    w[n - 2] += 8.0 * d / 12.0
    w[n - 1] += 5.0 * d / 12.0
    return w


def cumulative_integral(y, spacing, axis=-1):
    """Running integral of uniform samples, fourth-order accurate.

    Returns an array of the same shape whose first entry along ``axis`` is
    zero.  Each interior interval increment averages a forward and a
    backward three-point interpolatory rule, which cancels the leading
    error term; the end intervals use whichever rule fits.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[axis] < 3:
        raise ValidationError("cumulative integration needs at least 3 samples")
    y = np.moveaxis(y, axis, 0)
    d = float(spacing)
    fwd = d * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]) / 12.0
    bwd = d * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]) / 12.0
    inc = np.empty_like(y[:-1])
    inc[0] = fwd[0]
    inc[-1] = bwd[-1]
    inc[1:-1] = 0.5 * (fwd[1:] + bwd[:-1])
    out = np.zeros_like(y)
    np.cumsum(inc, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)
