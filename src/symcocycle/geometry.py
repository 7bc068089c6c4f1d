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
from dataclasses import dataclass

import numpy as np

from .errors import NonconvergenceError, ValidationError
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
        if self.n_p < 3 or self.n_q < 3:
            raise ValidationError(
                f"grids need at least 3 nodes per axis, got {self.n_p} x {self.n_q}"
            )

    def p_nodes(self, window):
        return np.linspace(window.p_min, window.p_max, self.n_p)

    def q_nodes(self, window):
        return np.linspace(window.q_min, window.q_max, self.n_q)

    def mesh(self, window):
        """(P, Q) arrays of shape (n_p, n_q); p varies along the first axis."""
        return np.meshgrid(
            self.p_nodes(window), self.q_nodes(window), indexing="ij"
        )


# ============================================================
# Manifold models
# ============================================================


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

    @property
    def is_cylinder(self):
        return self.kind == "cylinder"

    def wrap_q(self, q):
        """Representative of q in [q_min, q_min + circumference)."""
        if not self.is_cylinder:
            return q
        out = self.window.q_min + np.mod(
            np.asarray(q, dtype=float) - self.window.q_min, self.circumference
        )
        if np.ndim(out) == 0:
            return float(out)
        return out

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


def q_jump(manifold, fn, t):
    """How far ``fn(p, q, t)`` jumps across one circumference in q on a
    13x13 grid of the window, or None when every jump stays within
    1e-9*(1 + max|fn|): the test that a field descends to the cylinder."""
    P, Q = GridSpec(13, 13).mesh(manifold.window)
    here = np.broadcast_to(np.asarray(fn(P, Q, t), dtype=float), P.shape)
    there = np.broadcast_to(
        np.asarray(fn(P, Q + manifold.circumference, t), dtype=float), P.shape
    )
    gap = float(np.max(np.abs(here - there)))
    if gap > 1e-9 * (1.0 + float(np.max(np.abs(here)))):
        return gap
    return None


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
        w = manifold.window
        ps = np.linspace(w.p_min, w.p_max, 13)
        qs = np.linspace(w.q_min, w.q_max, 13)
        P, Q = np.meshgrid(ps, qs, indexing="ij")
        curl = self.a_q.diff("p")(P, Q, 0.0) - self.a_p.diff("q")(P, Q, 0.0)
        dev = float(np.max(np.abs(np.asarray(curl) - 1.0)))
        if dev > tol:
            i = int(np.argmax(np.abs(np.asarray(curl) - 1.0)))
            bad = (float(P.ravel()[i]), float(Q.ravel()[i]))
            raise ValidationError(
                f"d(alpha) deviates from the area form by {dev:.3e} "
                f"(tolerance {tol:.1e}) near {bad}"
            )
        if manifold.is_cylinder:
            for label, comp in (("a_p", self.a_p), ("a_q", self.a_q)):
                gap = q_jump(manifold, comp, 0.0)
                if gap is not None:
                    raise ValidationError(
                        f"primitive {self.name!r} is not periodic in q on the "
                        f"cylinder: component {label} jumps by {gap:.3e} "
                        f"across one circumference"
                    )
        return self


# ============================================================
# Adaptive Gauss-Legendre quadrature
# ============================================================

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)


def _gauss_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid + half * _GAUSS_X
    # constant integrands may come back as scalars; broadcast before dotting
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    return half * float(np.dot(_GAUSS_W, vals))


def quad_adaptive(f, a, b, tol=1e-10, depth_cap=40, noise_floor=0.0):
    """Integrate a vectorized callable over [a, b] by adaptive bisection.

    Each panel is compared against its two halves with 10-point
    Gauss-Legendre; panels that disagree by more than their share of the
    tolerance are split.  Raises QuadratureNonconvergence past the depth
    cap (about 40 doublings, far below attainable resolution for any
    integrand this package produces).

    ``noise_floor`` is the irreducible per-unit-length uncertainty of the
    integrand itself.  Iterated integrals use it so the outer pass stops
    refining once panel residuals drop to the noise carried by the inner
    pass; such panels contribute at most noise_floor * (b - a) in total.
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if a == b:
        return 0.0
    whole = _gauss_panel(f, a, b)
    return _refine(f, a, b, whole, tol, noise_floor, depth_cap)


def _refine(f, a, b, whole, tol, noise_floor, depth_left):
    mid = 0.5 * (a + b)
    left = _gauss_panel(f, a, mid)
    right = _gauss_panel(f, mid, b)
    better = left + right
    if abs(better - whole) <= max(tol, noise_floor * (b - a)):
        return better
    if depth_left <= 0:
        raise QuadratureNonconvergence(
            f"adaptive quadrature failed on [{a}, {b}]: "
            f"residual {abs(better - whole):.3e} exceeds {tol:.3e}"
        )
    return _refine(f, a, mid, left, 0.5 * tol, noise_floor, depth_left - 1) + _refine(
        f, mid, b, right, 0.5 * tol, noise_floor, depth_left - 1
    )


def integrate_area(g, window, tol=1e-10):
    """Iterated adaptive quadrature over the window of an expression or
    of a vectorized callable g(p, q)."""
    if isinstance(g, Expr):
        fn = g.fn
    else:
        fn = lambda p, q, t=0.0: g(p, q)
    inner_tol = tol / (8.0 * window.p_span)

    def row(pvals):
        pvals = np.atleast_1d(np.asarray(pvals, dtype=float))
        out = np.empty(pvals.shape)
        for i, pv in enumerate(pvals):
            out[i] = quad_adaptive(
                lambda qs: fn(np.full_like(np.asarray(qs, dtype=float), pv),
                              np.asarray(qs, dtype=float), 0.0),
                window.q_min,
                window.q_max,
                inner_tol,
            )
        return out

    return quad_adaptive(
        row, window.p_min, window.p_max, 0.5 * tol, noise_floor=2.0 * inner_tol
    )


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
