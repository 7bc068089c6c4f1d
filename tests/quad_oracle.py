"""Recursive adaptive quadrature: one ten-point panel per call.

``geometry.quad_adaptive`` bisects every panel of one level in one call
of its integrand and adds the sums back up afterwards; this module keeps
the recursion it replaced, with ``integrate_area``'s loop over the outer
nodes and ``calabi_from_hamiltonian``'s loop over the times, as the
oracle the level-synchronous code is compared with bit for bit.
"""

import math

import numpy as np

from symcocycle.errors import NumericalError
from symcocycle.exprlang import Expr
from symcocycle.geometry import QuadratureNonconvergence

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)


def _gauss_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid + half * _GAUSS_X
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    total = half * float(np.dot(_GAUSS_W, vals))
    if not math.isfinite(total):
        raise NumericalError(f"the integrand is not finite on [{a}, {b}]")
    return total


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


def quad_adaptive(f, a, b, tol=1e-10, noise_floor=0.0, depth_cap=40):
    """``f`` is called on the 10 nodes of one panel at a time."""
    if a == b:
        return 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        whole = _gauss_panel(f, a, b)
        return _refine(f, a, b, whole, tol, noise_floor, depth_cap)


def root_residual(f, a, b):
    """|left + right - whole| of the first bisection of [a, b]."""
    mid = 0.5 * (a + b)
    better = _gauss_panel(f, a, mid) + _gauss_panel(f, mid, b)
    return abs(better - _gauss_panel(f, a, b))


def integrate_area(fn, window, tol=1e-10, t=0.0):
    """The iterated integral of fn(p, q, t), one inner quadrature per
    outer node."""
    if isinstance(fn, Expr):
        fn = fn.fn
    inner_tol = tol / (8.0 * window.p_span)

    def row(pvals):
        out = np.empty(pvals.shape)
        for i, pv in enumerate(pvals):
            out[i] = quad_adaptive(
                lambda qs: fn(np.full_like(qs, pv), qs, t),
                window.q_min, window.q_max, inner_tol,
            )
        return out

    return quad_adaptive(
        row, window.p_min, window.p_max, 0.5 * tol, noise_floor=2.0 * inner_tol
    )


def calabi_from_hamiltonian(spec, manifold, tol=1e-9):
    """Twice the space-time integral of F, one area integral per time."""
    w = manifold.window
    if spec.autonomous:
        return 2.0 * integrate_area(spec.F, w, tol) * spec.duration

    def at_time(ts):
        return np.array([integrate_area(spec.F, w, tol, float(tv)) for tv in ts])

    return 2.0 * quad_adaptive(
        at_time, 0.0, spec.duration, tol=10.0 * tol, noise_floor=4.0 * tol
    )
