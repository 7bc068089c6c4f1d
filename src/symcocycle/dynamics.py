"""Hamiltonian flows, twist maps and words in a set of generators.

A Hamiltonian specification is an expression F(p, q, t) together with a
flow duration.  The induced vector field follows the convention that
contracting the field into dp^dq gives dF:

    (p', q') = (dF/dq, -dF/dp)

so F = p translates q downward and F = (p^2 + q^2)/2 rotates clockwise.
Flows integrate this field with classical fixed-step RK4 (the symplectic
defect is monitored, not enforced).  Inverse maps integrate the
time-reversed field rather than inverting pointwise, so group identities
hold at the flow level.

Twist maps (p, q) -> (p, q + t(p)) are applied exactly from their profile
expression, never integrated.  Words over named generators compose in
product order: the leftmost letter acts last, matching how f.g names the
map x -> f(g(x)).

Every map answers one protocol: ``apply``, ``inverse`` and ``factors``,
the flat tuple of its atomic isotopy pieces in application order.  Flows
and twists are their own single piece, the identity has none, and a
composition lists the pieces of its factors, flattened when it is built.
``isotopy`` reads that tuple and rejects maps that carry no isotopy data.

All map objects work in unwrapped cylinder coordinates: outputs continue
the input representative continuously, which is what lifting to the
universal cover needs.  Field and profile expressions are evaluated at
wrapped q internally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .exprlang import Expr, as_expr
from .geometry import Window, q_jump

__all__ = [
    "ComposedMap",
    "EscapedWindowWarning",
    "FlowMap",
    "GroupWord",
    "HamiltonianSpec",
    "IdentityMap",
    "MapJet",
    "SupportClaimError",
    "TwistMap",
    "UnknownGenerator",
    "compose",
    "isotopy",
    "map_with_jacobian",
]


#: Step of the central-difference jacobian in ``map_with_jacobian``.
FD_H = 1e-5


class EscapedWindowWarning(UserWarning):
    """A trajectory left the window (plus slack).  Results continue to be
    computed; consider enlarging the window."""


class UnknownGenerator(ValidationError):
    """A word refers to a generator name that is not bound."""


class SupportClaimError(ValidationError):
    """A claimed compact support is violated outside the claimed region."""


# ============================================================
# Hamiltonian specifications
# ============================================================


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian F(p, q, t) flowed for a fixed duration.

    ``support_claim`` optionally asserts that F vanishes outside a
    sub-window; validate_support checks the assertion by sampling.
    """

    F: Expr
    duration: float = 1.0
    support_claim: Window | None = None

    def __post_init__(self):
        object.__setattr__(self, "F", as_expr(self.F))
        d = float(self.duration)
        if not (d > 0 and math.isfinite(d)):
            raise ValidationError(f"duration must be positive, got {self.duration}")
        object.__setattr__(self, "duration", d)

    @property
    def autonomous(self):
        return "t" not in self.F.free_vars()

    def vector_field(self):
        """Component expressions (dF/dq, -dF/dp) of the induced field."""
        return self.F.diff("q"), -self.F.diff("p")

    def time_reversed(self):
        """Specification whose flow is the inverse of this one's."""
        back = (-self.F).substitute({"t": as_expr(self.duration) - as_expr("t")})
        return HamiltonianSpec(back, self.duration, self.support_claim)

    def validate_support(self, manifold):
        """Check |F| <= 1e-12 on the part of the window outside the claim,
        sampled on a 41x41 grid at 5 times."""
        tol = 1e-12
        claim = self.support_claim
        if claim is None:
            return self
        w = manifold.window
        if not w.contains_window(claim):
            raise SupportClaimError(
                "support claim must lie inside the manifold window"
            )
        ps = np.linspace(w.p_min, w.p_max, 41)
        qs = np.linspace(w.q_min, w.q_max, 41)
        P, Q = np.meshgrid(ps, qs, indexing="ij")
        outside = ~claim.contains(P, Q)
        if not outside.any():
            return self
        fn = self.F.fn
        worst = 0.0
        for tv in np.linspace(0.0, self.duration, 5):
            vals = np.broadcast_to(
                np.asarray(fn(P, Q, float(tv)), dtype=float), P.shape
            )
            worst = max(worst, float(np.max(np.abs(vals[outside]))))
        if worst > tol:
            raise SupportClaimError(
                f"claimed compact support is violated: |F| reaches {worst:.3e} "
                f"outside the claimed region (tolerance {tol:.1e})"
            )
        return self


# ============================================================
# Maps
# ============================================================


def _as_float_pair(p, q, out_p, out_q):
    if np.ndim(out_p) == 0 and np.ndim(p) == 0:
        return float(out_p), float(out_q)
    shape = np.broadcast(np.asarray(p), np.asarray(q)).shape
    return (
        np.broadcast_to(np.asarray(out_p, dtype=float), shape).copy(),
        np.broadcast_to(np.asarray(out_q, dtype=float), shape).copy(),
    )


class IdentityMap:
    """The do-nothing map; the empty word composes to this."""

    factors = ()

    def __init__(self, manifold):
        self.manifold = manifold

    def apply(self, p, q):
        return _as_float_pair(p, q, p, q)

    def inverse(self):
        return self


class TwistMap:
    """(p, q) -> (p, q + t(p)) for a profile expression t of p alone."""

    def __init__(self, profile, manifold):
        profile = as_expr(profile)
        if not profile.free_vars() <= {"p"}:
            raise ValidationError(
                "a twist profile may depend on p only, got free variables "
                f"{sorted(profile.free_vars())}"
            )
        self.profile = profile
        self.manifold = manifold
        self._prof = profile.fn

    def apply(self, p, q):
        shift = self._prof(p, 0.0, 0.0)
        return _as_float_pair(p, q, p, np.asarray(q, dtype=float) + shift)

    def inverse(self):
        return TwistMap(-self.profile, self.manifold)

    @property
    def factors(self):
        # the family (p, q + s*t(p)), s in [0, 1], is the isotopy
        return (self,)


class FlowMap:
    """Time-``duration`` map of a Hamiltonian specification.

    Integrated by RK4 with the fixed step ``step`` (the last step is
    shortened to land exactly).  Trajectories that stray past the window
    plus a quarter of its longer side trigger one EscapedWindowWarning per
    call; trajectories that overflow raise NumericalError.
    """

    def __init__(self, spec, manifold, step=1e-3):
        if not (step > 0 and math.isfinite(step)):
            raise ValidationError(f"step must be positive, got {step}")
        self.spec = spec
        self.manifold = manifold
        self.step = float(step)
        w = manifold.window
        self._slack = 0.25 * max(w.p_span, w.q_span)
        xp, xq = spec.vector_field()
        self._xp = xp.fn
        self._xq = xq.fn
        self._inverse = None
        if manifold.is_cylinder:
            for label, comp in (("dF/dq", xp), ("dF/dp", xq)):
                for tv in (0.0, 0.37 * spec.duration, spec.duration):
                    gap = q_jump(manifold, comp, tv)
                    if gap is not None:
                        raise ValidationError(
                            "vector field is not periodic in q on the cylinder "
                            f"(component {label} jumps by {gap:.3e}); the flow "
                            "would not descend to the quotient"
                        )

    # -- stepping ------------------------------------------------

    def _step_rk4(self, p, q, t, h):
        xp, xq, w = self._xp, self._xq, self.manifold.wrap_q
        k1p = xp(p, w(q), t)
        k1q = xq(p, w(q), t)
        p2 = p + 0.5 * h * k1p
        q2 = q + 0.5 * h * k1q
        tm = t + 0.5 * h
        k2p = xp(p2, w(q2), tm)
        k2q = xq(p2, w(q2), tm)
        p3 = p + 0.5 * h * k2p
        q3 = q + 0.5 * h * k2q
        k3p = xp(p3, w(q3), tm)
        k3q = xq(p3, w(q3), tm)
        p4 = p + h * k3p
        q4 = q + h * k3q
        te = t + h
        k4p = xp(p4, w(q4), te)
        k4q = xq(p4, w(q4), te)
        sixth = h / 6.0
        return (
            p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p),
            q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q),
        )

    def _march(self, p, q, t0, t1, on_node=None):
        span = t1 - t0
        n = max(1, math.ceil(abs(span) / self.step))
        h = span / n
        mani = self.manifold
        escaped = False
        # an overflowing field turns into inf and nan silently; the single
        # finiteness check after the last step reports it
        with np.errstate(over="ignore", invalid="ignore"):
            if on_node is not None:
                on_node(0, t0, p, q)
            for k in range(n):
                t = t0 + k * h
                p, q = self._step_rk4(p, q, t, h)
                if not escaped:
                    escaped = not np.all(
                        mani.window.contains(p, mani.wrap_q(q), slack=self._slack)
                    )
                if on_node is not None:
                    on_node(k + 1, t0 + (k + 1) * h, p, q)
        lost = np.size(p) - np.count_nonzero(np.isfinite(p) & np.isfinite(q))
        if lost:
            raise NumericalError(
                f"the flow overflowed: {lost} of {np.size(p)} trajectories end "
                "at non-finite points; shrink the window or the step, or tame "
                "the Hamiltonian"
            )
        if escaped:
            warnings.warn(
                EscapedWindowWarning(
                    "a trajectory left the window plus slack; consider "
                    "enlarging the window of interest"
                ),
                stacklevel=3,
            )
        return p, q

    # -- public surface ------------------------------------------

    def apply(self, p, q):
        out = self._march(np.asarray(p, dtype=float), np.asarray(q, dtype=float),
                          0.0, self.spec.duration)
        return _as_float_pair(p, q, out[0], out[1])

    def inverse(self):
        if self._inverse is None:
            inv = FlowMap(self.spec.time_reversed(), self.manifold, self.step)
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def n_steps(self):
        return max(1, math.ceil(self.spec.duration / self.step))

    @property
    def factors(self):
        return (self,)


class ComposedMap:
    """Several maps applied in sequence.

    ``factors`` holds the atomic pieces in application order: nested
    compositions are flattened and identities dropped at construction.
    A map without ``factors`` stays one opaque piece; the composition
    still applies, but ``isotopy`` rejects it.
    """

    def __init__(self, factors, manifold=None):
        factors = list(factors)
        if manifold is None:
            if not factors:
                raise ValidationError(
                    "an empty composition needs an explicit manifold"
                )
            manifold = factors[0].manifold
        for f in factors:
            if f.manifold != manifold:
                raise ValidationError(
                    "all factors of a composition must share one manifold model"
                )
        self.factors = tuple(
            atom for f in factors for atom in getattr(f, "factors", (f,))
        )
        self.manifold = manifold

    def apply(self, p, q):
        out_p, out_q = p, q
        for f in self.factors:
            out_p, out_q = f.apply(out_p, out_q)
        return _as_float_pair(p, q, out_p, out_q)

    def inverse(self):
        return ComposedMap(
            [f.inverse() for f in reversed(self.factors)], self.manifold
        )


def isotopy(m):
    """The atomic isotopy pieces of a map, in application order.

    Raises ValidationError when the map, or a piece of a composition, is
    not a flow, a twist, the identity or a composition of those: a plain
    object with an ``apply`` method carries no isotopy data.
    """
    pieces = getattr(m, "factors", None)
    for piece in (m,) if pieces is None else pieces:
        if not hasattr(piece, "factors"):
            raise ValidationError(
                f"{type(piece).__name__} carries no isotopy data; expected a "
                "flow, a twist, the identity or a composition of those"
            )
    return pieces


# ============================================================
# Words
# ============================================================


def _check_letters(letters):
    out = []
    for item in letters:
        try:
            name, exp = item
        except (TypeError, ValueError):
            raise ValidationError(
                f"letters are (name, exponent) pairs, got {item!r}"
            ) from None
        exp = int(exp)
        if exp not in (-1, 1):
            raise ValidationError(
                f"letter exponents must be +1 or -1, got {exp} for {name!r}"
            )
        out.append((str(name), exp))
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """A word in named generators, written in product order: the leftmost
    letter is the outermost map, applied last."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", _check_letters(self.letters))

    @classmethod
    def from_string(cls, text):
        """Parse 'a b^-1 c' (whitespace or '*' separated; an integer
        exponent repeats the letter)."""
        letters = []
        for token in text.replace("*", " ").split():
            if "^" in token:
                name, _, rest = token.partition("^")
                try:
                    n = int(rest)
                except ValueError:
                    raise ValidationError(
                        f"bad exponent in word token {token!r}"
                    ) from None
            else:
                name, n = token, 1
            if not name:
                raise ValidationError(f"bad word token {token!r}")
            sign = 1 if n > 0 else -1
            letters.extend([(name, sign)] * abs(n))
        return cls(tuple(letters))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        if not self.letters:
            return "<empty>"
        return " ".join(
            name if e == 1 else f"{name}^-1" for name, e in self.letters
        )

    def then(self, other):
        """The word meaning 'this word first, then the other'."""
        return GroupWord(other.letters + self.letters)

    def inverse(self):
        return GroupWord(
            tuple((name, -e) for name, e in reversed(self.letters))
        )

    def power(self, n):
        n = int(n)
        if n == 0:
            return GroupWord(())
        base = self if n > 0 else self.inverse()
        return GroupWord(base.letters * abs(n))


def compose(word, generators, manifold):
    """Bind a word's letters to generator maps and return the composition
    on ``manifold``.

    ``generators`` maps names to FlowMap or TwistMap objects.  Letters are
    applied right to left (product order); the empty word composes to the
    identity.
    """
    factors = []
    for name, exp in reversed(word.letters):
        try:
            g = generators[name]
        except KeyError:
            known = ", ".join(sorted(generators)) or "<none>"
            raise UnknownGenerator(
                f"word uses unbound generator {name!r}; known: {known}"
            ) from None
        factors.append(g if exp == 1 else g.inverse())
    return ComposedMap(factors, manifold)


# ============================================================
# Jacobians by finite differences
# ============================================================


@dataclass
class MapJet:
    """Map images with first derivatives; d<out><in> is the derivative of
    the <out> image component in the <in> direction."""

    yp: np.ndarray
    yq: np.ndarray
    dpp: np.ndarray
    dpq: np.ndarray
    dqp: np.ndarray
    dqq: np.ndarray

    def det(self):
        return self.dpp * self.dqq - self.dpq * self.dqp


def map_with_jacobian(m, P, Q, fd_h=FD_H):
    """Evaluate a map and its central-difference jacobian on a batch.

    All five stencil copies go through one map evaluation, so flow maps
    integrate a single stacked system instead of five.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    shape = np.broadcast(P, Q).shape
    Pf = np.broadcast_to(P, shape).ravel()
    Qf = np.broadcast_to(Q, shape).ravel()
    h = float(fd_h)
    stack_p = np.concatenate([Pf, Pf + h, Pf - h, Pf, Pf])
    stack_q = np.concatenate([Qf, Qf, Qf, Qf + h, Qf - h])
    yp, yq = m.apply(stack_p, stack_q)
    yp = np.asarray(yp).reshape(5, -1)
    yq = np.asarray(yq).reshape(5, -1)
    inv2h = 0.5 / h
    return MapJet(
        yp=yp[0].reshape(shape),
        yq=yq[0].reshape(shape),
        dpp=((yp[1] - yp[2]) * inv2h).reshape(shape),
        dqp=((yq[1] - yq[2]) * inv2h).reshape(shape),
        dpq=((yp[3] - yp[4]) * inv2h).reshape(shape),
        dqq=((yq[3] - yq[4]) * inv2h).reshape(shape),
    )
