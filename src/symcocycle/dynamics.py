"""Hamiltonian flows, twist maps and words in a set of generators.

A Hamiltonian specification is an expression F(p, q, t) together with a
flow duration.  The induced vector field follows the convention that
contracting the field into dp^dq gives dF:

    (p', q') = (dF/dq, -dF/dp)

so F = p translates q downward and F = (p^2 + q^2)/2 rotates clockwise.
Flows integrate this field with classical fixed-step RK4 (the symplectic
defect is monitored, not enforced): one step, ``_step``, marches images
with the field as their rates (``FlowMap._rates``) and a jet with the
variational equation as well (``FlowMap._jet_rates``).  Inverse maps
integrate the time-reversed field rather than inverting pointwise, so
group identities hold at the flow level.

Twist maps (p, q) -> (p, q + t(p)) are applied exactly from their profile
expression, never integrated.  Words over named generators compose in
product order: the leftmost letter acts last, matching how f.g names the
map x -> f(g(x)).

Every map answers one protocol: ``apply``, ``inverse`` and ``factors``,
the flat tuple of its atomic isotopy pieces in application order.  Flows
and twists are their own single piece, a composition lists the pieces
of its factors, flattened when it is built, and the identity is the
composition of none.
``isotopy`` reads that tuple and rejects maps that carry no isotopy data.
Every map also answers ``carry(p, q, tangent)``, and a piece or a
composition ``carry(p, q, tangent, watch=None)``: its images and the
tangent pushed forward, or None for None; a flow passes ``watch(flow)``
to its march as ``on_node(k, t, p, q, moving, k1)``, called at every
time node with the rates it steps on from there; a twist calls nothing.
``ComposedMap.carry`` is the one walk over isotopy pieces, which
``apply``, ``map_with_jacobian``, the lift and the action route share.

All map objects work in unwrapped cylinder coordinates: outputs continue
the input representative continuously, which is what lifting to the
universal cover needs.  Field and profile expressions are evaluated at
wrapped q internally.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, finite, positive
from .exprlang import Expr, as_expr, fused
from .geometry import GridSpec, Window, q_jump

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
    "flow_pieces",
    "isotopy",
    "map_with_jacobian",
]

#: The flow duration and the RK4 step when none is given.
DEFAULT_DURATION = 1.0
DEFAULT_STEP = 1e-3


def _keep_freed_memory():
    """Keep what a march frees in glibc's heap, for its next step to reuse."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: a grid's arrays come from the heap
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: freed memory is not handed back
    except (OSError, AttributeError, TypeError):  # no glibc: defaults stand
        pass


_keep_freed_memory()


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
    duration: float = DEFAULT_DURATION
    support_claim: Window | None = None

    def __post_init__(self):
        object.__setattr__(self, "F", as_expr(self.F))
        object.__setattr__(self, "duration", positive(self.duration, "duration"))

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
        sampled on a 41x41 grid at 5 times; NumericalError when F is not
        finite there."""
        tol = 1e-12
        claim = self.support_claim
        if claim is None:
            return self
        if not manifold.window.contains_window(claim):
            raise SupportClaimError(
                "support claim must lie inside the manifold window"
            )
        P, Q = GridSpec(41, 41).mesh(manifold.window)
        outside = ~claim.contains(P, Q)
        if not outside.any():
            return self
        vals = [
            np.broadcast_to(self.F(P, Q, float(tv)), P.shape)[outside]
            for tv in np.linspace(0.0, self.duration, 5)
        ]
        # a point outside the claim counts once over the five times
        finite("F outside the claimed support", "tame the Hamiltonian or "
               "correct the claim", *vals)
        worst = float(np.max(np.abs(vals)))
        if worst > tol:
            raise SupportClaimError(
                f"claimed compact support is violated: |F| reaches {worst:.3e} "
                f"outside the claimed region (tolerance {tol:.1e})"
            )
        return self


# ============================================================
# Maps
# ============================================================


def _keeps(x):
    """Where adding +0.0 or -0.0 gives ``x`` back to the bit: everywhere
    but at -0.0, since ``-0.0 + 0.0`` is ``+0.0``."""
    return (x != 0.0) | ~np.signbit(x)


def _step(rates, state, t, h, k1):
    """One classical RK4 step of ``state``, a list of arrays, whose rates
    of change at time t are ``rates(state, t)``, one per entry; ``k1`` is
    the rates at (state, t), which the march has already computed.  Each
    stage input and the result are arrays of the step's own, one product
    each, summed in place in the order of x + c*k."""

    def stage(c, k):
        out = []
        for x, r in zip(state, k):
            y = r * c
            y += x
            out.append(y)
        return out

    half = 0.5 * h
    tm = t + half
    k2 = rates(stage(half, k1), tm)
    k3 = rates(stage(half, k2), tm)
    k4 = rates(stage(h, k3), t + h)
    out = []
    for x, a, b, c, d in zip(state, k1, k2, k3, k4):
        y = b + c  # x + h/6*(a + 2*(b + c) + d)
        y *= 2.0
        y += a
        y += d
        y *= h / 6.0
        y += x
        out.append(y)
    return out


def _held(state, k1):
    """The points of ``state`` that a march of an autonomous field leaves
    where they are, as a mask of the batch's shape, or None for none.

    ``k1`` is the step's own rates at the points.  Where every rate is
    +-0 and no state entry is -0.0, every RK4 stage of a step from x is
    evaluated at ``x + c*h*(+-0) = x`` and, as the rates read no t, gives
    the same +-0; the step returns ``x + sixth*(+-0) = x``, and each later
    step starts there again.  A tangent rate that reads a tangent entry
    that is not finite is not 0 (``0*inf`` is nan); for an invertible
    tangent the rates are 0 exactly where the field and its derivatives
    are.
    """
    held = (k1[0] == 0.0) & (k1[1] == 0.0)
    for k in k1[2:]:
        # dP and dQ hold their two input directions on a leading axis
        held = held & (k == 0.0).all(axis=0)
    if not np.any(held):
        return None
    held = held & _keeps(state[0]) & _keeps(state[1])
    for x in state[2:]:
        held = held & _keeps(x).all(axis=0)
    held = np.broadcast_to(held, np.shape(state[0]))
    return held if held.any() else None


def _as_float_pair(p, q, out_p, out_q):
    if np.ndim(out_p) == 0 and np.ndim(p) == 0:
        return float(out_p), float(out_q)
    shape = np.broadcast(np.asarray(p), np.asarray(q)).shape
    return (
        np.broadcast_to(np.asarray(out_p, dtype=float), shape).copy(),
        np.broadcast_to(np.asarray(out_q, dtype=float), shape).copy(),
    )


class TwistMap:
    """(p, q) -> (p, q + t(p)) for a profile expression t of p alone."""

    _REMEDY = "shrink the window or tame the profile"

    def __init__(self, profile, manifold):
        profile = as_expr(profile)
        if not profile.free_vars() <= {"p"}:
            raise ValidationError(
                "a twist profile may depend on p only, got free variables "
                f"{sorted(profile.free_vars())}"
            )
        self.profile = profile
        self.manifold = manifold
        self._slope = None  # t', differentiated on the first jet

    def apply(self, p, q):
        with np.errstate(over="ignore", invalid="ignore"):
            shift = self.profile.fn(p, 0.0, 0.0)
            out = _as_float_pair(p, q, p, np.asarray(q, dtype=float) + shift)
        return finite("the twist", self._REMEDY, *out)

    def carry(self, p, q, tangent, watch=None):
        """Images of float arrays and the tangent ``(dP, dQ)`` pushed
        forward by the closed-form jacobian [[1, 0], [t'(p), 1]]; for a
        None tangent, ``apply``'s images and None.  A twist has no time
        nodes, so ``watch`` is not called."""
        # apply gives floats for a 0-d batch, carry float arrays
        yp, yq = map(np.asarray, self.apply(p, q))
        if tangent is None:
            return yp, yq, None
        if self._slope is None:
            self._slope = self.profile.diff("p")
        dP, dQ = tangent
        with np.errstate(over="ignore", invalid="ignore"):
            dQ = dQ + self._slope.fn(p, 0.0, 0.0) * dP
        # apply checked the images
        finite("the twist", self._REMEDY, *dP, *dQ)
        return yp, yq, (dP, dQ)

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
    call; trajectories that overflow raise NumericalError.  A march of an
    autonomous field leaves the points where the first step's rates (the
    field and, for a jet, the tangent's) are exactly 0 where they are,
    bitwise as a full march would, and steps only the others.
    """

    def __init__(self, spec, manifold, step=DEFAULT_STEP):
        self.step = positive(step, "step")
        self.spec = spec
        self.manifold = manifold
        w = manifold.window
        self._slack = 0.25 * max(w.p_span, w.q_span)
        # both components from one function, shared subexpressions once
        self.field = fused(*spec.vector_field())
        self._tangent_field = None
        self._inverse = None
        if manifold.is_cylinder:
            # checked on the function the march calls, generated here once
            for tv in (0.0, 0.37 * spec.duration, spec.duration):
                why = q_jump(manifold, self.field.fn, tv, "the vector field",
                             "tame the Hamiltonian or shrink the window")
                if why is not None:
                    raise ValidationError(
                        "vector field is not periodic in q on the cylinder "
                        f"(a component {why}); the flow would not descend "
                        "to the quotient"
                    )

    @property
    def tangent_field(self):
        """The field and its derivatives ``(xp, xq, dxp/dp, dxp/dq, dxq/dp)``
        as one expression, built on the first jet.  ``dxq/dq`` is
        ``-dxp/dp``: a Hamiltonian field is trace-free."""
        if self._tangent_field is None:
            xp, xq = self.spec.vector_field()
            self._tangent_field = fused(
                xp, xq, xp.diff("p"), xp.diff("q"), xq.diff("p")
            )
        return self._tangent_field

    # -- stepping ------------------------------------------------

    def _rates(self, state, t):
        """The rates of a point march: the field at (p, wrap(q))."""
        p, q = state
        return self.field.fn(p, self.manifold.wrap_q(q), t)

    def _jet_rates(self, state, t):
        """The rates of a jet march: the field at (p, wrap(q)) and the
        variational equation, the linearized field [[u, v], [s, -u]]
        applied to the tangent, so RK4 moves the tangent by the exact
        derivative of its own step."""
        p, q, dP, dQ = state
        xp, xq, u, v, s = self.tangent_field.fn(p, self.manifold.wrap_q(q), t)
        rP, rQ, vdQ = u * dP, s * dP, v * dQ
        rP += vdQ
        rQ -= np.multiply(u, dQ, out=vdQ)
        return xp, xq, rP, rQ

    def _run(self, state, t0, t1, on_node):
        """The march loop: ``state`` is (p, q), whose rates are
        ``_rates``, or (p, q, dP, dQ), whose rates are ``_jet_rates``, each
        stepped by ``_step``: a flow's part of ``carry``, which every map
        answers and one walk chains.

        The first step's k1 also splits the batch: for an autonomous
        field the points ``_held`` finds keep their inputs and only the
        others are stepped.  ``on_node(k, t, p, q, moving, k1)`` sees
        every time node: at node 0 every point, with ``moving`` None;
        after it, the points of the mask ``moving``, or every point when
        it is None, since a held point sits at node 0's place throughout.
        ``k1`` is the march's own rates at those points, which it steps
        on from (node 0's before the split), or None where it steps no
        further.  One EscapedWindowWarning per call, and NumericalError
        when an end point or its tangent is not finite, over the batch.
        """
        span = t1 - t0
        n = max(1, math.ceil(abs(span) / self.step))
        h = span / n
        mani = self.manifold
        rates = self._jet_rates if len(state) > 2 else self._rates
        # the split below indexes and scatters: no scalars for a 0-d batch
        state = [np.asarray(x, dtype=float) for x in state]
        state[:2] = np.broadcast_arrays(state[0], state[1])
        whole, moving, escaped = state, None, False
        # an overflowing field turns into inf and nan silently; the single
        # finiteness check after the last step reports it
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rates(state, t0)
            if on_node is not None:
                on_node(0, t0, state[0], state[1], None, k1)
            held = _held(state, k1) if self.spec.autonomous else None
            if held is not None:
                moving = ~held
                # a held point sits at its input after every step
                escaped = mani.escaped(state[0][held], state[1][held], self._slack)
                k1 = [np.broadcast_to(k, x.shape)[..., moving] for x, k in zip(state, k1)]
                state = [x[..., moving] for x in state]
            live = moving is None or moving.any()
            for k in range(n):
                if live:
                    state = _step(rates, state, t0 + k * h, h, k1)
                    if not escaped:
                        escaped = mani.escaped(state[0], state[1], self._slack)
                k1 = rates(state, t0 + (k + 1) * h) if live and k + 1 < n else None
                if on_node is not None:
                    on_node(k + 1, t0 + (k + 1) * h, state[0], state[1], moving, k1)
        if moving is not None:
            out = [x.copy() for x in whole]
            for o, x in zip(out, state):
                o[..., moving] = x
            state = out
        finite("the flow", "shrink the window or the step, or tame the "
               "Hamiltonian", *state)
        if escaped:
            warnings.warn(
                EscapedWindowWarning(
                    "a trajectory left the window plus slack; consider "
                    "enlarging the window of interest"
                ),
                stacklevel=4,
            )
        return state

    def _march(self, p, q, t0, t1, on_node=None):
        return self._run((p, q), t0, t1, on_node)

    # -- public surface ------------------------------------------

    def apply(self, p, q):
        out = self._march(p, q, 0.0, self.spec.duration)
        return _as_float_pair(p, q, out[0], out[1])

    def carry(self, p, q, tangent, watch=None):
        """Images of float arrays, bitwise equal to ``apply``'s, and the
        tangent ``(dP, dQ)`` pushed forward by the exact derivative of the
        numerical flow, or ``_march``'s images and None for a None
        tangent.  ``watch(self)``, when a watch is given, is the march's
        ``on_node`` (see ``_run``)."""
        on_node = None if watch is None else watch(self)
        if tangent is None:
            return (*self._march(p, q, 0.0, self.spec.duration, on_node), None)
        p, q, dP, dQ = self._run([p, q, *tangent], 0.0, self.spec.duration, on_node)
        return p, q, (dP, dQ)

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
    A map without ``factors`` stays one opaque piece, which ``isotopy``,
    and so ``carry`` and ``apply``, reject.  Every map answers
    ``carry``, and this class's is the one walk over isotopy pieces.
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

    def carry(self, p, q, tangent, watch=None):
        """Each piece's ``carry`` of float arrays and the tangent (or None),
        in application order, with the same ``watch``."""
        for piece in isotopy(self):
            p, q, tangent = piece.carry(p, q, tangent, watch)
        return p, q, tangent

    def apply(self, p, q):
        yp, yq, _ = self.carry(np.asarray(p, float), np.asarray(q, float), None)
        return _as_float_pair(p, q, yp, yq)

    def inverse(self):
        return ComposedMap(
            [f.inverse() for f in reversed(self.factors)], self.manifold
        )


class IdentityMap(ComposedMap):
    """The do-nothing map: the composition of no factors."""

    def __init__(self, manifold):
        super().__init__((), manifold)

    def inverse(self):
        return self


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


def flow_pieces(m):
    """The isotopy pieces of a map, all of which must be flows: what
    needs a generating Hamiltonian (the action route, Calabi) accepts."""
    pieces = isotopy(m)
    for piece in pieces:
        if not isinstance(piece, FlowMap):
            raise ValidationError(
                f"{type(piece).__name__} is not a Hamiltonian flow; this needs "
                "generating Hamiltonian data: a flow, the identity or a "
                "composition of flows"
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
# Exact jacobians
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


def map_with_jacobian(m, P, Q):
    """Evaluate a map and its jacobian on a batch.

    The jacobian is exact for the map as computed: a tangent, the
    identity at first, goes through one ``m.carry``, which every map
    answers (a composition's is the one walk over its isotopy pieces).
    Flows march it by RK4 on the variational equation, twists apply
    their closed form, so the jet of a composition is one march per
    piece.  A map without isotopy data is rejected.  The images are
    bitwise equal to ``m.apply``'s.
    """
    carry = getattr(m, "carry", None) or isotopy(m)  # isotopy raises
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    shape = np.broadcast(P, Q).shape
    p = np.broadcast_to(P, shape).copy()
    q = np.broadcast_to(Q, shape).copy()
    # dP[j] and dQ[j] differentiate the p and q images in the j-th input
    dP = np.zeros((2,) + shape)
    dQ = np.zeros((2,) + shape)
    dP[0] = dQ[1] = 1.0
    p, q, (dP, dQ) = carry(p, q, (dP, dQ))
    return MapJet(yp=p, yq=q, dpp=dP[0], dpq=dP[1], dqp=dQ[0], dqq=dQ[1])
