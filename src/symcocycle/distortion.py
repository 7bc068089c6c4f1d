"""Word-length lower bounds from cocycle data.

A cocycle is Lipschitz for the word metric: a product of n generators
has a cocycle that splits into n terms, each oscillating at most as
much as the worst single generator, so osc(K(w)) <= m * |w| where m is
that worst-case oscillation.  Read backwards, any nonzero fixed-point
difference P certifies |w^n| >= n * |P| / m, a linear lower bound on
word length that never needs the group's presentation.

The companion oracle is a breadth-first search over freely reduced
words, with map equality decided on a quasi-random probe set.  Exact
functional equality of diffeomorphisms is out of reach numerically;
forty probe images quantized at 1e-6 make the search finite, and a
larger secondary probe set turns any spurious identification into a
loud warning instead of a silent wrong answer.

The word ball does not depend on the target, so it is a value: the
generator set walks it once per probe seed, level by level, and every
search replays what earlier searches walked.  A level is marched with
one ``apply`` per letter on the stacked images of every frontier word
that takes the letter, primary and secondary probes together, so a
recheck reads images already in hand.  A march treats each point on its
own, so stacking changes no image.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import Primitive
from .dynamics import GroupWord, compose
from .cocycle import PATH_TOL, cocycle_by_action, cocycle_by_path
from .invariants import polterovich

__all__ = [
    "DegenerateBound",
    "Fingerprint",
    "FingerprintCollisionWarning",
    "GeneratorSet",
    "distortion_lower_bound",
    "distortion_table",
    "probe_points",
    "word_ball_norm",
]

#: Quantization cell size for fingerprint keys.
FINGERPRINT_RESOLUTION = 1e-6

#: Two maps count as equal on probes when every image coordinate agrees
#: this closely.
MATCH_TOL = 2e-6

#: Probe counts of the word-ball search: the primary set decides matches,
#: the secondary set rechecks words of different lengths that collide.
N_PROBES = 40
N_SECONDARY = 200

#: The largest search radius.  With two generators each level holds up to
#: three times as many words as the one before.
MAX_RADIUS = 8

#: A fixed-point difference at most this large makes the bound vacuous.
DEGENERATE_TOL = 1e-9


class DegenerateBound(NumericalError):
    """The fixed-point difference vanishes, so the word-length bound is
    vacuous.  Reported rather than papered over with a zero."""


class FingerprintCollisionWarning(UserWarning):
    """Two words of different lengths shared a fingerprint but disagree
    on the secondary probe set: the probe resolution spuriously merged
    two distinct maps, and the reported norm may undershoot."""


# ============================================================
# Probe sets
# ============================================================


def _radical_inverse(k, base):
    out, unit = 0.0, 1.0 / base
    while k > 0:
        k, digit = divmod(k, base)
        out += digit * unit
        unit /= base
    return out


def probe_points(window, count=40, seed=0, inset=0.05):
    """Quasi-random probe points inside ``window``.

    A Halton sequence in bases 2 and 3, started at an offset derived
    from the nonnegative ``seed`` so that different seeds give disjoint,
    equally well-spread point sets.  Points keep ``inset`` of the window span
    away from each edge; probes hugging the boundary would make escape
    warnings and wrap seams part of the equality test for no gain.
    """
    count = int(count)
    if count < 1:
        raise ValidationError(f"need at least one probe point, got {count}")
    if not (0.0 <= inset < 0.5):
        raise ValidationError(f"inset must be in [0, 0.5), got {inset}")
    seed = int(seed)
    if seed < 0:
        # a Halton index at or below zero puts every probe on one point
        raise ValidationError(f"the probe seed must be nonnegative, got {seed}")
    start = seed * 997 + 1
    u = np.array([_radical_inverse(start + i, 2) for i in range(count)])
    v = np.array([_radical_inverse(start + i, 3) for i in range(count)])
    pad_p = inset * window.p_span
    pad_q = inset * window.q_span
    ps = window.p_min + pad_p + u * (window.p_span - 2.0 * pad_p)
    qs = window.q_min + pad_q + v * (window.q_span - 2.0 * pad_q)
    return ps, qs


def _largest_gap(manifold, dp, dq):
    """Largest coordinate of the image differences ``dp``, ``dq``, with
    q-differences wrapped on the manifold."""
    dq = manifold.wrap_delta(dq)
    return float(max(np.max(np.abs(dp)), np.max(np.abs(dq))))


class Fingerprint:
    """Images of the probe set under one map, quantized for hashing.

    The ``key`` is the byte string of every coordinate rounded to the
    nearest multiple of the resolution, so equal keys force agreement
    within one cell on every probe.  Distances are wrap-aware in q on
    the cylinder.  Quantization can split a pair of maps that agree to
    within a cell across a rounding boundary; that costs a duplicate
    search node at worst, never a wrong match, because matching is done
    on true distances rather than on keys.
    """

    __slots__ = ("p_images", "q_images", "key")

    def __init__(self, p_images, q_images):
        self.p_images = np.asarray(p_images, dtype=float)
        self.q_images = np.asarray(q_images, dtype=float)
        quantized = np.round(
            np.concatenate([self.p_images, self.q_images])
            / FINGERPRINT_RESOLUTION
        ).astype(np.int64)
        self.key = quantized.tobytes()

    @classmethod
    def of_map(cls, m, ps, qs, manifold):
        pim, qim = m.apply(np.array(ps, dtype=float), np.array(qs, dtype=float))
        return cls(pim, manifold.wrap_q(qim))

    def distance(self, other, manifold):
        """Largest coordinate-wise gap to ``other`` over all probes, with
        q-gaps wrapped on the manifold."""
        return _largest_gap(
            manifold, self.p_images - other.p_images,
            self.q_images - other.q_images,
        )

    def matches(self, other, manifold):
        return self.distance(other, manifold) <= MATCH_TOL


# ============================================================
# Generator sets
# ============================================================


class GeneratorSet:
    """Named generators with their cocycles under one shared primitive.

    All generators must live on the same manifold model; their cocycles
    are computed once at construction with identical primitive, grid,
    and basepoint so that oscillations are comparable.  ``m`` is the
    largest single-generator oscillation, the Lipschitz constant of the
    cocycle for the word metric.

    ``method`` selects how cocycles are computed: "path" integrates the
    pullback defect over grid paths and cross-checks two routes, "action"
    streams the action integral along orbits.  The two agree modulo
    constants; the action route has no grid truncation in the defect and
    so tolerates much sharper bumps, but it only exists for flows.
    """

    def __init__(self, named_maps, alpha=None, grid=None, basepoint=None,
                 tol=PATH_TOL, method="path"):
        items = list(
            named_maps.items() if hasattr(named_maps, "items") else named_maps
        )
        if not items:
            raise ValidationError("a generator set needs at least one generator")
        names = [str(name) for name, _ in items]
        if len(set(names)) != len(names):
            raise ValidationError(f"generator names must be unique, got {names}")
        self.names = tuple(names)
        self.maps = {str(name): m for name, m in items}
        first = items[0][1]
        for name, m in items:
            if m.manifold != first.manifold:
                raise ValidationError(
                    f"generator {name!r} lives on a different manifold model"
                )
        self.manifold = first.manifold
        self.alpha = Primitive.p_dq() if alpha is None else alpha
        self.grid = grid
        self.basepoint = basepoint
        self.tol = float(tol)
        if method not in ("path", "action"):
            raise ValidationError(
                f"method must be 'path' or 'action', got {method!r}"
            )
        self.method = method
        self.cocycles = {
            name: self._cocycle_of_map(m) for name, m in self.maps.items()
        }
        self.m = max(K.oscillation() for K in self.cocycles.values())
        # probe seed -> (its word-ball walk, the candidates it produced)
        self._walks = {}
        # a single positive letter composes to its generator alone, whose
        # cocycle is already in hand
        self._word_cocycles = {
            GroupWord(((name, 1),)): K for name, K in self.cocycles.items()
        }

    def _cocycle_of_map(self, m):
        if self.method == "action":
            return cocycle_by_action(m, self.alpha, grid=self.grid)
        return cocycle_by_path(
            m, self.alpha, basepoint=self.basepoint, grid=self.grid,
            tol=self.tol,
        )

    def realize(self, word):
        """The composed map of a word (product order: leftmost applied
        last)."""
        return compose(word, self.maps, self.manifold)

    def cocycle_of_word(self, word):
        """Cocycle of the word's composition, same primitive, grid and
        method as the per-generator cocycles; memoized per word."""
        if word not in self._word_cocycles:
            self._word_cocycles[word] = self._cocycle_of_map(self.realize(word))
        return self._word_cocycles[word]


# ============================================================
# The lower bound
# ============================================================


def distortion_lower_bound(gens, word, x, y, n):
    """Lower bound n * |P| / m on the word length of ``word``**n.

    P is the fixed-point difference of the word's composition between x
    and y, m the generator set's Lipschitz constant.  Both x and y must
    be fixed by the composition.  The word's cocycle comes from the
    generator set's memo, so several values of n compute it once.
    """
    n = int(n)
    if n < 0:
        raise ValidationError(f"the power n must be nonnegative, got {n}")
    value = polterovich(gens.realize(word), gens.cocycle_of_word(word), x, y)
    if abs(value) <= DEGENERATE_TOL:
        raise DegenerateBound(
            f"fixed-point difference {value:.3e} is zero within "
            f"{DEGENERATE_TOL:.1e}; the bound would be vacuous"
        )
    if not gens.m > 0.0:
        raise DegenerateBound(
            "generator cocycles all have zero oscillation; no finite bound"
        )
    return n * abs(value) / gens.m


# ============================================================
# Word-ball oracle
# ============================================================


# One word of the ball: its letters in application order, its images of
# the primary probes followed by the secondary ones (q wrapped after every
# letter), and the fingerprint of the primary images.
_Node = namedtuple("_Node", "letters p q fp")


def _secondary_disagree(manifold, held, new):
    """Whether two nodes of the ball differ on the secondary probes.  Both
    carry their images already, so a recheck marches nothing."""
    gap = _largest_gap(
        manifold,
        held.p[N_PROBES:] - new.p[N_PROBES:],
        held.q[N_PROBES:] - new.q[N_PROBES:],
    )
    return gap > MATCH_TOL


def _walk(letters, manifold, seed, identity):
    """The word ball of the probe ``seed`` as a stream of ``(length,
    fingerprint)`` candidates in search order.  ``letters`` holds a
    ``(name, exponent, map)`` triple for each generator and inverse, and
    ``identity`` is the identity's fingerprint, the root.

    Each level is announced as ``(length, None)`` before it is marched,
    so a search capped below it stops without marching it.  A level is
    marched with one ``apply`` per letter on the stacked images of every
    frontier node that takes the letter; the candidates then follow
    node-major, letter-minor, with free reduction.  A candidate whose key
    is already held is dropped, after a recheck on the secondary probes
    when the lengths differ.
    """
    sec_ps, sec_qs = probe_points(manifold.window, N_SECONDARY, seed, inset=0.04)
    root = _Node(
        (),
        np.concatenate([identity.p_images, sec_ps]),
        np.concatenate([identity.q_images, manifold.wrap_q(sec_qs)]),
        identity,
    )
    seen = {root.fp.key: root}
    frontier = [root]
    for length in range(1, MAX_RADIUS + 1):
        yield length, None
        # marched[j][i]: the images of frontier node i under letter j
        marched = []
        for name, e, m in letters:
            takers = [
                i for i, node in enumerate(frontier)
                if node.letters[-1:] != ((name, -e),)
            ]
            rows = {}
            if takers:
                pim, qim = m.apply(
                    np.concatenate([frontier[i].p for i in takers]),
                    np.concatenate([frontier[i].q for i in takers]),
                )
                qim = manifold.wrap_q(qim)
                rows = dict(zip(
                    takers,
                    zip(pim.reshape(len(takers), -1), qim.reshape(len(takers), -1)),
                ))
            marched.append(rows)
        next_frontier = []
        for i, node in enumerate(frontier):
            for (name, e, _), rows in zip(letters, marched):
                if i not in rows:
                    continue  # free reduction: never undo the last letter
                p, q = rows[i]
                new = _Node(
                    node.letters + ((name, e),), p, q,
                    Fingerprint(p[:N_PROBES], q[:N_PROBES]),
                )
                yield length, new.fp
                held = seen.get(new.fp.key)
                if held is not None:
                    held_length = len(held.letters)
                    if held_length != length and _secondary_disagree(
                        manifold, held, new
                    ):
                        warnings.warn(
                            f"words {GroupWord(held.letters[::-1])} (length "
                            f"{held_length}) and {GroupWord(new.letters[::-1])} "
                            f"(length {length}) share a fingerprint but "
                            "differ on the secondary probes",
                            FingerprintCollisionWarning,
                            # past _ball and word_ball_norm, to the caller
                            stacklevel=4,
                        )
                    continue
                seen[new.fp.key] = new
                next_frontier.append(new)
        frontier = next_frontier


def _ball(gens, seed, identity):
    """The candidates of the generator set's walk for ``seed``: those it
    has produced, then new ones, recorded as they come.  A walk that
    raises is dropped, so the next search starts it again and meets the
    same error instead of a finished walk."""
    walk = gens._walks.get(seed)
    if walk is None:
        letters = []
        for name in gens.names:
            letters.append((name, 1, gens.maps[name]))
            letters.append((name, -1, gens.maps[name].inverse()))
        # the walk holds no reference to gens: a cycle through the
        # suspended generator would keep every node alive until the
        # cyclic collector runs
        walk = (_walk(letters, gens.manifold, seed, identity), [])
        gens._walks[seed] = walk
    source, produced = walk
    i = 0
    while True:
        if i == len(produced):
            try:
                produced.append(next(source))
            except StopIteration:
                return
            except BaseException:
                del gens._walks[seed]
                raise
        yield produced[i]
        i += 1


def word_ball_norm(gens, target, radius_cap=6, seed=0):
    """Least word length realizing ``target``, or None past the cap.

    Breadth-first search over freely reduced words in the generators
    and their inverses, one length at a time, deduplicated by
    fingerprint key.  ``target`` is anything with an ``apply(p, q)``
    method on the same manifold.  A node matches when its probe images
    sit within the match tolerance of the target's, wrap-aware on the
    cylinder; searching in length order makes the first match minimal.

    When two words of different lengths land on the same fingerprint
    key, they are rechecked on a secondary probe set: agreement there
    means a genuine relation between the generators (kept, no fuss),
    disagreement means the probe resolution merged distinct maps and a
    FingerprintCollisionWarning is issued because the returned norm may
    then undershoot.

    The ball does not depend on the target, so the generator set keeps
    one walk per probe seed: a search replays the nodes earlier searches
    reached and marches only levels none of them needed.  Collision
    warnings therefore come once per walk, from the search that first
    reaches them.
    """
    radius_cap = int(radius_cap)
    if not (0 <= radius_cap <= MAX_RADIUS):
        raise ValidationError(
            f"radius_cap must be between 0 and {MAX_RADIUS}, got {radius_cap}"
        )
    manifold = gens.manifold
    ps, qs = probe_points(manifold.window, N_PROBES, seed)
    target_fp = Fingerprint.of_map(target, ps, qs, manifold)

    identity_fp = Fingerprint(
        np.array(ps, dtype=float), manifold.wrap_q(np.array(qs, dtype=float))
    )
    if identity_fp.matches(target_fp, manifold):
        return 0
    for length, fp in _ball(gens, int(seed), identity_fp):
        if length > radius_cap:
            return None
        if fp is not None and fp.matches(target_fp, manifold):
            return length
    return None


# ============================================================
# Results table
# ============================================================


def distortion_table(gens, word, x, y, n_max, seed=0):
    """Rows (n, bound, empirical_norm, ratio) for n = 1 .. n_max.

    The word's cocycle is computed once (the generator set memoizes it)
    and shared across all n.  The empirical norm comes from the word-ball
    oracle aimed at the n-th power of the word; None past the search cap,
    with a None ratio.
    """
    rows = []
    for n in range(1, int(n_max) + 1):
        bound = distortion_lower_bound(gens, word, x, y, n)
        target = gens.realize(word.power(n))
        norm = word_ball_norm(gens, target, seed=seed)
        ratio = None if not norm else bound / norm
        rows.append((n, bound, norm, ratio))
    return rows
