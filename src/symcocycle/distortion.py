"""Word-length lower bounds from cocycle data.

A cocycle is Lipschitz for the word metric: a product of n generators
has a cocycle that splits into n terms, each oscillating at most as
much as the worst single generator, so osc(K(w)) <= m * |w| where m is
that worst-case oscillation.  Read backwards, any nonzero fixed-point
difference P certifies |w^n| >= n * |P| / m, a linear lower bound on
word length that never needs the group's presentation.

The companion oracle is a search over freely reduced words, with map
equality decided on a quasi-random probe set.  Exact functional
equality of diffeomorphisms is out of reach numerically; forty probe
images quantized at 1e-6 make the search finite, and a larger secondary
probe set turns any spurious identification into a loud warning instead
of a silent wrong answer.

The search meets in the middle: a word of length at most 2r is u v^-1
with |u|, |v| <= r, so marching the ball to radius r and the target
over the images of its nodes finds every word up to 2r.  The ball does
not depend on the target, so it is a value: the generator set keeps one
per probe seed, a table of words level by level, and a search marches
only the levels no earlier search needed.  A level is marched with one
``apply`` per letter on the stacked images of every frontier word that
takes the letter, primary and secondary probes together, and the target
marches once per piece over the stacked images of the nodes it has not
seen, both probe sets again.  So every recheck reads images already in
hand and marches nothing.  A march treats each point on its own, so
stacking changes no image.

A word's cocycle by the action route continues the longest live action
walk its pieces begin with (see ``cocycle.cocycle_by_action``): the walk
of ``a b`` continues the generator ``b``'s, so the pieces the two share
march over the grid once.
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
#: the secondary set rechecks words of different lengths that collide,
#: and each search's least match.
N_PROBES = 40
N_SECONDARY = 200

#: The largest radius cap.  The ball is marched to half of it; with two
#: generators each level holds up to three times as many words as the one
#: before.
MAX_RADIUS = 8

#: A fixed-point difference at most this large makes the bound vacuous.
DEGENERATE_TOL = 1e-9


class DegenerateBound(NumericalError):
    """The fixed-point difference vanishes, so the word-length bound is
    vacuous.  Reported rather than papered over with a zero."""


class FingerprintCollisionWarning(UserWarning):
    """Two words of different lengths shared a fingerprint, or the target
    matched its least word on the primary probes, but they disagree on
    the secondary probe set: the probe resolution spuriously merged two
    distinct maps, and the reported norm may undershoot."""


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
    within one cell on every probe.  Quantization can split a pair of maps
    that agree to within a cell across a rounding boundary; that costs a
    duplicate search node at worst, never a wrong match, because matching
    is done on true distances (``_largest_gap``, wrap-aware in q on the
    cylinder) rather than on keys.
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
        # probe seed -> its word ball
        self._balls = {}
        # a single positive letter composes to its generator alone, whose
        # cocycle is already in hand
        self._word_cocycles = {
            GroupWord(((name, 1),)): K for name, K in self.cocycles.items()
        }
        self._differences = {}

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

    def fixed_point_difference(self, word, x, y):
        """``polterovich`` of the word's composition and cocycle between x
        and y, memoized per word and pair: no power changes it."""
        key = (word, float(x[0]), float(x[1]), float(y[0]), float(y[1]))
        if key not in self._differences:
            self._differences[key] = polterovich(
                self.realize(word), self.cocycle_of_word(word), x, y
            )
        return self._differences[key]


# ============================================================
# The lower bound
# ============================================================


def distortion_lower_bound(gens, word, x, y, n):
    """Lower bound n * |P| / m on the word length of ``word``**n.

    P is the fixed-point difference of the word's composition between x
    and y, m the generator set's Lipschitz constant.  Both x and y must
    be fixed by the composition.  P comes from the generator set's memo
    (``GeneratorSet.fixed_point_difference``), so several values of n
    compute the word's cocycle and check its fixed points once.
    """
    n = int(n)
    if n < 0:
        raise ValidationError(f"the power n must be nonnegative, got {n}")
    value = gens.fixed_point_difference(word, x, y)
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
# Word-ball search
# ============================================================


# A view of one word of the ball: its letters in application order and
# its images of the primary probes followed by the secondary ones (q
# wrapped after every letter).
_Node = namedtuple("_Node", "letters p q")

# Probe coordinates one pairwise comparison holds at once: 2**20 doubles
# (8 MB) per temporary, so a ball of about a thousand nodes is matched
# against a few dozen target rows at a time.
_PAIR_BLOCK = 2**20


def _secondary_disagree(manifold, held, new):
    """Whether two nodes differ on the secondary probes.  Both carry their
    images already, so a recheck marches nothing."""
    gap = _largest_gap(
        manifold,
        held.p[N_PROBES:] - new.p[N_PROBES:],
        held.q[N_PROBES:] - new.q[N_PROBES:],
    )
    return gap > MATCH_TOL


class _Ball:
    """The word ball of one probe seed, grown one level at a time on demand.

    The ball is one table with a row per distinct map (by fingerprint
    key), under the first word that reached it, so at its least length,
    level by level in search order: row-major, letter-minor, with free
    reduction.  ``words`` holds each row's letters in application order,
    ``P`` and ``Q`` its images of the primary probes followed by the
    secondary ones, and ``seen`` maps each key to its row.  ``ends[k]``
    counts the rows of length at most k, so the frontier is the last
    level's rows and a row's length is the level it lies in.  A target's
    images of the rows, on both probe sets, are kept under every prefix
    of its pieces, so a target that extends an earlier one marches only
    the pieces it adds, and a larger radius only the rows that are new.
    """

    def __init__(self, gens, seed):
        self.letters = []
        for name in gens.names:
            self.letters.append((name, 1, gens.maps[name]))
            self.letters.append((name, -1, gens.maps[name].inverse()))
        self.manifold = gens.manifold
        window = self.manifold.window
        ps, qs = probe_points(window, N_PROBES, seed)
        sec_ps, sec_qs = probe_points(window, N_SECONDARY, seed, inset=0.04)
        p = np.concatenate([ps, sec_ps])
        q = self.manifold.wrap_q(np.concatenate([qs, sec_qs]))
        self.P, self.Q = p[None], q[None]
        self.words = [()]
        self.seen = {Fingerprint(p[:N_PROBES], q[:N_PROBES]).key: 0}
        self.ends = [1]
        self._images = {}  # target piece prefix -> its images of the rows

    def node(self, row):
        """The word of one row with its images."""
        return _Node(self.words[row], self.P[row], self.Q[row])

    def grow(self, radius):
        """The number of rows of length at most ``radius``, marching the
        missing levels."""
        while len(self.ends) <= radius:
            self._march()
        return self.ends[radius]

    def _march(self):
        """Add the next level: one ``apply`` per letter on the stacked
        images of every frontier row that takes the letter.  A candidate
        whose key is held by a row of another length is rechecked on the
        secondary probes.  Only the marches can raise, and they come
        first, so a march that raises leaves the ball as it was."""
        frontier = range(self.ends[-2] if len(self.ends) > 1 else 0, self.ends[-1])
        images = {}  # (row, letter index) -> images
        for j, (name, e, m) in enumerate(self.letters):
            # free reduction: never undo the last letter
            takers = [i for i in frontier if self.words[i][-1:] != ((name, -e),)]
            if takers:
                pim, qim = m.apply(self.P[takers].ravel(), self.Q[takers].ravel())
                qim = self.manifold.wrap_q(qim).reshape(len(takers), -1)
                images.update(zip(
                    ((i, j) for i in takers), zip(pim.reshape(qim.shape), qim)
                ))
        length = len(self.ends)
        fresh, collisions = [], []
        for i, j in sorted(images):  # row-major, letter-minor
            new = _Node(self.words[i] + (self.letters[j][:2],), *images[i, j])
            key = Fingerprint(new.p[:N_PROBES], new.q[:N_PROBES]).key
            held = self.seen.get(key)
            if held is None:
                self.seen[key] = self.ends[-1] + len(fresh)
                fresh.append(new)
            # a row of an earlier level is a word of another length
            elif held < self.ends[-1] and _secondary_disagree(
                self.manifold, self.node(held), new
            ):
                word = self.words[held]
                collisions.append(
                    f"words {GroupWord(word[::-1])} (length {len(word)}) and "
                    f"{GroupWord(new.letters[::-1])} (length {length}) share "
                    "a fingerprint but differ on the secondary probes"
                )
        self.words += [n.letters for n in fresh]
        self.P = np.vstack([self.P, *(n.p for n in fresh)])
        self.Q = np.vstack([self.Q, *(n.q for n in fresh)])
        self.ends.append(len(self.words))
        # warned once the level is in place, so a warning turned into an
        # error cannot leave the ball half grown
        for text in collisions:
            warnings.warn(text, FingerprintCollisionWarning, stacklevel=4)

    def images(self, pieces, stop):
        """Images of the first ``stop`` rows under ``pieces`` applied in
        order, unwrapped, on the primary probes followed by the secondary
        ones, as the rows hold them: each piece marches once, on the rows
        its prefix has not taken yet.  The secondary columns are what a
        recheck of a match reads, so it marches nothing."""
        if not pieces:
            return self.P[:stop], self.Q[:stop]
        held = self._images.get(pieces)
        have = 0 if held is None else len(held[0])
        if have < stop:
            p, q = self.images(pieces[:-1], stop)
            pim, qim = pieces[-1].apply(p[have:].ravel(), q[have:].ravel())
            rows = pim.reshape(-1, p.shape[1]), qim.reshape(-1, p.shape[1])
            if held is not None:
                rows = tuple(np.concatenate(pair) for pair in zip(held, rows))
            held = self._images[pieces] = rows
        return held[0][:stop], held[1][:stop]


def _least_match(manifold, ball, tp, tq):
    """``(|u| + |v|, u, v)`` for the least such sum over the rows u, v of
    the target's images ``tp``, ``tq`` of the primary probes where the
    image of row v sits within the match tolerance of row u on every one
    of them; None when no pair matches.  Ties go to the first pair in
    v-major order."""
    stop = len(tp)
    step = max(1, _PAIR_BLOCK // (stop * N_PROBES))
    up, uq = ball.P[:stop, :N_PROBES], ball.Q[:stop, :N_PROBES]
    lengths = np.searchsorted(ball.ends, np.arange(stop), side="right")
    best = None
    for a in range(0, stop, step):
        gap = np.maximum(
            np.abs(tp[a:a + step, None] - up).max(axis=2),
            np.abs(manifold.wrap_delta(tq[a:a + step, None] - uq)).max(axis=2),
        )
        vs, us = np.nonzero(gap <= MATCH_TOL)
        if len(vs):
            sums = lengths[vs + a] + lengths[us]
            k = int(np.argmin(sums))
            if best is None or sums[k] < best[0]:
                best = (int(sums[k]), int(us[k]), int(vs[k]) + a)
    return best


def word_ball_norm(gens, target, radius_cap=6, seed=0):
    """Least word length realizing ``target``, or None past the cap.

    Meet in the middle over freely reduced words in the generators and
    their inverses: a word of length L <= 2r is u v^-1 with |u|, |v| <= r,
    and it realizes the target when target(v(x)) equals u(x).  So for
    r = 1, 2, ... up to ceil(cap / 2) the search grows the ball B_r of
    distinct maps (one per fingerprint key, each at its least length),
    marches the target over the primary probe images of its new nodes,
    and returns the least |u| + |v| over the pairs that match within the
    match tolerance, wrap-aware on the cylinder, if it is at most the cap.
    The identity paired with itself gives 0.  ``target`` is anything with
    an ``apply(p, q)`` method and the generators' manifold model.

    The secondary probes recheck two things.  When a level is marched, a
    word whose key a word of another length holds is rechecked:
    agreement is a genuine relation between the generators, disagreement
    means the probe resolution merged distinct maps and issues a
    FingerprintCollisionWarning, since a norm may then undershoot.  And
    the least match is rechecked on the target's images of v's secondary
    probes, which the target's march over the ball's rows has already
    made, so the recheck marches nothing; a disagreement warns the same
    way, and the norm is still returned.

    The generator set keeps one ball per probe seed, so a search marches
    only the levels no earlier search needed, and each collision warns
    once per ball.  A level whose march raises is not kept.  The target's
    images, on both probe sets, are kept per prefix of its pieces, so
    each power of a word costs one march of the word per node.
    """
    radius_cap = int(radius_cap)
    if not (0 <= radius_cap <= MAX_RADIUS):
        raise ValidationError(
            f"radius_cap must be between 0 and {MAX_RADIUS}, got {radius_cap}"
        )
    manifold = gens.manifold
    if target.manifold != manifold:
        raise ValidationError(
            "the target lives on a different manifold model than the generators"
        )
    seed = int(seed)
    ball = gens._balls.get(seed)
    if ball is None:
        ball = gens._balls[seed] = _Ball(gens, seed)
    pieces = tuple(getattr(target, "factors", (target,)))
    for radius in range(min(1, radius_cap), (radius_cap + 1) // 2 + 1):
        tp, tq = ball.images(pieces, ball.grow(radius))
        tq = manifold.wrap_q(tq)
        # pairs of old rows matched nothing at the last radius, and their
        # images are the same bits, so comparing them again changes nothing
        match = _least_match(manifold, ball, tp[:, :N_PROBES], tq[:, :N_PROBES])
        if match is not None:
            length, iu, iv = match
            if length > radius_cap:
                return None
            u, v = ball.node(iu), ball.node(iv)
            # the target's image of v, already marched on both probe sets
            if _secondary_disagree(manifold, u, _Node(v.letters, tp[iv], tq[iv])):
                word = GroupWord(
                    u.letters[::-1] + tuple((n, -e) for n, e in v.letters)
                )
                warnings.warn(
                    f"the target matches {word} (length {length}) on the "
                    "primary probes but differs from it on the secondary "
                    "probes",
                    FingerprintCollisionWarning,
                    stacklevel=2,
                )
            return length
    return None


# ============================================================
# Results table
# ============================================================


def distortion_table(gens, word, x, y, n_max, seed=0):
    """Rows (n, bound, empirical_norm, ratio) for n = 1 .. n_max.

    The word's cocycle and P are computed once (the generator set
    memoizes them) and shared across all n.  The empirical norm comes
    from the word-ball oracle aimed at the n-th power of the word; None
    past the search cap, with a None ratio.
    """
    rows = []
    for n in range(1, int(n_max) + 1):
        bound = distortion_lower_bound(gens, word, x, y, n)
        target = gens.realize(word.power(n))
        norm = word_ball_norm(gens, target, seed=seed)
        ratio = None if not norm else bound / norm
        rows.append((n, bound, norm, ratio))
    return rows
