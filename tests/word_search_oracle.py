"""The sequential word-ball search that ``distortion.word_ball_norm`` used
before it walked the ball in batched levels, kept verbatim as the oracle
of the differential tests.

Each search walks the ball again from the identity: one ``apply`` per
frontier node per letter on the forty primary probes, and each recheck
realizes both words from scratch on the secondary probes.
"""

import warnings

import numpy as np

from symcocycle.distortion import (
    MATCH_TOL,
    N_PROBES,
    N_SECONDARY,
    Fingerprint,
    FingerprintCollisionWarning,
    probe_points,
)
from symcocycle.dynamics import GroupWord
from symcocycle.errors import ValidationError


def _secondary_disagree(gens, letters_a, letters_b, ps, qs):
    """Whether two words, given as letter tuples in application order,
    realize maps that differ on the probes."""
    mani = gens.manifold
    fa, fb = (
        Fingerprint.of_map(gens.realize(GroupWord(letters[::-1])), ps, qs, mani)
        for letters in (letters_a, letters_b)
    )
    return fa.distance(fb, mani) > MATCH_TOL


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
    """
    radius_cap = int(radius_cap)
    if not (0 <= radius_cap <= 8):
        raise ValidationError(
            f"radius_cap must be between 0 and 8, got {radius_cap}"
        )
    manifold = gens.manifold
    ps, qs = probe_points(manifold.window, N_PROBES, seed)
    sec_ps, sec_qs = probe_points(
        manifold.window, N_SECONDARY, seed, inset=0.04
    )
    target_fp = Fingerprint.of_map(target, ps, qs, manifold)

    identity_fp = Fingerprint(
        np.array(ps, dtype=float), manifold.wrap_q(np.array(qs, dtype=float))
    )
    if identity_fp.matches(target_fp, manifold):
        return 0

    letters = []
    for name in gens.names:
        letters.append((name, 1, gens.maps[name]))
        letters.append((name, -1, gens.maps[name].inverse()))

    # Words are letter tuples in application order (first applied first).
    seen = {identity_fp.key: (0, ())}
    frontier = [((), identity_fp)]
    for length in range(1, radius_cap + 1):
        next_frontier = []
        for word, fp in frontier:
            for name, e, m in letters:
                if word and word[-1] == (name, -e):
                    continue  # free reduction: never undo the last letter
                new_word = word + ((name, e),)
                pim, qim = m.apply(fp.p_images, fp.q_images)
                new_fp = Fingerprint(pim, manifold.wrap_q(qim))
                if new_fp.matches(target_fp, manifold):
                    return length
                held = seen.get(new_fp.key)
                if held is not None:
                    held_length, held_word = held
                    if held_length != length and _secondary_disagree(
                        gens, held_word, new_word, sec_ps, sec_qs
                    ):
                        warnings.warn(
                            f"words {GroupWord(held_word[::-1])} (length "
                            f"{held_length}) and {GroupWord(new_word[::-1])} "
                            f"(length {length}) share a fingerprint but "
                            "differ on the secondary probes",
                            FingerprintCollisionWarning,
                            stacklevel=2,
                        )
                    continue
                seen[new_fp.key] = (length, new_word)
                next_frontier.append((new_word, new_fp))
        frontier = next_frontier
    return None
