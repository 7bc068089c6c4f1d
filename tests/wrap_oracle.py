"""The q-wrap that ``geometry.ManifoldModel.wrap_q`` computed with
``np.mod`` alone, before large batches took ``_floor_remainder``, kept
verbatim (as a function of the manifold) as the oracle of the
bit-for-bit tests."""

import numpy as np

from symcocycle import geometry


def wrap_q(manifold, q):
    """Representative of q in [q_min, q_min + circumference)."""
    if not manifold.is_cylinder:
        return q
    out = manifold.window.q_min + np.mod(
        np.asarray(q, dtype=float) - manifold.window.q_min, manifold.circumference
    )
    if np.ndim(out) == 0:
        return float(out)
    return out


def record_declines(monkeypatch):
    """Patch ``geometry._floor_remainder`` to append, per call, whether it
    declined its batch (and so sent it to ``np.mod``); returns the list."""
    declined = []
    real = geometry._floor_remainder

    def counted(r, c, reach):
        out = real(r, c, reach)
        declined.append(out is None)
        return out

    monkeypatch.setattr(geometry, "_floor_remainder", counted)
    return declined
