"""The flood fill that ``invariants.find_fixed_points`` used to find the
exactly fixed regions of its scan grid before it labelled them with
arrays, kept verbatim as the oracle of the differential test.

It returns each region as the sorted list of its nodes, in the order
the row-major scan meets them.
"""

import numpy as np


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
