"""The finite-difference jacobian that ``dynamics.map_with_jacobian`` used
before it carried exact tangents, kept verbatim as the oracle of the
differential tests.

Each derivative is a central difference with step ``FD_H``; the five
stencil copies of the points go through one ``apply`` call.
"""

import numpy as np

from symcocycle.dynamics import MapJet

#: Step of the central-difference jacobian.
FD_H = 1e-5


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
