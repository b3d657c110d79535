"""Per-antenna-group shrinkage: the unconstrained half of the v-update.

For c = w - u_l the minimizer of

    (eta/L) * ||v||_{2,1}  +  (rho/2) * ||v - c||^2

acts groupwise: every antenna group keeps its direction (entry phases are
untouched) and its norm moves to max(0, g - eta/(rho*L)).  The stationarity
derivation behind the scale factor assumes a nonzero group; the clamp at zero
is the exact proximal operator in the regime where that derivation would
produce a negative norm.
"""

import numpy as np

from .problem import norms

# groups at or below this magnitude are treated as exactly zero
ZERO_GROUP_FLOOR = 1e-300


def group_shrink(c, eta, rho, L, M, N):
    """Blockwise soft threshold of the stacked vector ``c``.

    Group n (the M entries of antenna n) is scaled by
    max(0, 1 - eta/(rho*L*g_n)) where g_n is the group's l2 norm; zero groups
    stay zero.  With eta = 0 the input is returned unchanged.  Leading axes
    are batch axes: ``c`` of shape (..., M*N) shrinks every stack at once,
    each exactly as it would be on its own.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    c = np.asarray(c, dtype=complex)
    if eta == 0:
        return c.copy()
    C = c.reshape(c.shape[:-1] + (M, N))
    g = norms(C, -2)
    lam = eta / (rho * L)
    if g.min(initial=np.inf) > ZERO_GROUP_FLOOR:  # no zero or NaN group, as usual
        scale = np.maximum(0.0, 1.0 - lam / g)  # what both np.where below pick
    else:
        nonzero = g > ZERO_GROUP_FLOOR
        scale = np.where(nonzero, np.maximum(0.0, 1.0 - lam / np.where(nonzero, g, 1.0)), 0.0)
    return (C * scale[..., np.newaxis, :]).reshape(c.shape)
