"""Nearest-point projections onto single quadratic constraint sets.

Each ADMM constraint block needs  argmin ||v - vbar||^2  s.t.  v^H F v <= f.
Stationarity gives (I + mu*F) v = vbar with a multiplier mu >= 0 on the
interval where I + mu*F stays positive semidefinite.  For each of the four
kinds F is diagonal or (block) rank-one, so only the coefficients along one
generator direction move.  Each kind has one kernel on one point W (M, N):
a pass-through test, then the closed form on floats and row vectors
(antenna powers, beams), or the SINR secular equation by a safeguarded
Newton loop on floats.  ``sweep_plan`` slices their row data once per
problem from ``families``, as (kernel, row) pairs; the kernels read nothing
else.  ``move`` is one row's step: its kernel behind the KKT guard, any
failure raised as a ``ProjectionError`` naming the row as
``ProblemInstance.row_names`` does.  The projection sweep and the ADMM
v-update both move their points with it.  Where F is
negative semidefinite (mainlobe floors) or indefinite (SINR floors) the set
is nonconvex: a saturated multiplier with an injected critical-direction
component handles the degenerate inputs, as in the trust-region "hard
case".
"""

import math

import numpy as np

from .errors import ProjectionError

# absolute tolerance on the secular residual; max iterations of the
# safeguarded Newton/bisection loop; machine epsilon, its narrowest bracket
SECULAR_TOL = 1e-12
SECULAR_MAX_ITER = 200
EPS = float(np.finfo(float).eps)

# production guard on the stationarity residual relative to 1 + ||vbar||
KKT_GUARD = 1e-6

_DEGENERATE_FLOOR = 1e-300


def _matvec(W, x):
    """``W @ x`` for one C-contiguous point W (M, N), as every caller of
    ``move`` passes it, and a column x, (N, 1) or (N,).  Where N > 1 it runs
    as ``W.dot(x)``: the same BLAS gemv at half the call overhead, which the
    tests pin byte for byte.  A single column keeps ``@``, whose loop for it
    skips BLAS and rounds differently."""
    return W.dot(x) if W.shape[1] > 1 else W @ x


def _power_row(W, r):
    """Radial projection of antenna r.antenna of W (M, N), a ``PowerRows``
    row, onto its power ball, unless it is within r.limit: the group scales
    by sqrt(limit/power), with multiplier 1/scale - 1."""
    G = W[:, r.antenna]
    power = np.vdot(G, G).real
    if power <= r.limit:
        return None
    # numpy scalars: an overflowed power gives mu = inf, not a ZeroDivisionError
    scale = np.sqrt(r.limit / power)
    mu = 1.0 / scale - 1.0
    V = W.copy()
    V[:, r.antenna] = P = G * scale
    D = (P - G) + mu * P
    return V, float(mu), math.sqrt(np.vdot(D, D).real)


def _beam_point(W, r):
    """Closed-form projection of one point W (M, N) onto the beam constraint
    of one row r, as ``BeamRows.each`` gives it.

    The steering-aligned coefficient of every block scales by 1/(1 +
    sign*mu*||a||^2), so the response S0 meets the threshold t in closed
    form: the coefficients scale by sqrt(t/S0) and
    mu = sign*(sqrt(S0/t) - 1)/||a||^2.  A stopband (sign +1) shrinks them; a
    passband (sign -1) amplifies them with mu in [0, 1/||a||^2).  A passband
    point orthogonal to a in every block (S0 <= 1e-300) saturates mu at
    1/||a||^2 and gets the missing response injected into user block 0 (a
    deterministic tie-break; the cost does not depend on the split).  A point
    whose S0 already meets its threshold comes back unchanged, with mu = 0.
    Returns the projected point, the multiplier and the stationarity
    residual ||(v - vbar) + mu*F v||.  Products with a column run through
    ``_matvec`` and scalars stay Python floats, which cuts call overhead
    and leaves every rounding as it was.
    """
    _, steering, unit, probe, unit_probe, norm2, sign, t, _ = r
    alpha = _matvec(W, unit_probe)
    S0 = norm2 * float(np.vdot(alpha, alpha).real)
    if sign * S0 <= sign * t:
        V, mu = W.copy(), 0.0
    else:
        if S0 <= _DEGENERATE_FLOOR and sign < 0:
            beta, mu = math.sqrt(t / norm2) * np.eye(W.shape[0], 1), 1.0 / norm2
        else:
            ratio = math.sqrt(S0 / t)
            beta, mu = alpha / ratio, sign * (ratio - 1.0) / norm2
        V = W + (beta - alpha) * unit
    D = (V - W) + (sign * mu) * _matvec(V, probe) * steering
    return V, mu, math.sqrt(np.vdot(D, D).real)


def _beam_row(W, r):
    """``_beam_point`` behind a pass-through test of the response along a:
    S0, along a/||a||, rounds differently; boundary points pass."""
    coef = _matvec(W, r.probe)
    if r.sign * float(np.vdot(coef, coef).real) <= r.sign * r.threshold:
        return None
    return _beam_point(W, r)


def _sinr_row(W, r):
    """Move the channel-aligned coefficients of one point W (M, N) until the
    SINR floor of r (a ``SinrRows.row``) holds, unless it already does.

    The served block's coefficient amplifies by 1/(1 - nu), every interfering
    block's shrinks by 1/(1 + nu*gamma), with nu = mu*||h||^2 in [0, 1) the
    root of A*(pm/(1 - nu)^2 - gamma*pI/(1 + nu*gamma)^2) = target: Newton
    steps inside the bracket, bisection otherwise.  A served response below
    machine precision of the level it must reach (the root then rounds to 1)
    is the hard case: the smallest feasible served component is injected (the
    cost grows with its magnitude, so the boundary value is optimal), nu = 1 -
    |served|/|injected|, and the interference shrinks by 1/(1 + nu*gamma)
    with that nu.  Products and scalars are as in ``_beam_point``.
    """
    probe, hhat, hhat_probe, A, m, gamma, target, weights, h = r
    z = _matvec(W, hhat_probe)
    power = np.abs(z) ** 2
    pm = float(power[m])
    pI = float(np.add.reduce(power)) - pm
    reached = A * (pm - gamma * pI)
    if reached >= target:
        return None
    if pm <= _DEGENERATE_FLOOR or A * pm <= EPS * (target + gamma * A * pI):
        # znew[m] = z[m]/(1 - nu) keeps the served block stationary; from
        # nu = 1, two passes settle nu, t and the 1/(1 + nu*gamma) shrink
        nu = 1.0
        for _ in range(2):
            interference = A * pI / (1.0 + nu * gamma) ** 2
            t = np.sqrt((target + gamma * interference) / A)
            nu = 1.0 - abs(z[m]) / t
        znew = z / (1.0 + nu * gamma)
        phase = z[m] / abs(z[m]) if abs(z[m]) > 0 else 1.0
        znew[m] = t * phase
    else:
        # the secular function rises on [0, hi] from the pass-through deficit,
        # below zero (or NaN), to at least target + gamma*A*pI > 0, as the
        # served term alone reaches 2*(target + gamma*A*pI) at hi
        lo, hi = 0.0, 1.0 - math.sqrt(A * pm / (2.0 * (target + gamma * A * pI)))
        tol = SECULAR_TOL * max(1.0, abs(target))
        if abs(reached - target) <= tol:
            nu = lo
        elif abs(A * (pm / (1.0 - hi) ** 2 - gamma * pI / (1.0 + hi * gamma) ** 2)
                 - target) <= tol:
            nu = hi
        else:
            nu = 0.5 * (lo + hi)
            for _ in range(SECULAR_MAX_ITER):
                f = A * (pm / (1.0 - nu) ** 2 - gamma * pI / (1.0 + nu * gamma) ** 2) - target
                if abs(f) <= tol:
                    break
                lo, hi = (nu, hi) if f < 0 else (lo, nu)
                if hi - lo <= 4.0 * EPS * max(1.0, abs(hi)):
                    nu = 0.5 * (lo + hi)
                    break
                d = A * (2.0 * pm / (1.0 - nu) ** 3  # >= 2*A*pm > 0, as 0 < 1 - nu <= 1
                         + 2.0 * gamma**2 * pI / (1.0 + nu * gamma) ** 3)
                step = nu - f / d
                nu = step if lo < step < hi else 0.5 * (lo + hi)
            else:
                nu = 0.5 * (lo + hi)
                if hi - lo > 1e-9 * max(1.0, abs(hi)):
                    f = A * (pm / (1.0 - nu) ** 2 - gamma * pI / (1.0 + nu * gamma) ** 2) - target
                    raise ProjectionError(
                        f"secular root did not converge in {SECULAR_MAX_ITER} iterations (sinr)",
                        {"bracket": (lo, hi), "residual": f})
        znew = z / (1.0 + nu * gamma)
        znew[m] = z[m] / (1.0 - nu)
    V = W + (znew - z)[:, np.newaxis] * hhat[np.newaxis, :]  # np.outer's multiply, as it shapes it
    mu = nu / A
    D = (V - W) + (mu * weights * _matvec(V, probe))[:, np.newaxis] * h
    return V, mu, math.sqrt(np.vdot(D, D).real)


def sweep_plan(problem):
    """``ProblemInstance.sweep_plan``: (kernel, row data) per constraint in
    order, each family's rows read in one pass from ``problem.families``."""
    plan = [None] * problem.L
    for kernel, family in zip((_beam_row, _power_row, _sinr_row), problem.families):
        for l, row in zip(family.rows.tolist(), family.each()):
            plan[l] = (kernel, row)
    return tuple(plan)


def move(problem, l, W):
    """One step of the projection sweep: row l's kernel from
    ``problem.sweep_plan`` on one point W (M, N), behind the KKT guard
    ||(v - vbar) + mu*F v|| <= 1e-6*(1 + ||vbar||), a non-finite residual
    failing it.  The bound is never below 1e-6, so ||vbar|| is computed
    only for a residual outside [0, 1e-6]; the guard decides as if it were
    always computed.  Returns (V, mu, residual), or None where W
    already holds; a kernel or guard failure raises a ``ProjectionError``
    naming row l."""
    kernel, row = problem.sweep_plan[l]
    try:
        moved = kernel(W, row)
        if moved is None:
            return None
        residual = moved[2]
        if not 0.0 <= residual <= KKT_GUARD:  # NaN and +-inf go on to fail
            bound = KKT_GUARD * (1.0 + math.sqrt(np.vdot(W, W).real))
            if not math.isfinite(residual) or residual > bound:
                raise ProjectionError(
                    f"projection violates stationarity (residual {residual:g} > {bound:g})",
                    {"multiplier": moved[1], "residual": residual},
                )
    except ProjectionError as err:
        kind, name = problem.row_names[l]
        raise ProjectionError(
            f"constraint l={l} ({name}): {err}",
            dict(err.diagnostics, constraint_index=l, kind=kind),
        ) from err
    return moved
