"""Nearest-point projections onto single quadratic constraint sets.

Each ADMM constraint block needs  argmin ||v - vbar||^2  s.t.  v^H F v <= f.
Stationarity gives (I + mu*F) v = vbar with a scalar multiplier mu >= 0, a
single equation in mu over the interval where I + mu*F stays positive
semidefinite.  For the structured constraint kinds F is diagonal or (block)
rank-one and the equation involves only the coefficients along one generator
direction; components of vbar orthogonal to the generator are carried
through untouched.  The antenna-power, stopband and passband equations are
solved in closed form, by batched kernels that take k stacked inputs at once
(``project_beams``, ``project_powers``): the ADMM v-update projects all its
beam copies in one call, and the single-constraint functions below are
batch-of-one calls into the same kernels.  The SINR and generic equations
are solved one constraint at a time by root-finding on a secular function.

F negative semidefinite (mainlobe floors) and indefinite (SINR floors) is
where the set is nonconvex; the multiplier interval is then bounded and a
saturated multiplier with an injected critical-direction component handles
the degenerate inputs, exactly as in the trust-region "hard case".

``project_generic`` solves the same problem for any Hermitian F through a
dense eigendecomposition; ``project`` routes to it every constraint that is
not an instance of the four built-in kinds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError
from .problem import (
    AntennaPowerConstraint,
    BeamConstraint,
    SinrConstraint,
    beam_rows,
    sq_norms,
    user_blocks,
)

# absolute tolerance on the secular residual; max iterations of the
# safeguarded Newton/bisection loop
SECULAR_TOL = 1e-12
SECULAR_MAX_ITER = 200

# production guard on the stationarity residual relative to 1 + ||vbar||
KKT_GUARD = 1e-6

_DEGENERATE_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Projected point, KKT multiplier, and the stationarity residual."""

    v: np.ndarray
    multiplier: float
    active: bool
    kkt_residual: float


def _secular_root(fun, dfun, lo, hi, scale=1.0, context=""):
    """Root of strictly monotone ``fun`` on [lo, hi].

    ``fun(lo)`` and ``fun(hi)`` must have opposite signs (zero counts as
    either).  Newton steps are taken whenever they land inside the current
    bracket, otherwise the bracket is bisected; the bracket never widens.
    """
    tol = SECULAR_TOL * max(1.0, abs(scale))
    flo = fun(lo)
    if abs(flo) <= tol:
        return lo
    fhi = fun(hi)
    if abs(fhi) <= tol:
        return hi
    if flo * fhi > 0:
        raise ProjectionError(
            f"secular bracket [{lo:g}, {hi:g}] does not change sign{context}",
            {"f_lo": flo, "f_hi": fhi},
        )
    rising = flo < 0
    mu = 0.5 * (lo + hi)
    for _ in range(SECULAR_MAX_ITER):
        fm = fun(mu)
        if abs(fm) <= tol:
            return mu
        if (fm < 0) == rising:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(hi)):
            return 0.5 * (lo + hi)
        d = dfun(mu)
        step = mu - fm / d if d != 0.0 else None
        mu = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    if hi - lo <= 1e-9 * max(1.0, abs(hi)):
        return 0.5 * (lo + hi)
    raise ProjectionError(
        f"secular root did not converge in {SECULAR_MAX_ITER} iterations{context}",
        {"bracket": (lo, hi), "residual": fun(0.5 * (lo + hi))},
    )


def project_powers(G, limit):
    """Radial projection of k antenna groups G (k, M) onto their power balls.

    Groups within their ``limit`` come back unchanged with multiplier 0.
    Returns the projected groups, the KKT multipliers of the normalized
    constraints and the stationarity residuals ||(g' - g) + mu*g'||.
    """
    power = sq_norms(G[:, :, np.newaxis]).ravel()
    scale = np.sqrt(limit / np.maximum(power, limit))  # 1 within the limit
    mu = 1.0 / scale - 1.0
    P = np.where((power <= limit)[:, np.newaxis], G, G * scale[:, np.newaxis])
    D = (P - G) + mu[:, np.newaxis] * P
    return P, mu, np.sqrt(sq_norms(D[:, :, np.newaxis]).ravel())


def project_beams(W, beams):
    """Closed-form projection of k stacked points onto their beam constraints.

    Row i of W (k, M, N) holds the user blocks of the point to project onto
    row i of ``beams`` (a ``BeamRows``).  The steering-aligned coefficient
    alpha of every block scales by 1/(1 + sign*mu*||a||^2), so the response
    S0/(1 + sign*mu*||a||^2)^2 meets the threshold t in closed form: the
    coefficients scale by sqrt(t/S0) and mu = sign*(sqrt(S0/t) - 1)/||a||^2.
    A stopband (sign +1) shrinks them; a passband (sign -1) amplifies them
    with mu in [0, 1/||a||^2).  When every block of a passband point is
    orthogonal to the steering vector (S0 <= 1e-300) nothing can be
    amplified: the multiplier saturates at 1/||a||^2 and the missing response
    is injected into user block 0 (a deterministic tie-break; the projection
    cost is invariant to how the mass is split across blocks).  A row whose
    S0 already meets its threshold comes back unchanged with multiplier 0.

    Returns the projected points (k, M, N), the multipliers and the
    stationarity residuals ||(v - vbar) + mu*F v||.
    """
    k, M, N = W.shape
    sign, t, norm2 = beams.sign, beams.threshold, beams.norm2
    alpha = W @ beams.unit_probe
    S0 = norm2 * sq_norms(alpha)
    move = ~(sign * S0 <= sign * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(S0 / t)
        beta = alpha / ratio
    mu = sign * (ratio - 1.0) / norm2
    if np.count_nonzero(S0 <= _DEGENERATE_FLOOR):
        degenerate = (move & (S0 <= _DEGENERATE_FLOOR) & (sign < 0)).ravel()
        beta[degenerate] = 0.0
        beta[degenerate, 0, 0] = np.sqrt(t[degenerate, 0, 0] / norm2[degenerate, 0, 0])
        mu[degenerate] = 1.0 / norm2[degenerate]
    V = W + (beta - alpha) * beams.unit
    if not move.all():
        V, mu = np.where(move, V, W), np.where(move, mu, 0.0)
    D = (V - W) + (sign * mu) * (V @ beams.probe) * beams.steering
    return V, mu.ravel(), np.sqrt(sq_norms(D.reshape(k, M * N, 1))).ravel()


def project_antenna_power(group, limit):
    """Radial projection of one antenna group onto the power ball:
    ``project_powers`` on a batch of one.  Returns the projected group and the
    KKT multiplier of the normalized constraint (zero when already inside)."""
    G = np.asarray(group, dtype=complex)[np.newaxis]
    P, mu, _ = project_powers(G, np.array([limit], dtype=float))
    return P[0], float(mu[0])


def _project_one_beam(vbar, steering, sign, threshold, M, N):
    W = np.reshape(np.asarray(vbar, dtype=complex), (1, M, N))
    V, mu, _ = project_beams(W, beam_rows([0], steering, [sign], [threshold], N))
    return V.reshape(-1), float(mu[0])


def project_stopband(vbar, steering, threshold, M, N):
    """Shrink the steering-aligned coefficients until the response ceiling holds:
    ``project_beams`` on a batch of one with sign +1.  Returns (v, mu)."""
    return _project_one_beam(vbar, steering, 1.0, threshold, M, N)


def project_passband(vbar, steering, threshold, M, N):
    """Amplify the steering-aligned coefficients until the response floor holds:
    ``project_beams`` on a batch of one with sign -1.  Returns (v, mu)."""
    return _project_one_beam(vbar, steering, -1.0, threshold, M, N)


def project_sinr(vbar, h, gamma, noise_variance, user, M, N):
    """Move the channel-aligned coefficients until the SINR floor holds.

    The served block's coefficient amplifies by 1/(1 - nu), every interfering
    block's shrinks by 1/(1 + nu*gamma), with nu = mu*||h||^2 in [0, 1).  A
    zero served-block coefficient is the hard case: nu saturates at 1, the
    interference is shrunk accordingly, and the smallest feasible served
    component is injected (the cost is strictly increasing in the injected
    magnitude, so the boundary value is optimal).
    """
    h = np.asarray(h, dtype=complex)
    A = float(np.vdot(h, h).real)
    hhat = h / np.sqrt(A)
    W = user_blocks(np.asarray(vbar, dtype=complex), M, N)
    z = W @ np.conj(hhat)
    power = np.abs(z) ** 2
    pm = float(power[user])
    pI = float(power.sum() - power[user])
    target = gamma * noise_variance
    if A * (pm - gamma * pI) >= target:
        return np.asarray(vbar, dtype=complex).copy(), 0.0

    if pm <= _DEGENERATE_FLOOR:
        znew = z / (1.0 + gamma)
        interference = A * pI / (1.0 + gamma) ** 2
        t = np.sqrt((target + gamma * interference) / A)
        phase = z[user] / abs(z[user]) if abs(z[user]) > 0 else 1.0
        znew[user] = t * phase
        nu = 1.0
    else:

        def fun(nu):
            return A * (
                pm / (1.0 - nu) ** 2 - gamma * pI / (1.0 + nu * gamma) ** 2
            ) - target

        def dfun(nu):
            return A * (
                2.0 * pm / (1.0 - nu) ** 3
                + 2.0 * gamma**2 * pI / (1.0 + nu * gamma) ** 3
            )

        # at hi the served term alone reaches 2*(target + gamma*A*pI), which
        # exceeds the worst-case interference deficit, closing the bracket
        hi = 1.0 - np.sqrt(A * pm / (2.0 * (target + gamma * A * pI)))
        nu = _secular_root(fun, dfun, 0.0, hi, scale=target, context=" (sinr)")
        znew = z / (1.0 + nu * gamma)
        znew[user] = z[user] / (1.0 - nu)
    V = W + np.outer(znew - z, hhat)
    return V.reshape(-1), nu / A


def project_generic(F, f, vbar):
    """Projection onto {v : v^H F v <= f} for any Hermitian F.

    Eigendecomposes F and solves the secular equation over the multiplier
    range keeping I + mu*F PSD.  Handles the trust-region-style hard case
    (vbar orthogonal to the most-negative eigenspace) by saturating the
    multiplier and injecting a critical eigenvector component of exactly the
    magnitude that activates the constraint.
    """
    F = np.asarray(F, dtype=complex)
    vbar = np.asarray(vbar, dtype=complex)
    herm_gap = np.linalg.norm(F - F.conj().T)
    if herm_gap > 1e-10 * max(1.0, np.linalg.norm(F)):
        raise ValueError(f"constraint matrix is not Hermitian (gap {herm_gap:g})")
    quad0 = float((vbar.conj() @ (F @ vbar)).real)
    if quad0 <= f:
        return vbar.copy(), 0.0

    lam, Q = np.linalg.eigh(F)
    b = Q.conj().T @ vbar
    b2 = np.abs(b) ** 2
    lam_scale = max(1.0, float(np.abs(lam).max()))

    def phi(mu):
        return float(np.sum(lam * b2 / (1.0 + mu * lam) ** 2) - f)

    def dphi(mu):
        return float(-2.0 * np.sum(lam**2 * b2 / (1.0 + mu * lam) ** 3))

    lam_min = float(lam[0])
    if lam_min >= -1e-14 * lam_scale:
        # PSD (within tolerance): phi decreases toward -f
        if f < 0:
            raise ValueError(
                "empty feasible set: PSD constraint matrix with negative bound"
            )
        if f == 0:
            null = np.abs(lam) <= 1e-12 * lam_scale
            y = np.where(null, b, 0.0)
            return Q @ y, np.inf
        hi = 1.0
        while phi(hi) > 0.0:
            hi *= 2.0
        mu = _secular_root(phi, dphi, 0.0, hi, scale=max(1.0, abs(f)),
                           context=" (generic psd)")
    else:
        mu_max = -1.0 / lam_min
        hi = mu_max * (1.0 - 1e-12)
        if phi(hi) > 0.0:
            # hard case: no root below mu_max, so saturate and inject
            crit = lam <= lam_min + 1e-12 * lam_scale
            y = np.zeros_like(b)
            y[~crit] = b[~crit] / (1.0 + mu_max * lam[~crit])
            quad_pseudo = float(np.sum(lam[~crit] * np.abs(y[~crit]) ** 2))
            t2 = max((f - quad_pseudo) / lam_min, 0.0)
            i0 = int(np.argmax(crit))
            phase = b[i0] / abs(b[i0]) if abs(b[i0]) > 0 else 1.0
            y[i0] = np.sqrt(t2) * phase
            return Q @ y, mu_max
        mu = _secular_root(phi, dphi, 0.0, hi, scale=max(1.0, abs(f)),
                           context=" (generic)")
    y = b / (1.0 + mu * lam)
    return Q @ y, mu


def stationarity_error(constraint, multiplier, residual, bound):
    """The ProjectionError for a projection that fails the KKT guard."""
    return ProjectionError(
        f"projection onto {constraint.describe()} violates stationarity "
        f"(residual {residual:g} > {bound:g})",
        {"kind": constraint.kind, "multiplier": multiplier, "residual": residual},
    )


def project(constraint, vbar):
    """Projection dispatch: keep feasible points, else run the structured path.

    Beam and antenna-power constraints go through their batched kernels as a
    batch of one; SINR and any other constraint are solved here, one at a
    time.  The stationarity residual ||(v - vbar) + mu*F v|| is checked
    against a loose production guard; tests pin it far tighter.
    """
    vbar = np.asarray(vbar, dtype=complex)
    if constraint.quad(vbar) <= constraint.f:
        return ProjectionResult(
            v=vbar.copy(), multiplier=0.0, active=False, kkt_residual=0.0
        )
    if isinstance(constraint, AntennaPowerConstraint):
        v = vbar.copy()
        sel = slice(constraint.antenna, None, constraint.N)
        G = vbar[sel][np.newaxis]
        P, mu, residual = project_powers(G, np.array([constraint.limit], dtype=float))
        v[sel], mu, residual = P[0], float(mu[0]), float(residual[0])
    elif isinstance(constraint, BeamConstraint):
        W = vbar.reshape(1, constraint.M, constraint.N)
        V, mu, residual = project_beams(W, constraint.rows)
        v, mu, residual = V.reshape(-1), float(mu[0]), float(residual[0])
    else:
        if isinstance(constraint, SinrConstraint):
            v, mu = project_sinr(
                vbar, constraint.h, constraint.gamma, constraint.noise_variance,
                constraint.user, constraint.M, constraint.N,
            )
        else:
            v, mu = project_generic(constraint.dense_f_matrix(), constraint.f, vbar)
        residual = float(np.linalg.norm((v - vbar) + mu * constraint.f_action(v)))
    bound = KKT_GUARD * (1.0 + math.sqrt(np.vdot(vbar, vbar).real))
    if not math.isfinite(residual) or residual > bound:
        raise stationarity_error(constraint, mu, residual, bound)
    return ProjectionResult(v=v, multiplier=mu, active=mu > 0.0, kkt_residual=residual)
