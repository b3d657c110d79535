"""Nearest-point projections onto single quadratic constraint sets.

Each ADMM constraint block needs  argmin ||v - vbar||^2  s.t.  v^H F v <= f.
Stationarity gives (I + mu*F) v = vbar with a scalar multiplier mu >= 0, a
single equation in mu over the interval where I + mu*F stays positive
semidefinite.  For the structured constraint kinds F is diagonal or (block)
rank-one and the equation involves only the coefficients along one generator
direction; components of vbar orthogonal to the generator are carried
through untouched.  The antenna-power, stopband and passband equations are
solved in closed form; the SINR and generic ones by root-finding on a
secular function.

F negative semidefinite (mainlobe floors) and indefinite (SINR floors) is
where the set is nonconvex; the multiplier interval is then bounded and a
saturated multiplier with an injected critical-direction component handles
the degenerate inputs, exactly as in the trust-region "hard case".

``project_generic`` solves the same problem for any Hermitian F through a
dense eigendecomposition; it backs tests and exotic constraints, never the
production dispatch.  ``penalty_oracle`` is an independent multistart
quadratic-penalty solver used only for verification.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError
from .problem import (
    AntennaPowerConstraint,
    PassbandConstraint,
    SinrConstraint,
    StopbandConstraint,
    user_blocks,
)

# absolute tolerance on the secular residual; max iterations of the
# safeguarded Newton/bisection loop
SECULAR_TOL = 1e-12
SECULAR_MAX_ITER = 200

# production guard on the stationarity residual relative to 1 + ||vbar||
_KKT_GUARD = 1e-6

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


def project_antenna_power(group, limit):
    """Radial projection of one antenna group onto the power ball.

    Returns the projected group and the KKT multiplier of the normalized
    constraint (zero when already inside).
    """
    group = np.asarray(group, dtype=complex)
    power = float(np.vdot(group, group).real)
    if power <= limit:
        return group.copy(), 0.0
    scale = np.sqrt(limit / power)
    return group * scale, 1.0 / scale - 1.0


def _steering_split(vbar, generator, M, N):
    """Coefficients of each user block along the normalized generator."""
    g = np.asarray(generator, dtype=complex)
    A = float(np.vdot(g, g).real)
    ghat = g / np.sqrt(A)
    W = user_blocks(np.asarray(vbar, dtype=complex), M, N)
    coef = W @ np.conj(ghat)
    return W, ghat, A, coef


def project_stopband(vbar, steering, threshold, M, N):
    """Shrink the steering-aligned coefficients until the response ceiling holds.

    The aligned coefficient of every block scales by 1/(1 + mu*||a||^2), so
    the response S0/(1 + mu*||a||^2)^2 meets the ceiling t in closed form:
    the coefficients scale by sqrt(t/S0) and mu = (sqrt(S0/t) - 1)/||a||^2.
    """
    W, ahat, A, alpha = _steering_split(vbar, steering, M, N)
    S0 = A * float(np.vdot(alpha, alpha).real)
    if S0 <= threshold:
        return np.asarray(vbar, dtype=complex).copy(), 0.0
    ratio = np.sqrt(S0 / threshold)
    V = W + np.outer(alpha / ratio - alpha, ahat)
    return V.reshape(-1), (ratio - 1.0) / A


def project_passband(vbar, steering, threshold, M, N):
    """Amplify the steering-aligned coefficients until the response floor holds.

    The aligned coefficient of every block scales by 1/(1 - mu*||a||^2) with
    mu in [0, 1/||a||^2), so the response S0/(1 - mu*||a||^2)^2 meets the
    floor t in closed form: the coefficients scale by sqrt(t/S0) and
    mu = (1 - sqrt(S0/t))/||a||^2.  When every block is orthogonal to the
    steering vector nothing can be amplified: the multiplier saturates and
    the missing response is injected into user block 0 (a deterministic
    tie-break; the projection cost is invariant to how the mass is split
    across blocks).
    """
    W, ahat, A, alpha = _steering_split(vbar, steering, M, N)
    S0 = A * float(np.vdot(alpha, alpha).real)
    if S0 >= threshold:
        return np.asarray(vbar, dtype=complex).copy(), 0.0
    if S0 <= _DEGENERATE_FLOOR:
        beta = np.zeros(M, dtype=complex)
        beta[0] = np.sqrt(threshold / A)
        mu = 1.0 / A
    else:
        ratio = np.sqrt(S0 / threshold)
        beta = alpha / ratio
        mu = (1.0 - ratio) / A
    V = W + np.outer(beta - alpha, ahat)
    return V.reshape(-1), mu


def project_sinr(vbar, h, gamma, noise_variance, user, M, N):
    """Move the channel-aligned coefficients until the SINR floor holds.

    The served block's coefficient amplifies by 1/(1 - nu), every interfering
    block's shrinks by 1/(1 + nu*gamma), with nu = mu*||h||^2 in [0, 1).  A
    zero served-block coefficient is the hard case: nu saturates at 1, the
    interference is shrunk accordingly, and the smallest feasible served
    component is injected (the cost is strictly increasing in the injected
    magnitude, so the boundary value is optimal).
    """
    W, hhat, A, z = _steering_split(vbar, h, M, N)
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


def project(constraint, vbar):
    """Projection dispatch: keep feasible points, else run the structured path.

    The returned stationarity residual ||(v - vbar) + mu*F v|| is checked
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
        v[sel], mu = project_antenna_power(vbar[sel], constraint.limit)
    elif isinstance(constraint, StopbandConstraint):
        v, mu = project_stopband(
            vbar, constraint.steering, constraint.threshold,
            constraint.M, constraint.N,
        )
    elif isinstance(constraint, PassbandConstraint):
        v, mu = project_passband(
            vbar, constraint.steering, constraint.threshold,
            constraint.M, constraint.N,
        )
    elif isinstance(constraint, SinrConstraint):
        v, mu = project_sinr(
            vbar, constraint.h, constraint.gamma, constraint.noise_variance,
            constraint.user, constraint.M, constraint.N,
        )
    else:
        v, mu = project_generic(constraint.dense_f_matrix(), constraint.f, vbar)
    residual = float(np.linalg.norm((v - vbar) + mu * constraint.f_action(v)))
    bound = _KKT_GUARD * (1.0 + float(np.linalg.norm(vbar)))
    if not np.isfinite(residual) or residual > bound:
        raise ProjectionError(
            f"projection onto {constraint.describe()} violates stationarity "
            f"(residual {residual:g} > {bound:g})",
            {"kind": constraint.kind, "multiplier": mu, "residual": residual},
        )
    return ProjectionResult(v=v, multiplier=mu, active=mu > 0.0, kkt_residual=residual)


def realify_matrix(F):
    """Hermitian F as the equivalent real symmetric matrix on [Re; Im]."""
    F = np.asarray(F, dtype=complex)
    return np.block([[F.real, -F.imag], [F.imag, F.real]])


def realify_vector(v):
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag])


def _penalty_newton(Fr, f, xbar, x0, tau, max_iter=80):
    """Damped Newton minimization of ||x - xbar||^2 + tau*max(0, q(x))^2."""
    x = np.asarray(x0, dtype=float).copy()
    I = np.eye(x.size)

    def value(x):
        r = x - xbar
        q = x @ (Fr @ x) - f
        viol = max(q, 0.0)
        return r @ r + tau * viol * viol

    fx = value(x)
    if not np.isfinite(fx):
        return np.asarray(x0, dtype=float).copy(), np.inf
    for _ in range(max_iter):
        q = x @ (Fr @ x) - f
        viol = max(q, 0.0)
        Fx = Fr @ x
        g = 2.0 * (x - xbar) + (4.0 * tau * viol) * Fx
        if not np.all(np.isfinite(g)):
            break
        if np.linalg.norm(g) <= 1e-13 * (1.0 + abs(fx)):
            break
        if q > 0.0:
            H = 2.0 * I + (4.0 * tau * q) * Fr + (8.0 * tau) * np.outer(Fx, Fx)
        else:
            H = 2.0 * I
        d = None
        shift = 0.0
        for _ in range(60):
            try:
                np.linalg.cholesky(H + shift * I)
                d = np.linalg.solve(H + shift * I, -g)
                break
            except np.linalg.LinAlgError:
                shift = max(2.0 * shift, 1e-6 * max(float(np.abs(H).max()), 1.0))
        if d is None or not np.all(np.isfinite(d)):
            d = -g / max(float(np.linalg.norm(g)), 1.0)
        gd = g @ d
        t, improved = 1.0, False
        for _ in range(60):
            xt = x + t * d
            ft = value(xt)
            if np.isfinite(ft) and ft <= fx + 1e-4 * t * gd:
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        moved = float(np.linalg.norm(t * d))
        x, fx = xt, ft
        if moved <= 1e-16 * (1.0 + float(np.linalg.norm(x))):
            break
    return x, fx


def penalty_oracle(F, f, vbar, seed=0, n_starts=32, keep=6):
    """Reference projection by an escalating quadratic penalty; test use only.

    Minimizes ||v - vbar||^2 + tau*max(0, v^H F v - f)^2 with tau escalating
    over nine decades.  All random restarts run the first stage; the best few
    survivors are warm-started through the remaining stages, which keeps the
    multistart honest for the nonconvex kinds without paying full price on
    every start.  Intended for dimensions <= 8.
    """
    vbar = np.asarray(vbar, dtype=complex)
    n = vbar.shape[0]
    if n > 8:
        raise ValueError(f"penalty oracle limited to dimension <= 8, got {n}")
    F = np.asarray(F, dtype=complex)
    norm = max(1.0, abs(f), float(np.abs(F).max()))
    Fr = realify_matrix(F / norm)
    fs = f / norm
    xbar = realify_vector(vbar)
    rng = np.random.default_rng(seed)
    taus = [10.0**k for k in range(2, 11)]
    scale = max(1.0, float(np.linalg.norm(xbar)))
    starts = [xbar] + [
        xbar + scale * rng.standard_normal(2 * n) for _ in range(n_starts)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        pool = [_penalty_newton(Fr, fs, xbar, x0, taus[0]) for x0 in starts]
        pool.sort(key=lambda entry: entry[1])
        pool = pool[:keep]
        for tau in taus[1:]:
            pool = [_penalty_newton(Fr, fs, xbar, x, tau) for x, _ in pool]
            pool.sort(key=lambda entry: entry[1])
    x = pool[0][0]
    return x[:n] + 1j * x[n:]
