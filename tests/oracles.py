"""Reference implementations the tests check the package against.

None of these run in production: ``response``, ``sinr``, ``quad`` and
``f_action``, one constraint evaluated from its own fields, which the
batched ``slacks`` and ``design_report`` must reproduce bit for bit; an
independent multistart penalty solver for the projections;
``project_generic`` (the projection onto any Hermitian F by a dense
eigendecomposition, which the closed forms of the four constraint kinds
must agree with); a bisection minimizer for the group shrinkage; the
per-constraint loop of ``helpers.project`` that the screened ``update_v`` must
reproduce bit for bit; ``_secular_root`` with the SINR kernel that called it
(``sinr_row_reference``), which the kernel with its loop written out must
reproduce bit for bit; ``project_beams`` and ``project_powers``, the batched
beam and antenna-power closed forms, which the one-point ``_beam_point`` and
``_power_row`` must reproduce bit for bit; and the projection
path the one-row kernels replaced (a ``quad`` test, then the batched closed
forms on a batch of one or the SINR secular equation through closures on
numpy scalars), with the sweep built on it, which ``cyclic_projection`` must
reproduce bit for bit.  ``group_shrink_reference`` is the shrinkage on
``np.linalg.norm`` that ``update_v_loop`` runs, and ``solve_reference`` the
ADMM loop around it, built the same way; ``group_shrink`` and ``solve`` must
return their bytes.
``refit_admm_reference`` is the consensus-ADMM refit that the SLSQP refit
replaced; the refit must never end above it.  It polishes with the
projections, up to 300 sweeps without a stall rule (``restore_feasibility``,
the polish ``minimum_power`` once ran), and the L-BFGS violation descent
(``_violation_descent``) that the feasibility search used before
``minimum_power``.  ``refit_from_start`` is the SLSQP refit started from
the search run to 1e-8; the refit must reach its verdicts and powers.  ``baseline_loop`` refits every trial, as the
memoized baseline must reproduce.  ``certify_infeasible_cold`` solves every
Kelley round's linear program from scratch with ``linprog``, from the
coordinate directions; the warm-started ``certify_infeasible``, seeded
otherwise, must reach its verdicts.  ``certificate_record_reference`` builds
the certificate's per-row data as ``certify_infeasible`` did on every call;
the cached ``ProblemInstance.certificate_record`` must hold its bytes.
``msrr_reference`` and ``zero_forcing_reference`` rebuild the MSRR and the
stage-1 start from the scenario, cut to the problem's support, and
``mainlobe_boost_reference`` runs stage 2 constraint by constraint;
``msrr``, ``_zero_forcing_start`` and ``_mainlobe_boost`` must reproduce
them bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from scipy.optimize import linprog, minimize

from sparsebeam.admm import (
    IterationRecord,
    cyclic_projection,
    find_feasible_point,
    initialize,
    minimum_power,
    solve,
)
from sparsebeam.arrays import build_grids, los_channel, rayleigh_channel, steering_vector
from sparsebeam.certificate import _MAX_ROUNDS, Certificate
from sparsebeam.errors import InfeasibleProblemError, ProjectionError
from sparsebeam.metrics import msrr, tx_power
from sparsebeam.problem import (
    AntennaPowerConstraint,
    BeamConstraint,
    beam_rows,
    sq_norms,
    user_blocks,
)
from sparsebeam.projections import (
    _DEGENERATE_FLOOR,
    EPS,
    KKT_GUARD,
    SECULAR_MAX_ITER,
    SECULAR_TOL,
)
from sparsebeam.selection import BaselineResult, embed_support
from sparsebeam.shrinkage import ZERO_GROUP_FLOOR

from helpers import Projection, describe, of_kind, project, subarray


def response(c, w):
    """sum_m |a^H w_m|^2 of a beam constraint."""
    coef = user_blocks(w, c.M, c.N) @ np.conj(c.steering)
    return float(np.vdot(coef, coef).real)


def sinr_terms(c, w):
    """(|h^H w_m|^2, sum_{j != m} |h^H w_j|^2) of a SINR constraint."""
    power = np.abs(user_blocks(w, c.M, c.N) @ np.conj(c.h)) ** 2
    return float(power[c.user]), float(power.sum() - power[c.user])


def sinr(c, w):
    signal, interference = sinr_terms(c, w)
    return signal / (interference + c.noise_variance)


def quad(c, w):
    """w^H F w of one constraint from its fields."""
    if isinstance(c, BeamConstraint):
        return c.sign * response(c, w)
    if isinstance(c, AntennaPowerConstraint):
        g = np.asarray(w)[c.antenna :: c.N]
        return float(np.vdot(g, g).real)
    signal, interference = sinr_terms(c, w)
    return -(signal - c.gamma * interference)


def f_action(c, w):
    """F w of one constraint from its fields, F not formed."""
    if isinstance(c, AntennaPowerConstraint):
        out = np.zeros(c.M * c.N, dtype=complex)
        out[c.antenna :: c.N] = np.asarray(w)[c.antenna :: c.N]
        return out
    if isinstance(c, BeamConstraint):
        out = np.outer(user_blocks(w, c.M, c.N) @ np.conj(c.steering), c.steering).reshape(-1)
        return out if c.sign > 0 else -out  # negated: -1.0 * z flips signed zeros
    weights = np.full(c.M, float(c.gamma))
    weights[c.user] = -1.0  # F's block weights: -1 on the served block, gamma elsewhere
    return np.outer(weights * (user_blocks(w, c.M, c.N) @ np.conj(c.h)), c.h).reshape(-1)


def row_error(l, constraint, err):
    """``err`` raised by the projection onto row l, named as ``move`` names it."""
    return ProjectionError(
        f"constraint l={l} ({describe(constraint)}): {err}",
        dict(err.diagnostics, constraint_index=l, kind=constraint.kind),
    )


def group_shrink_reference(c, eta, rho, L, M, N):
    """The group shrinkage of one stack as ``group_shrink`` computed it with
    ``np.linalg.norm`` and both ``np.where`` guards on every call, which the
    package's, batched or not, must reproduce bit for bit."""
    c = np.asarray(c, dtype=complex)
    if eta == 0:
        return c.copy()
    C = c.reshape(c.shape[:-1] + (M, N))
    g = np.linalg.norm(C, axis=-2)
    lam = eta / (rho * L)
    nonzero = g > ZERO_GROUP_FLOOR
    scale = np.where(nonzero, np.maximum(0.0, 1.0 - lam / np.where(nonzero, g, 1.0)), 0.0)
    return (C * scale[..., np.newaxis, :]).reshape(c.shape)


def update_v_loop(problem, w, u, eta, rho):
    """The v-update one constraint at a time: shrink w - u_l by
    ``group_shrink_reference``, then project."""
    L = problem.L
    v = np.empty((L, problem.size), dtype=complex)
    for l, constraint in enumerate(problem.constraints):
        vbar = group_shrink_reference(w - u[l], eta, rho, L, problem.M, problem.N)
        try:
            v[l] = project(constraint, vbar).v
        except ProjectionError as err:
            raise row_error(l, constraint, err) from err
    return v


def solve_reference(problem, config):
    """The consensus iteration from ``initialize``'s start as ``solve`` ran it
    before its call overhead was cut: ``np.linalg.norm`` for both residuals
    and the objective's group norms, every broadcast over an explicit new
    axis and the v-update by ``update_v_loop``.  ``solve`` must return its
    state bit for bit: w, v, u, k, the stop reason and every record."""
    state = initialize(problem)
    eta, rho, L, M, N = config.eta, config.rho, problem.L, problem.M, problem.N
    for k in range(config.k_max):
        w_new = (rho / (2.0 + rho * L)) * (state.v + state.u).sum(axis=0)
        v_new = update_v_loop(problem, w_new, state.u, eta, rho)
        u_new = state.u + v_new - w_new[np.newaxis, :]
        primal = float(np.max(np.linalg.norm(v_new - w_new[np.newaxis, :], axis=1))) if L else 0.0
        dual = rho * float(np.linalg.norm(w_new - state.w))
        objective = float(
            np.vdot(w_new, w_new).real + eta * np.linalg.norm(w_new.reshape(M, N), axis=0).sum()
        )
        state.w, state.v, state.u, state.k = w_new, v_new, u_new, k + 1
        state.history.append(IterationRecord(k + 1, objective, primal, dual))
        if (config.primal_tol is not None and config.dual_tol is not None
                and primal <= config.primal_tol and dual <= config.dual_tol):
            state.stop_reason = "tolerances met"
            break
    return state


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


def _secular_root(fun, dfun, lo, hi, scale=1.0, context="", args=()):
    """Root of strictly monotone ``fun(x, *args)`` on [lo, hi].

    ``fun(lo)`` and ``fun(hi)`` must have opposite signs (zero counts as
    either).  Newton steps are taken whenever they land inside the current
    bracket, otherwise the bracket is bisected; the bracket never widens.
    """
    tol = SECULAR_TOL * max(1.0, abs(scale))
    flo = fun(lo, *args)
    if abs(flo) <= tol:
        return lo
    fhi = fun(hi, *args)
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
        fm = fun(mu, *args)
        if abs(fm) <= tol:
            return mu
        if (fm < 0) == rising:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 4.0 * EPS * max(1.0, abs(hi)):
            return 0.5 * (lo + hi)
        d = dfun(mu, *args)
        step = mu - fm / d if d != 0.0 else None
        mu = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    if hi - lo <= 1e-9 * max(1.0, abs(hi)):
        return 0.5 * (lo + hi)
    raise ProjectionError(
        f"secular root did not converge in {SECULAR_MAX_ITER} iterations{context}",
        {"bracket": (lo, hi), "residual": fun(0.5 * (lo + hi), *args)},
    )


def _sinr_secular(nu, A, pm, pI, gamma, target):
    """A*(pm/(1 - nu)^2 - gamma*pI/(1 + nu*gamma)^2) - target; +inf at nu = 1."""
    if nu == 1.0:
        return math.inf
    return A * (pm / (1.0 - nu) ** 2 - gamma * pI / (1.0 + nu * gamma) ** 2) - target


def _sinr_slope(nu, A, pm, pI, gamma, target):
    return A * (2.0 * pm / (1.0 - nu) ** 3 + 2.0 * gamma**2 * pI / (1.0 + nu * gamma) ** 3)


def sinr_row_reference(W, r):
    """The SINR one-point kernel with its secular equation solved through
    ``_secular_root`` and the callbacks above, on a ``SinrRows.row`` r: what the
    package's kernel, with that loop written out, must return bit for bit,
    errors included."""
    probe, hhat, hhat_probe, A, m, gamma, target, weights, h = r
    z = W @ hhat_probe
    power = np.abs(z) ** 2
    pm = float(power[m])
    pI = float(power.sum() - power[m])
    if A * (pm - gamma * pI) >= target:
        return None
    if pm <= _DEGENERATE_FLOOR or A * pm <= EPS * (target + gamma * A * pI):
        nu = 1.0
        for _ in range(2):
            interference = A * pI / (1.0 + nu * gamma) ** 2
            t = np.sqrt((target + gamma * interference) / A)
            nu = 1.0 - abs(z[m]) / t
        znew = z / (1.0 + nu * gamma)
        phase = z[m] / abs(z[m]) if abs(z[m]) > 0 else 1.0
        znew[m] = t * phase
    else:
        hi = 1.0 - math.sqrt(A * pm / (2.0 * (target + gamma * A * pI)))
        nu = _secular_root(_sinr_secular, _sinr_slope, 0.0, hi, scale=target,
                           context=" (sinr)", args=(A, pm, pI, gamma, target))
        znew = z / (1.0 + nu * gamma)
        znew[m] = z[m] / (1.0 - nu)
    V = W + np.outer(znew - z, hhat)
    mu = nu / A
    D = (V - W) + (mu * weights * (V @ probe))[:, np.newaxis] * h
    return V, mu, math.sqrt(np.vdot(D, D).real)


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


def _ray_objective(t, g, lam):
    """The shrinkage objective restricted to the ray v = (t/g) * c_group.

    Equals lam*t + 0.5*||t*chat - g*chat||^2 with chat the unit direction;
    evaluated directly so the oracle below never touches the closed form.
    """
    return lam * t + 0.5 * (t - g) ** 2


def prox_oracle(c, eta, rho, L, M, N):
    """Reference minimizer of the shrinkage objective; test use only.

    Works per group: for any fixed group norm t, the quadratic term is
    minimized by keeping the group direction (nearest point on the sphere of
    radius t to c_group lies along c_group), so the problem reduces to a 1-D
    convex minimization in t >= 0.  That scalar problem is solved numerically
    by bisection on a central-difference derivative of the ray-restricted
    objective, to machine precision, without using the shrinkage formula.
    """
    if eta < 0 or not rho > 0 or L < 1:
        raise ValueError("need eta >= 0, rho > 0, L >= 1")
    c = np.asarray(c, dtype=complex)
    if M * N > 16:
        raise ValueError(f"oracle limited to M*N <= 16 entries, got {M * N}")
    lam = eta / (rho * L)  # objective scaled by 1/rho; minimizer unchanged
    C = user_blocks(c, M, N)
    V = np.zeros_like(C)
    for n in range(N):
        g = float(np.linalg.norm(C[:, n]))
        if g <= ZERO_GROUP_FLOOR:
            continue
        h = 1e-7 * max(1.0, g)

        def dpsi(t):
            # central and one-sided 3-point stencils are exact on the ray
            # objective (linear + quadratic), leaving only rounding noise
            if t < h:
                return (
                    -3.0 * _ray_objective(t, g, lam)
                    + 4.0 * _ray_objective(t + h, g, lam)
                    - _ray_objective(t + 2.0 * h, g, lam)
                ) / (2.0 * h)
            return (
                _ray_objective(t + h, g, lam) - _ray_objective(t - h, g, lam)
            ) / (2.0 * h)

        if dpsi(0.0) >= 0.0:
            continue  # the whole group lands in the dead zone
        lo, hi = 0.0, g
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dpsi(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-16 * max(1.0, hi):
                break
        V[:, n] = (0.5 * (lo + hi) / g) * C[:, n]
    return V.reshape(-1)


def project_sinr_reference(vbar, h, gamma, noise_variance, user, M, N):
    """The SINR projection through closures on numpy scalars: the iteration
    the plain-float kernel must reproduce bit for bit.  Returns (v, mu)."""
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

    # the hard case: a served response below machine precision of the level
    # it must reach, where the root would round to the pole at nu = 1
    if pm <= 1e-300 or A * pm <= EPS * (target + gamma * A * pI):
        nu = 1.0
        for _ in range(2):
            interference = A * pI / (1.0 + nu * gamma) ** 2
            t = np.sqrt((target + gamma * interference) / A)
            nu = 1.0 - abs(z[user]) / t
        znew = z / (1.0 + nu * gamma)
        phase = z[user] / abs(z[user]) if abs(z[user]) > 0 else 1.0
        znew[user] = t * phase
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

        hi = 1.0 - np.sqrt(A * pm / (2.0 * (target + gamma * A * pI)))
        with np.errstate(divide="ignore"):  # fun(1.0) is +inf
            nu = _secular_root(fun, dfun, 0.0, hi, scale=target, context=" (sinr)")
        znew = z / (1.0 + nu * gamma)
        znew[user] = z[user] / (1.0 - nu)
    V = W + np.outer(znew - z, hhat)
    return V.reshape(-1), nu / A


def project_powers(G, limit):
    """Radial projection of k antenna groups G (k, M) onto their power balls.

    The leading axis may be omitted: one group G (M,) with a scalar limit.
    Groups within their ``limit`` come back unchanged with multiplier 0.
    Returns the projected groups, the KKT multipliers of the normalized
    constraints and the stationarity residuals ||(g' - g) + mu*g'||.
    """
    power = sq_norms(G[..., np.newaxis])[..., 0]
    limit = np.asarray(limit, dtype=float)[..., np.newaxis]
    scale = np.sqrt(limit / np.maximum(power, limit))  # 1 within the limit
    mu = 1.0 / scale - 1.0
    P = np.where(power <= limit, G, G * scale)
    D = (P - G) + mu * P
    return P, mu[..., 0], np.sqrt(sq_norms(D[..., np.newaxis]))[..., 0, 0]


def stationarity_error(multiplier, residual, bound):
    """The ProjectionError of a projection that fails the KKT guard, worded
    as ``move`` words it before naming the row."""
    return ProjectionError(
        f"projection violates stationarity (residual {residual:g} > {bound:g})",
        {"multiplier": multiplier, "residual": residual},
    )


def project_beams(W, beams):
    """The beam projection's closed form on k stacked points W (k, M, N):
    row i projected onto row i of ``beams`` (a ``BeamRows``), every branch
    evaluated as arrays and the one taken picked by ``np.where``.  Returns
    the projected points, the multipliers and the stationarity residuals,
    (k,) each, as ``_beam_point`` does for one point."""
    k, M, N = W.shape
    sign, t, norm2 = beams.sign, beams.threshold, beams.norm2
    alpha = W @ beams.unit_probe
    S0 = norm2 * sq_norms(alpha)
    holds = sign * S0 <= sign * t
    degenerate = S0 <= _DEGENERATE_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(S0 / t)
        beta = alpha / ratio
    mu = sign * (ratio - 1.0) / norm2
    if np.count_nonzero(degenerate):
        degenerate &= (sign < 0) & ~holds
        beta = np.where(degenerate, np.sqrt(t / norm2) * np.eye(M, 1), beta)
        mu = np.where(degenerate, 1.0 / norm2, mu)
    V = W + (beta - alpha) * beams.unit
    if np.count_nonzero(holds):
        V, mu = np.where(holds, W, V), np.where(holds, 0.0, mu)
    D = (V - W) + (sign * mu) * (V @ beams.probe) * beams.steering
    residual = np.sqrt(sq_norms(D.reshape(k, M * N, 1)))
    return V, mu[..., 0, 0], residual[..., 0, 0]


def project_reference(constraint, vbar):
    """One projection as the per-constraint path computed it: the
    constraint's ``quad`` test, then ``project_powers`` or ``project_beams``
    on a batch of one, or ``project_sinr_reference``, and the KKT guard."""
    vbar = np.asarray(vbar, dtype=complex)
    if quad(constraint, vbar) <= constraint.f:
        return Projection(vbar.copy(), 0.0, False, 0.0)
    if isinstance(constraint, AntennaPowerConstraint):
        v = vbar.copy()
        sel = slice(constraint.antenna, None, constraint.N)
        P, mu, residual = project_powers(vbar[sel][np.newaxis], np.array([constraint.limit]))
        v[sel], mu, residual = P[0], float(mu[0]), float(residual[0])
    elif isinstance(constraint, BeamConstraint):
        c = constraint
        rows = beam_rows([0], c.steering, [c.sign], [c.threshold], c.N, [c.angle_deg])
        V, mu, residual = project_beams(vbar.reshape(1, c.M, c.N), rows)
        v, mu, residual = V.reshape(-1), float(mu[0]), float(residual[0])
    else:
        c = constraint
        v, mu = project_sinr_reference(vbar, c.h, c.gamma, c.noise_variance, c.user, c.M, c.N)
        residual = float(np.linalg.norm((v - vbar) + mu * f_action(c, v)))
    bound = KKT_GUARD * (1.0 + math.sqrt(np.vdot(vbar, vbar).real))
    if not math.isfinite(residual) or residual > bound:
        raise stationarity_error(mu, residual, bound)
    return Projection(v, mu, mu > 0.0, residual)


def cyclic_projection_loop(problem, w, max_sweeps=500, tol=1e-8):
    """The projection sweep one ``project_reference`` call per constraint,
    stopped at tol or at the first sweep that fails to cut the previous
    sweep's worst violation by 0.1%; a failing projection is named by its row."""
    w = np.asarray(w, dtype=complex).copy()
    previous = np.inf
    for _ in range(max_sweeps):
        for l, c in enumerate(problem.constraints):
            try:
                w = project_reference(c, w).v
            except ProjectionError as err:
                raise row_error(l, c, err) from err
        current = problem.max_violation(w)
        if current <= tol:
            return w, current, True
        if not current < previous * (1.0 - 1e-3):
            break
        previous = current
    return w, problem.max_violation(w), False


def _violation_descent(problem, w0):
    """L-BFGS on the smooth sum of squared constraint violations.

    Cyclic projections alone limit-cycle on roughly half the hard subarray
    instances (the passband and SINR sets are nonconvex); descending the
    squared-hinge surrogate first lands inside the right basin, after which
    the projections finish the job.
    """
    n = problem.size
    constraints = problem.constraints

    def fun(x):
        v = x[:n] + 1j * x[n:]
        value = 0.0
        grad = np.zeros(n, dtype=complex)
        for c in constraints:
            violation = quad(c, v) - c.f
            if violation > 0.0:
                value += violation * violation
                grad += (2.0 * violation) * f_action(c, v)
        return value, 2.0 * np.concatenate([grad.real, grad.imag])

    x0 = np.concatenate([w0.real, w0.imag])
    res = minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": 600, "gtol": 1e-16, "ftol": 1e-20},
    )
    return res.x[:n] + 1j * res.x[n:]


def restore_feasibility(problem, w):
    """Up to 300 sweeps of cyclic projections to within 1e-9, one
    ``cyclic_projection`` call each, with no stop for a sweep without
    progress: (w, max_violation, converged)."""
    for _ in range(300):
        w, violation, converged = cyclic_projection(problem, w, max_sweeps=1, tol=1e-9)[:3]
        if converged:
            break
    return w, violation, converged


def restore_with_rescue(problem, w):
    """Projections, then one violation-descent rescue and projections again
    should they stall: (w, max_violation, converged)."""
    w, violation, ok = restore_feasibility(problem, w)
    if not ok:
        w, violation, ok = restore_feasibility(problem, _violation_descent(problem, w))
    return w, violation, ok


def refit_admm_reference(problem, support, config):
    """The refit as consensus ADMM: eta = 0, rho = 5, at least 300 iterations
    on the subarray, polished by ``restore_with_rescue``, falling back to the
    feasible start should the polish fail or end above the start's power.
    Returns the full-size stack."""
    reduced = subarray(problem, support)
    cfg = replace(config, eta=0.0, rho=5.0, k_max=max(config.k_max, 300))
    start = find_feasible_point(reduced)
    w, _, ok = restore_with_rescue(reduced, solve(reduced, cfg).w)
    if not ok or np.vdot(start, start).real < np.vdot(w, w).real:
        w = start
    return embed_support(w, reduced.support, problem.M, problem.N)


def refit_from_start(problem, support):
    """``minimum_power`` from the 1e-8 feasible start, falling back to that
    start should its polish fail or end above the start's power.  Returns
    the full-size stack; an infeasible support raises the search's error."""
    reduced = problem.restrict(support)
    start = find_feasible_point(reduced)
    w, _, ok = minimum_power(reduced, start)
    if not ok or np.vdot(start, start).real < np.vdot(w, w).real:
        w = start
    return embed_support(w, reduced.support, problem.M, problem.N)


def baseline_loop(problem, K, trials, seed, refit, config):
    """The random-subset baseline with one ``refit`` call per trial."""
    tx_powers, msrrs = [], []
    infeasible = certified = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, K, t])
        support = tuple(sorted(rng.choice(problem.N, size=K, replace=False).tolist()))
        try:
            stack = refit(problem, support, config)
        except InfeasibleProblemError as err:
            infeasible += 1
            certified += err.certificate is not None
            continue
        tx_powers.append(tx_power(stack.w))
        msrrs.append(msrr(stack.w, problem))
    return BaselineResult(
        trials=trials,
        tx_power_mean=float(np.mean(tx_powers)) if tx_powers else float("nan"),
        msrr_mean=float(np.mean(msrrs)) if msrrs else float("nan"),
        infeasible_count=infeasible,
        certified_count=certified,
        tx_powers=tuple(tx_powers),
        msrrs=tuple(msrrs),
    )


def _norm_bound(powers, N):
    """R with ||w||^2 <= R on the feasible set, from per-antenna limits."""
    limits = np.full(N, np.inf)
    np.minimum.at(limits, powers.antenna, powers.limit)
    return float(sum(limits.tolist())) if np.all(limits < np.inf) else None


def certificate_record_reference(problem):
    """(f, G, C, scale, Cs, fs, R) as ``certify_infeasible`` built them on
    every call before ``ProblemInstance.certificate_record`` held them."""
    L, M, N = problem.L, problem.M, problem.N
    beams, powers, sinrs = problem.families
    f = np.empty(L)
    f[beams.rows] = (beams.sign * beams.threshold).ravel()
    f[powers.rows] = powers.limit
    f[sinrs.rows] = sinrs.f
    G = np.zeros((L, N), dtype=complex)
    C = np.ones((L, M))
    G[beams.rows] = beams.steering[:, 0]
    C[beams.rows] = beams.sign[:, 0]
    G[powers.rows, powers.antenna] = 1.0
    G[sinrs.rows] = np.conj(sinrs.probe[..., 0])
    C[sinrs.rows] = sinrs.weights
    scale = np.abs(C).max(axis=1) * (np.abs(G) ** 2).sum(axis=1)
    scale[scale == 0.0] = 1.0
    Cs, fs = C / scale[:, None], f / scale
    return f, G, C, scale, Cs, fs, _norm_bound(powers, N)


def certify_infeasible_cold(problem):
    """``certify_infeasible`` with one cold ``linprog`` call per Kelley round,
    each rebuilding the dense constraint matrix of every cut so far.

    It keeps the coordinate directions of every block as its first cuts on
    purpose, where the package starts from the negative blocks' generators:
    an independent reference must not share the seed it checks.  The targets
    f come from the constraint objects, not from ``families``."""
    f = np.array([c.f for c in problem.constraints], dtype=float)
    if not np.any(f < 0.0):
        return None
    L, M, N = problem.L, problem.M, problem.N
    _, G, _, scale, Cs, _, R = certificate_record_reference(problem)
    fs = f / scale
    cost = np.zeros(L + 1)
    cost[-1] = -1.0
    a_eq = np.append(np.ones(L), 0.0)[np.newaxis, :]
    bounds = [(0.0, None)] * L + [(None, None)]
    block = np.repeat(np.arange(M), N)
    cuts = np.tile(np.eye(N, dtype=complex), (M, 1))
    rows = [np.append(fs, 1.0)]
    for _ in range(_MAX_ROUNDS):
        values = Cs.T[block] * np.abs(cuts.conj() @ G.T) ** 2
        rows.extend(np.hstack([-values, np.ones((values.shape[0], 1))]))
        a_ub = np.array(rows)
        lp = linprog(
            cost, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq, b_eq=[1.0],
            bounds=bounds, method="highs",
        )
        if lp.status != 0:
            return None
        lam, t = lp.x[:L], lp.x[L]
        S = np.einsum("lm,li,lj->mij", lam[:, None] * Cs, G, G.conj())
        eigvals, eigvecs = np.linalg.eigh(S)
        combined = float(lam @ fs)
        if combined < 0.0:
            k = -1.0 / combined
            eps = np.finfo(float).eps
            certificate = Certificate(
                multipliers=k * lam / scale,
                combined_f=k * combined,
                combined_rounding=k * L * eps * float(lam @ np.abs(fs)),
                min_eigenvalue=k * float(eigvals.min()),
                rounding=k * M * N * L * eps * float(lam.sum()),
                norm_bound=R,
            )
            if certificate.excludes_every_point:
                return certificate
        block, column = np.nonzero(eigvals < t)
        cuts = eigvecs[block, :, column]
        if t < 0.0 or not block.size:
            return None
    return None


def _support_index(problem):
    return list(problem.support) if problem.support is not None else slice(None)


def msrr_reference(w, problem):
    """The MSRR summed angle by angle over the scenario's ``build_grids``, one
    steering vector per angle, cut to the problem's support."""
    sc, idx = problem.scenario, _support_index(problem)
    grids = build_grids(
        sc.mainlobe_region, sc.stopband_regions, sc.mainlobe_step_deg, sc.stopband_step_deg
    )

    def total(angles):
        A = np.column_stack([steering_vector(sc.geometry, t)[idx] for t in angles])
        proj = user_blocks(w, problem.M, problem.N).conj() @ A
        return float((np.abs(proj) ** 2).sum(axis=0).sum())

    main, stop = total(grids.mainlobe), total(grids.stopband)
    if stop == 0.0:
        return float("inf") if main > 0.0 else float("nan")
    return main / stop


def zero_forcing_reference(problem):
    """The stage-1 start over the scenario's user channels (LoS, or Rayleigh
    from default_rng([seed, 101, m])), cut to the problem's support: zero-
    forcing beams, user m's scaled to 2 * gamma_m * sigma_m^2."""
    sc, idx, M, N = problem.scenario, _support_index(problem), problem.M, problem.N
    channels = [
        (los_channel(sc.geometry, angle, sc.channel_gain) if sc.channel_model == "los"
         else rayleigh_channel(sc.geometry, seed=[sc.seed, 101, m]))[idx]
        for m, angle in enumerate(sc.user_angles_deg)
    ]
    H = np.column_stack(channels)
    gram = H.conj().T @ H
    try:
        X = np.linalg.solve(gram, np.eye(M, dtype=complex))
    except np.linalg.LinAlgError:
        X = np.linalg.pinv(gram)
    W_zf = H @ X
    w = np.zeros(M * N, dtype=complex)
    for m, h in enumerate(channels):
        col = W_zf[:, m]
        gain = np.vdot(h, col)
        if abs(gain) > 1e-12:
            col = col * (np.sqrt(2.0 * sc.sinr_target[m] * sc.noise_variance[m]) / gain)
        w[m * N : (m + 1) * N] = col
    return w


def mainlobe_boost_reference(problem, w):
    """Stage 2 constraint by constraint: the smallest tau so that block 0 plus
    tau*a(center) clears 1.2x each passband floor, each response and a^H w_0
    evaluated from the constraint's own steering vector."""
    passbands = of_kind(problem.constraints, "passband")
    if not passbands:
        return w
    center = np.mean([c.angle_deg for c in passbands])
    a_c = min(passbands, key=lambda c: abs(c.angle_deg - center)).steering
    block0, tau = w[: problem.N], 0.0
    for c in passbands:
        ci = np.vdot(c.steering, block0)  # a^H w_0
        need = 1.2 * c.threshold - (response(c, w) - abs(ci) ** 2)
        gi = np.vdot(c.steering, a_c)
        if abs(ci) ** 2 >= need or abs(gi) == 0.0:
            continue
        aa, bb, cc = abs(gi) ** 2, 2.0 * (np.conj(ci) * gi).real, abs(ci) ** 2 - need
        tau = max(tau, (-bb + np.sqrt(max(bb * bb - 4.0 * aa * cc, 0.0))) / (2.0 * aa))
    return np.concatenate([block0 + tau * a_c, w[problem.N :]]) if tau > 0.0 else w
