"""Reference implementations the tests check the package against.

None of these run in production: an independent multistart penalty solver
for the projections, a bisection minimizer for the group shrinkage, and the
per-constraint v-update loop that the batched ``update_v`` must reproduce
bit for bit.
"""

import numpy as np

from sparsebeam.errors import ProjectionError
from sparsebeam.projections import project
from sparsebeam.problem import user_blocks
from sparsebeam.shrinkage import ZERO_GROUP_FLOOR, group_shrink


def update_v_loop(problem, w, u, eta, rho):
    """The v-update one constraint at a time: shrink w - u_l, then project."""
    L = problem.L
    v = np.empty((L, problem.size), dtype=complex)
    for l, constraint in enumerate(problem.constraints):
        vbar = group_shrink(w - u[l], eta, rho, L, problem.M, problem.N)
        try:
            v[l] = project(constraint, vbar).v
        except ProjectionError as err:
            raise ProjectionError(
                f"constraint l={l} ({constraint.describe()}): {err}",
                dict(err.diagnostics, constraint_index=l),
            ) from err
    return v


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
