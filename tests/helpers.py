"""Shared test oracles: dense constraint matrices built from the selection
matrices Phi_m, independently of the package's structured evaluation paths,
the paper-derived problems several tests check readers on, and the package's
slack and projection of one constraint, through a one-constraint problem.

A subarray of the package holds no constraint objects.  Its objects, for the
tests that read them, come from one reference here: ``restrict_constraints``
cuts the parent's objects to the support from their own fields, and
``subarray`` gives the package's subarray those objects; ``describe`` names
an object's row as the package's ``row_names`` must."""

import itertools
from collections import namedtuple
from dataclasses import replace

import numpy as np

from sparsebeam import AntennaPowerConstraint, ProblemInstance, SinrConstraint, assemble
from sparsebeam.cli import scenario_with_users
from sparsebeam.projections import move


def describe(c):
    """The name of one constraint object's row, from its own fields:
    ``passband(theta=-5 deg)``, ``antenna_power(n=3)``, ``sinr(m=1)``."""
    if isinstance(c, AntennaPowerConstraint):
        return f"antenna_power(n={c.antenna})"
    if isinstance(c, SinrConstraint):
        return f"sinr(m={c.user})"
    return f"{c.kind}(theta={c.angle_deg:g} deg)"


def of_kind(constraints, kind):
    """The objects among ``constraints`` whose kind is ``kind``."""
    return [c for c in constraints if c.kind == kind]


def restrict_constraints(constraints, support):
    """The objects of the subarray ``support`` (sorted antenna indices),
    cut from the parent's objects without the package: a row is kept if and
    only if its generator (the steering vector, antenna n's selector, or the
    channel, read from the object's fields) is nonzero on the support; a kept
    row keeps its class and has its generator cut to the support, antennas
    renumbered from 0."""
    cols = list(support)
    kept = []
    for c in constraints:
        if isinstance(c, AntennaPowerConstraint):
            if c.antenna in cols:
                kept.append(replace(c, antenna=cols.index(c.antenna), N=len(cols)))
        elif isinstance(c, SinrConstraint):
            if c.h[cols].any():
                kept.append(replace(c, h=c.h[cols], N=len(cols)))
        elif c.steering[cols].any():
            kept.append(replace(c, steering=c.steering[cols], N=len(cols)))
    return tuple(kept)


def subarray(problem, support):
    """``problem.restrict(support)``, the package's subarray with its sliced
    ``families``, given ``restrict_constraints``' objects of its parent's
    objects as its ``constraints``, for the oracles that read objects;
    ``problem`` is one built from objects or another ``subarray``."""
    reduced = problem.restrict(support)
    twin = replace(reduced, constraints=restrict_constraints(problem.constraints, reduced.support))
    vars(twin)["families"] = reduced.families  # the package's slices, not rebuilt
    return twin


def phi_matrix(m, M, N):
    """Selection matrix picking user block m out of the stacked vector."""
    Z = np.zeros((N, M * N))
    Z[:, m * N : (m + 1) * N] = np.eye(N)
    return Z


def dense_response_matrix(a, M, N):
    """sum_m Phi_m^H a a^H Phi_m."""
    outer = np.outer(a, np.conj(a))
    F = np.zeros((M * N, M * N), dtype=complex)
    for m in range(M):
        P = phi_matrix(m, M, N)
        F += P.T.conj() @ outer @ P
    return F


def dense_selector_matrix(n, M, N):
    """sum_m Phi_m^H E_n Phi_m with E_n the single-antenna selector."""
    E = np.zeros((N, N))
    E[n, n] = 1.0
    F = np.zeros((M * N, M * N), dtype=complex)
    for m in range(M):
        P = phi_matrix(m, M, N)
        F += P.T.conj() @ E @ P
    return F


def dense_user_matrix(h, m, M, N):
    """Phi_m^H h h^H Phi_m."""
    P = phi_matrix(m, M, N)
    return P.T.conj() @ np.outer(h, np.conj(h)) @ P


def dense_interference_matrix(h, m, M, N):
    """sum_{j != m} Phi_j^H h h^H Phi_j."""
    F = np.zeros((M * N, M * N), dtype=complex)
    for j in range(M):
        if j != m:
            F += dense_user_matrix(h, j, M, N)
    return F


def dense_sinr_matrix(h, gamma, m, M, N):
    """The served-minus-weighted-interference matrix for user m."""
    return dense_user_matrix(h, m, M, N) - gamma * dense_interference_matrix(h, m, M, N)


def quad_form(F, w):
    return float((np.conj(w) @ F @ w).real)


def random_stack(rng, M, N, scale=1.0):
    return scale * (rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N))


def dense_constraint(c):
    """(F, f) of one package constraint, rebuilt from its raw parameters."""
    M, N = c.M, c.N
    if c.kind == "passband":
        return -dense_response_matrix(c.steering, M, N), -c.threshold
    if c.kind == "stopband":
        return dense_response_matrix(c.steering, M, N), c.threshold
    if c.kind == "antenna_power":
        return dense_selector_matrix(c.antenna, M, N), c.limit
    if c.kind == "sinr":
        return -dense_sinr_matrix(c.h, c.gamma, c.user, M, N), -c.gamma * c.noise_variance
    raise ValueError(f"unknown constraint kind {c.kind!r}")


def certificate_holds(problem, multipliers, rel_tol=1e-12):
    """Does lambda prove ``problem`` infeasible?  Checked densely.

    Needs lambda >= 0, s = sum lambda_l f_l below minus its rounding bound
    L * eps * sum lambda_l |f_l|, and S = sum lambda_l F_l PSD up to
    ``rel_tol`` * sum lambda_l ||F_l||_2.  When every antenna has a power
    limit, ||w||^2 <= R = sum of the limits on the feasible set and a
    negative lambda_min(S) is forgiven while s + bound + R * (deficit + tol)
    < 0.
    """
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (len(problem.constraints),) or np.any(lam < 0):
        return False
    pairs = [dense_constraint(c) for c in problem.constraints]
    S = sum(l * F for l, (F, _) in zip(lam, pairs))
    s = sum(l * f for l, (_, f) in zip(lam, pairs))
    s += len(lam) * np.finfo(float).eps * sum(l * abs(f) for l, (_, f) in zip(lam, pairs))
    tol = rel_tol * sum(l * np.linalg.norm(F, 2) for l, (F, _) in zip(lam, pairs))
    lam_min = np.linalg.eigvalsh(S)[0]
    limits = {}
    for c in problem.constraints:
        if c.kind == "antenna_power":
            limits[c.antenna] = min(c.limit, limits.get(c.antenna, np.inf))
    if s >= 0:
        return False
    if len(limits) < problem.N:
        return lam_min >= -tol
    return s + sum(limits.values()) * (max(0.0, -lam_min) + tol) < 0


def assert_same_data(got, want, name="data"):
    """Two records hold the same data: tuples (``NamedTuple`` records and
    sweep plans included) of the same type and length, field by field;
    arrays of the same dtype, shape and bytes; anything else (a scalar, None
    or a kernel) of the same type and bytes, or the same object."""
    if isinstance(want, tuple):
        assert type(got) is type(want) and len(got) == len(want), name
        for field, x, y in zip(getattr(want, "_fields", range(len(want))), got, want):
            assert_same_data(x, y, f"{name}.{field}")
    elif isinstance(want, np.ndarray):
        assert type(got) is np.ndarray, name
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    else:
        assert type(got) is type(want), name
        assert got is want or np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def paper_variants(paper_problem):
    """The paper problem, its 45 K=8 subarrays (each a ``subarray``, with
    its reference objects), and the paper scenario with M = 1..4 users
    (``scenario_with_users``) under LoS and Rayleigh channels."""
    problems = [paper_problem] + [
        subarray(paper_problem, support)
        for support in itertools.combinations(range(paper_problem.N), 8)
    ]
    for model in ("los", "rayleigh"):
        for M in range(1, 5):
            sc = scenario_with_users(paper_problem.scenario, M)
            problems.append(assemble(replace(sc, channel_model=model)))
    return problems


def slack(c, w):
    """f - w^H F w of one constraint, by ``ProblemInstance.slacks``."""
    return ProblemInstance((c,), c.M, c.N).slacks(w)[0]


Projection = namedtuple("Projection", "v multiplier active kkt_residual")


def project(c, vbar):
    """One point's projection onto one constraint: ``projections.move``, the
    kernel behind the KKT guard, on a one-constraint problem; a point that
    holds is copied."""
    vbar = np.asarray(vbar, dtype=complex)
    moved = move(ProblemInstance((c,), c.M, c.N), 0, vbar.reshape(c.M, c.N))
    if moved is None:
        return Projection(vbar.copy(), 0.0, False, 0.0)
    V, mu, residual = moved
    return Projection(V.reshape(-1), float(mu), float(mu) > 0.0, residual)
