"""Antenna selection and refit: from a regularized solution to a K-antenna design."""

from dataclasses import dataclass, replace

import numpy as np

from .admm import restore_feasibility, solve
from .admm import find_feasible_point  # noqa: F401  (perfbench/selftest.py patches this binding)
from .errors import ConfigurationError, InfeasibleProblemError
from .metrics import msrr, tx_power
from .problem import BeamformerStack, group_norms

# The caller's rho is tuned so the quadratic penalty dominates the shrinkage
# weight; with eta = 0 that coupling is vacuous and a lighter penalty converges
# an order of magnitude faster, so the refit runs its own rho and at least 300
# iterations (on the reference scenario this reaches the subarray's certified
# minimum power).
_REFIT_RHO = 5.0
_REFIT_MIN_ITERATIONS = 300


def rank_groups(w, M, N):
    """Antenna indices ordered by decreasing group norm; ties by index."""
    return np.argsort(-group_norms(w, M, N), kind="stable")


def select_support(w, K, M, N):
    """The K strongest antenna groups, as a sorted index tuple."""
    if not 1 <= K <= N:
        raise ConfigurationError(f"K must be in 1..{N}, got {K}")
    order = rank_groups(w, M, N)
    return tuple(sorted(int(n) for n in order[:K]))


def embed_support(w_reduced, support, M, N):
    """Scatter a reduced stack back to full size; off-support entries are zero."""
    w_full = np.zeros((M, N), dtype=complex)
    w_full[:, list(support)] = np.reshape(w_reduced, (M, len(support)))
    return w_full.reshape(M * N)


def refit(problem, support, config):
    """Re-solve on the selected subarray with the sparsity weight removed.

    Runs the same consensus solver on the support-restricted problem with
    eta = 0, then restores exact feasibility with ``restore_feasibility`` (a
    finite iteration budget leaves a small consensus gap that the 1e-6
    feasibility gate would not forgive).  Should the polish fail, or end
    above the power of the run's own feasible start, that start is returned
    instead.  Nothing here draws random numbers, so one support always refits
    to the same bytes.  The returned stack is full-size with exact zeros off
    the support.
    """
    support = tuple(sorted(set(int(n) for n in support)))
    reduced = replace(problem.restrict(support), eta=0.0)
    cfg = replace(
        config, eta=0.0, rho=_REFIT_RHO,
        k_max=max(config.k_max, _REFIT_MIN_ITERATIONS),
    )
    try:
        state = solve(reduced, cfg)
    except InfeasibleProblemError as err:
        raise InfeasibleProblemError(
            f"refit on support {support} is infeasible: {err}",
            err.worst_violations,
            err.certificate,
        ) from err
    # the feasible start is the fallback should the consensus run wander
    # somewhere the polish cannot repair on a hard subarray
    w_red, _, ok = restore_feasibility(reduced, state.w)
    if not ok or tx_power(state.start) < tx_power(w_red):
        w_red = state.start
    return BeamformerStack(
        embed_support(w_red, support, problem.M, problem.N), problem.M, problem.N
    )


@dataclass(frozen=True)
class BaselineResult:
    """Monte-Carlo statistics of the random-subset selection baseline.

    ``certified_count`` of the ``infeasible_count`` draws carry a proof of
    infeasibility; the search merely gave up on the rest.
    """

    K: int
    trials: int
    tx_power_mean: float
    msrr_mean: float
    infeasible_count: int
    certified_count: int
    tx_powers: tuple
    msrrs: tuple


def random_selection_baseline(problem, K, trials, seed, config):
    """Refit on uniformly drawn K-subsets; infeasible draws counted, excluded.

    Trial t draws its subset from default_rng([seed, K, t]); the refit draws
    no random numbers, so results are reproducible and independent of
    execution order.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
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
        K=K,
        trials=trials,
        tx_power_mean=float(np.mean(tx_powers)) if tx_powers else float("nan"),
        msrr_mean=float(np.mean(msrrs)) if msrrs else float("nan"),
        infeasible_count=infeasible,
        certified_count=certified,
        tx_powers=tuple(tx_powers),
        msrrs=tuple(msrrs),
    )
