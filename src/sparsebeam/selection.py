"""Antenna selection and refit: from a regularized solution to a K-antenna design.

``select_support`` keeps the K strongest antenna groups; ``refit`` solves the
small QCQP min ||w||^2 s.t. w^H F_l w <= f_l on that subarray with
``admm.minimum_power`` (SLSQP) from a feasible start.
"""

from dataclasses import dataclass

import numpy as np

from .admm import find_feasible_point, minimum_power
from .errors import ConfigurationError, InfeasibleProblemError
from .metrics import msrr, tx_power
from .problem import BeamformerStack, group_norms


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
    """Minimum-power design on the selected subarray, sparsity weight removed.

    ``minimum_power`` runs from ``find_feasible_point``'s start.  Should its
    polish fail, or end above the start's power, the start is returned.
    ``config`` is no longer read.  Nothing is random, so one support always
    refits to the same bytes.  The returned stack is full-size with exact
    zeros off the support.
    """
    support = tuple(sorted(set(int(n) for n in support)))
    reduced = problem.restrict(support)
    try:
        start = find_feasible_point(reduced)
    except InfeasibleProblemError as err:
        raise InfeasibleProblemError(
            f"refit on support {support} is infeasible: {err}",
            err.worst_violations,
            err.certificate,
        ) from err
    w_red, _, ok = minimum_power(reduced, start)
    if not ok or tx_power(start) < tx_power(w_red):
        w_red = start
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
    if not 1 <= K <= problem.N:
        raise ConfigurationError(f"K must be in 1..{problem.N}, got {K}")
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
