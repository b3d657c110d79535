"""Antenna selection and refit: from a regularized solution to a K-antenna design.

``select_support`` keeps the K strongest antenna groups; ``refit`` solves the
small QCQP min ||w||^2 s.t. w^H F_l w <= f_l on that subarray with one
``admm.minimum_power`` (SLSQP) run.  Stage 3 of the feasibility search, the
cyclic projections, stops at ``admm.handoff_tol``: on the full array that
point is ADMM's consensus start, and on a subarray it is the refit's
feasibility test, since feasible subarrays become near-feasible within a few
sweeps and infeasible ones stall.  Stage 3 tries the multipliers of each
sweep's moves as a certificate, and on an infeasible subarray they usually
prove it infeasible a few sweeps in, long before the sweeps stall (all K=4 and
most K=6 paper subarrays), so most refits of the random baseline end there,
with a certificate and no linear program.
"""

from dataclasses import dataclass

import numpy as np

from .admm import _START_TOL, find_feasible_point, handoff_tol, minimum_power
from .errors import ConfigurationError, InfeasibleProblemError
from .metrics import msrr, tx_power
from .problem import BeamformerStack, group_norms, normalize_support


def rank_groups(w, M, N):
    """Antenna indices ordered by decreasing group norm; ties by index."""
    return np.argsort(-group_norms(w, M, N), kind="stable")


def _integer(name, value, low, high=None):
    """``value`` as an int in ``low..high`` (unbounded above if ``high`` is
    None); an integral value such as 8.0 passes.  Anything else is a
    ``ConfigurationError`` naming the parameter."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigurationError(f"{name} must be {bound}, got {value}")
    return int(value)


def select_support(w, K, M, N):
    """The K strongest antenna groups, as a sorted index tuple."""
    K = _integer("K", K, 1, N)
    order = rank_groups(w, M, N)
    return tuple(sorted(int(n) for n in order[:K]))


def embed_support(w_reduced, support, M, N):
    """Scatter a reduced stack back to full size; off-support entries are zero."""
    w_full = np.zeros((M, N), dtype=complex)
    w_full[:, list(support)] = np.reshape(w_reduced, (M, len(support)))
    return w_full.reshape(M * N)


def refit(problem, support):
    """Minimum-power design on the selected subarray, sparsity weight removed.

    The feasibility search runs only until the subarray is near-feasible:
    stage 3 hands off once the worst violation is at most ``handoff_tol``,
    and one ``minimum_power`` run starts from that point, as SLSQP needs no
    feasible start; where stage 3 stops above the hand-off, the certificate
    and stage 4 of ``find_feasible_point`` come first and the SQP run starts
    from stage 4's point; that run is not redundant, as it has lowered the
    power of stage 4's polished point by up to a factor 2.15 on random
    feasible toy problems.  Should it fail, the search is run on to 1e-8 and
    its start returned.  A hand-off point within 1e-8 is that start, bit for
    bit, and is returned should the SQP design cost more.  Nothing is random,
    so one support always refits to the same bytes.  The returned stack is
    full-size with exact zeros off the support; a support that zeroes a
    floor's generator is certified infeasible by ``restrict``.  An infeasible
    subarray's error is re-raised with the support in its message and its
    evidence still unread: ``worst_violations`` is computed only if someone
    reads it.
    """
    support = normalize_support(support)
    try:
        reduced = problem.restrict(support)
        start = find_feasible_point(reduced, tol=handoff_tol(reduced))
        w_red, _, ok = minimum_power(reduced, start)
        if not ok:
            w_red = find_feasible_point(reduced)
        elif reduced.max_violation(start) <= _START_TOL:
            w_red = min(w_red, start, key=tx_power)
    except InfeasibleProblemError as err:
        # the evidence stays unread until a reader asks this error for it
        raise InfeasibleProblemError(
            f"refit on support {support} is infeasible: {err}",
            lambda cause=err: cause.worst_violations,
            err.certificate,
        ) from err
    return BeamformerStack(
        embed_support(w_red, support, problem.M, problem.N), problem.M, problem.N
    )


@dataclass(frozen=True)
class BaselineResult:
    """Monte-Carlo statistics of the random-subset selection baseline.

    ``certified_count`` of the ``infeasible_count`` draws carry a proof of
    infeasibility; the search merely gave up on the rest.
    """

    trials: int
    tx_power_mean: float
    msrr_mean: float
    infeasible_count: int
    certified_count: int
    tx_powers: tuple
    msrrs: tuple


def random_selection_baseline(problem, K, trials, seed, config=None):
    """Refit on uniformly drawn K-subsets; infeasible draws counted, excluded.

    Trial t draws its subset from default_rng([seed, K, t]); the refit draws
    no random numbers, so results are reproducible and independent of
    execution order, and each distinct support is refitted once per call.
    ``config`` is not read: it stays, optional, only because
    ``perfbench/run.py`` still passes it as a fifth argument (ROADMAP item 1).
    """
    K = _integer("K", K, 1, problem.N)
    trials = _integer("trials", trials, 1)
    seed = _integer("seed", seed, 0)
    outcomes = {}  # support -> (tx power, MSRR), or whether its verdict is certified
    tx_powers, msrrs = [], []
    infeasible = certified = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, K, t])
        support = tuple(sorted(rng.choice(problem.N, size=K, replace=False).tolist()))
        if support not in outcomes:
            try:
                stack = refit(problem, support)
            except InfeasibleProblemError as err:
                outcomes[support] = err.certificate is not None
            else:
                outcomes[support] = (tx_power(stack.w), msrr(stack.w, problem))
        outcome = outcomes[support]
        if isinstance(outcome, bool):
            infeasible += 1
            certified += outcome
            continue
        tx_powers.append(outcome[0])
        msrrs.append(outcome[1])
    return BaselineResult(
        trials=trials,
        tx_power_mean=float(np.mean(tx_powers)) if tx_powers else float("nan"),
        msrr_mean=float(np.mean(msrrs)) if msrrs else float("nan"),
        infeasible_count=infeasible,
        certified_count=certified,
        tx_powers=tuple(tx_powers),
        msrrs=tuple(msrrs),
    )
