"""Consensus ADMM engine: one auxiliary beamformer copy per constraint.

The iteration starts at consensus: every copy at the feasibility search's
hand-off point, within ``handoff_tol`` of every constraint, and the duals
zero.  Per iteration the consensus variable is the closed-form average
w = rho/(2 + rho*L) * sum_l (v_l + u_l); each auxiliary copy then shrinks
w - u_l groupwise and projects onto its own constraint set, and the scaled
duals absorb the disagreement.  The v-update shrinks all L copies in one
call, screens the beam and antenna-power copies as arrays, and gives each
copy that may move, every SINR copy among them, one ``projections.move``,
the projection sweep's step: its row's one-point kernel behind the KKT
guard; a copy that already holds keeps its shrunk point.  No copy depends
on another and nothing is random, so runs repeat bit for bit.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import minimize

from .certificate import certify_infeasible, multiplier_certificate
from .errors import (
    ConfigurationError, InfeasibleProblemError, ProjectionError, check_integer,
)
from .problem import beam_slacks, norms, objective, sq_norms
from .projections import move
from .shrinkage import group_shrink

_POLISH_TOL = 1e-9  # minimum_power's polish target, well inside the 1e-6 gate
_SQP_OPTIONS = {"ftol": 1e-12, "maxiter": 200}  # the one SLSQP run of minimum_power
_START_TOL = 1e-8  # find_feasible_point's default worst violation
_HANDOFF_REL = 1e-3  # the hand-off stops stage 3 at this fraction of max_l |f_l|


class WeakPenaltyWarning(UserWarning):
    """rho/2 is not comfortably above eta/L.

    The v-update treats the penalized subproblem as a plain nearest-point
    projection, which is justified only when the quadratic coupling dominates
    the shrinkage weight; this warning fires when rho/2 < 10*eta/L.
    """


@dataclass(frozen=True)
class AdmmConfig:
    """Solver knobs: shrinkage weight, penalty, iteration budget, tolerances.

    ``primal_tol``/``dual_tol`` enable early stopping only when both are set;
    the default is a fixed ``k_max`` iteration budget.  ``parallel`` is
    accepted and validated for compatibility with older scenario files; it
    has no effect.
    """

    eta: float
    rho: float
    k_max: int = 100
    primal_tol: float = None
    dual_tol: float = None
    parallel: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ConfigurationError(f"eta must be finite and >= 0, got {self.eta}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ConfigurationError(f"rho must be finite and > 0, got {self.rho}")
        object.__setattr__(self, "k_max", check_integer("k_max", self.k_max, 0))
        check_integer("parallel", self.parallel, 1)
        for name in ("primal_tol", "dual_tol"):
            tol = getattr(self, name)
            if tol is not None and not (math.isfinite(tol) and tol > 0):
                raise ConfigurationError(f"{name} must be finite and > 0 when set, got {tol}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    objective: float
    primal_residual: float
    dual_residual: float


@dataclass(eq=False)
class AdmmState:
    """Consensus variable, auxiliary copies, scaled duals, the history, and
    why the iteration stopped: "tolerances met" or "iteration budget"."""

    w: np.ndarray
    v: np.ndarray  # (L, M*N)
    u: np.ndarray  # (L, M*N)
    k: int = 0
    history: list = field(default_factory=list)
    stop_reason: str = "iteration budget"


def check_penalty_ratio(config, L):
    """Warn when rho/2 < 10*eta/L (the projection premise is then weak)."""
    if L >= 1 and config.rho / 2.0 < 10.0 * config.eta / L:
        warnings.warn(
            f"rho/2 = {config.rho / 2.0:g} is below 10*eta/L = "
            f"{10.0 * config.eta / L:g}; the projection-based v-update assumes "
            "the quadratic penalty dominates the shrinkage weight",
            WeakPenaltyWarning,
            stacklevel=3,
        )


def update_w(v, u, rho):
    """Closed-form consensus update: rho/(2 + rho*L) * sum_l (v_l + u_l)."""
    return (rho / (2.0 + rho * v.shape[0])) * np.add.reduce(v + u, axis=0)


def update_u(u, v_new, w_new):
    """Scaled dual ascent: u_l + v_l - w."""
    return u + v_new - w_new


def update_v(problem, w, u, eta, rho):
    """Shrink every auxiliary copy, then project each onto its own constraint.

    C = w - u is shrunk as one (L, M*N) batch.  Two screens pick the copies
    that move: the beam rows of ``problem.families`` that fail the
    ``beam_slacks`` pass-through test and the antenna groups over their
    limit; every SINR row goes on to its kernel, which has its own
    pass-through test.  Those rows, in constraint order, each take one
    ``projections.move``, the projection sweep's step: the row's one-point
    kernel behind the KKT guard.  Rows that hold keep C's bytes, so the
    result equals the per-constraint loop bit for bit.  The first row in
    order whose kernel or guard fails raises ``move``'s ``ProjectionError``,
    which names it.
    """
    L, M, N = problem.L, problem.M, problem.N
    if L == 0:
        return np.empty((0, problem.size), dtype=complex)
    beams, powers, sinrs = problem.families
    C = group_shrink(w - u, eta, rho, L, M, N)
    V = C.reshape(L, M, N)  # a view: each row of C is read before it is written
    moves = np.empty(L, dtype=bool)  # filled below: the families partition the rows
    moves[sinrs.rows] = True  # a SINR row's kernel screens itself
    moves[beams.rows] = ~(beam_slacks(V.take(beams.rows, axis=0), beams) >= 0.0).ravel()
    G = V[powers.rows, :, powers.antenna]
    moves[powers.rows] = ~(sq_norms(G[..., np.newaxis])[:, 0, 0] <= powers.limit)
    for l in moves.nonzero()[0].tolist():
        moved = move(problem, l, V[l])
        if moved is not None:
            V[l] = moved[0]
    return V.reshape(L, M * N)


def cyclic_projection(problem, w, max_sweeps=500, tol=_START_TOL, certify=False):
    """Feasibility restoration by cyclic nearest-point projections.

    Sweeps the constraints in their fixed order (Bauschke & Borwein, SIAM
    Review 1996), one ``projections.move`` per row, until the worst violation
    is at most ``tol``, a sweep fails to cut the previous sweep's by 0.1%, or
    ``max_sweeps`` have run.  A satisfied row leaves the point as it is; a
    row whose kernel or KKT guard fails raises ``move``'s
    ``ProjectionError``, which names it.  Returns (w, max_violation, converged,
    multipliers, certificate), the violation being the last sweep's and the
    multipliers the KKT multipliers mu_l of its moves, 0 for rows that held,
    in constraint order.  Projections onto an empty intersection stall
    rather than converge, and their moves nearly cancel,
    sum_l mu_l F_l v_l ~ 0, so a sweep's multipliers often prove the problem
    infeasible.  With ``certify``, every sweep that ends above ``tol`` with
    s = sum_l mu_l f_l < 0 puts them through ``multiplier_certificate`` (the
    test needs sum lambda_l f_l < 0, and lambda_l is a positive multiple of
    mu_l, so no sweep with s >= 0 can pass), and the first certificate found
    stops the sweeps; otherwise ``certificate`` is None.
    """
    W = np.array(w, dtype=complex).reshape(problem.M, problem.N)
    f = problem.certificate_record.f.tolist() if certify else None
    current = problem.max_violation(W.reshape(-1)) if max_sweeps < 1 else None
    multipliers = [0.0] * problem.L
    previous = np.inf
    for _ in range(max_sweeps):
        multipliers = [0.0] * problem.L
        s = 0.0
        for l in range(problem.L):
            moved = move(problem, l, W)
            if moved is not None:
                W, multipliers[l] = moved[0], moved[1]
                if certify and moved[1] > 0.0:
                    s += moved[1] * f[l]
        current = problem.max_violation(W.reshape(-1))
        if current <= tol:
            return W.reshape(-1), current, True, multipliers, None
        if s < 0.0:
            certificate = multiplier_certificate(problem.certificate_record, multipliers)
            if certificate is not None:
                return W.reshape(-1), current, False, multipliers, certificate
        if not current < previous * (1.0 - 1e-3):
            break
        previous = current
    return W.reshape(-1), current, False, multipliers, None


def _zero_forcing_start(problem):
    """Zero-forcing beams over the SINR rows' channels, each scaled to twice
    its row's SINR target and put in its served user's block."""
    M, N = problem.M, problem.N
    sinrs = problem.families.sinrs
    w = np.zeros(M * N, dtype=complex)
    if not sinrs.rows.size:
        return w
    channels = np.conj(sinrs.probe[:, :, 0])  # h of each row
    H = np.ascontiguousarray(channels.T)  # C order: BLAS may round a view differently
    gram = H.conj().T @ H
    try:
        X = np.linalg.solve(gram, np.eye(len(channels), dtype=complex))
    except np.linalg.LinAlgError:
        X = np.linalg.pinv(gram)
    W_zf = H @ X
    for i, (h, m) in enumerate(zip(channels, sinrs.served[1].tolist())):
        col = W_zf[:, i]
        gain = np.vdot(h, col)  # h^H w, equals 1 when the inverse is exact
        if abs(gain) > 1e-12:
            col = col * (np.sqrt(-2.0 * sinrs.f[i]) / gain)  # 2*gamma*sigma^2, bit for bit
        w[m * N : (m + 1) * N] = col
    return w


def _mainlobe_boost(problem, w):
    """Smallest tau so that block 0 plus tau*a(center) clears 1.2x each floor,
    read from the passband rows of ``families``, angles included; a(center)
    is the steering vector of the first passband angle nearest their mean."""
    beams = problem.families.beams
    passband = np.flatnonzero(beams.sign.ravel() < 0)
    if not passband.size:
        return w
    angles = beams.angle[passband]
    steering = beams.steering[passband, 0]
    a_c = steering[np.argmin(np.abs(angles - np.mean(angles)))]
    block0 = w[: problem.N]
    responses = sq_norms(w.reshape(problem.M, -1) @ beams.probe[passband]).ravel()
    tau = 0.0
    for a, response, threshold in zip(steering, responses, beams.threshold[passband].ravel()):
        ci = np.vdot(a, block0)  # a^H w_0
        need = 1.2 * threshold - (response - abs(ci) ** 2)  # less the other blocks' response
        if abs(ci) ** 2 >= need:
            continue
        gi = np.vdot(a, a_c)
        if abs(gi) == 0.0:
            continue  # this angle cannot be lifted by the anchor; POCS will
        aa = abs(gi) ** 2
        bb = 2.0 * (np.conj(ci) * gi).real
        cc = abs(ci) ** 2 - need
        disc = bb * bb - 4.0 * aa * cc
        root = (-bb + np.sqrt(max(disc, 0.0))) / (2.0 * aa)
        tau = max(tau, root)
    if tau > 0.0:
        w = w.copy()
        w[: problem.N] = block0 + tau * a_c
    return w


def minimum_power(problem, w0):
    """min ||w||^2 s.t. w^H F_l w <= f_l by one SLSQP run from w0, feasible or not.

    Runs over x = [Re w, Im w] with gradient 2x and constraint Jacobian
    -2[Re F_l w, Im F_l w] from ``problem.f_actions``, then polishes the
    result with ``cyclic_projection`` to within ``_POLISH_TOL``, stopped as
    stage 3 is, and returns its (w, max_violation, converged).
    """
    n = problem.size

    def slacks_jac(x):
        A = problem.f_actions(x[:n] + 1j * x[n:])
        return -2.0 * np.hstack([A.real, A.imag])

    x = minimize(
        lambda x: (x @ x, 2.0 * x), np.concatenate([w0.real, w0.imag]),
        jac=True, method="SLSQP", options=_SQP_OPTIONS,
        constraints={"type": "ineq", "jac": slacks_jac,
                     "fun": lambda x: problem.slacks(x[:n] + 1j * x[n:])},
    ).x
    return cyclic_projection(problem, x[:n] + 1j * x[n:], tol=_POLISH_TOL)[:3]


def handoff_tol(problem):
    """Where stage 3 of the feasibility search hands off: ``_HANDOFF_REL`` *
    max_l |f_l|, never below ``_START_TOL``.  ``initialize`` starts ADMM from
    the point it reaches, and ``refit`` starts its SQP run from it."""
    f = problem.certificate_record.f
    return max(_HANDOFF_REL * float(np.abs(f).max(initial=0.0)), _START_TOL)


def find_feasible_point(problem, tol=_START_TOL):
    """A point within ``tol`` of every constraint, or a verdict that none exists.

    Stage 1 builds zero-forcing user beams with doubled SINR targets, stage 2
    lifts the mainlobe floor with a steering injection, stage 3 runs cyclic
    projections until the worst violation is at most ``tol`` or a sweep makes
    no progress.  At ``handoff_tol`` it gives ADMM its consensus start and,
    before a refit's SQP run, tells near-feasible subarrays from ones that
    stall; at the default 1e-8 it is the refit's fallback should that run
    fail.  Every stage-3 sweep that ends above ``tol`` may prove that no
    feasible point exists: its multipliers go through
    ``multiplier_certificate`` (see ``cyclic_projection``), and the first that
    pass stop the search with a certified ``InfeasibleProblemError`` at the
    point of that sweep.  Where stage 3 stops short of ``tol`` without one,
    the Kelley search of ``certify_infeasible`` looks once (never found on a
    feasible problem), and with a certificate the search stops as above.
    Otherwise stage 4 runs ``minimum_power`` from that point, an SQP solve
    that needs no feasible start; should its polish fall short too, the search
    gives up with an uncertified error at the better point reached.  The
    error's message carries the verdict and that point's max violation; its
    ``worst_violations`` are computed from the problem and that point when
    first read, so a caller that wants only the verdict pays nothing for them.
    No stage draws random numbers, and ``tol`` only decides when stage 3
    stops.
    """
    w = _zero_forcing_start(problem)
    w = _mainlobe_boost(problem, w)
    w, violation, ok, _, certificate = cyclic_projection(problem, w, tol=tol, certify=True)
    if ok:
        return w
    if certificate is None:
        certificate = certify_infeasible(problem)
    if certificate is None:
        stalled = (w, violation)
        w, violation, ok = minimum_power(problem, w)
        if ok:
            return w
        w, violation = min(stalled, (w, violation), key=lambda point: point[1])
        verdict = "search gave up after an SQP run"
    else:
        verdict = f"certified infeasible ({certificate.describe()})"
    raise InfeasibleProblemError(
        f"{verdict}; max violation {violation:.3e}", partial(problem.worst_violations, w),
        certificate,
    )


def initialize(problem):
    """Consensus start: every v_l at the feasibility search's hand-off point,
    within ``handoff_tol`` of every constraint, and the duals zero.  ADMM
    needs only a start near the feasible set: the refit runs its own search
    on the selected subarray."""
    w0 = find_feasible_point(problem, tol=handoff_tol(problem))
    v = np.tile(w0, (problem.L, 1))
    u = np.zeros((problem.L, problem.size), dtype=complex)
    return AdmmState(w=w0.copy(), v=v, u=u)


def solve(problem, config):
    """Run the consensus iteration for k_max rounds (or to the tolerances).

    The state's ``stop_reason`` says which of the two ended it.
    Deterministic for a fixed problem and configuration.  Projection
    failures abort with the iteration and constraint in the message:
    silently skipping a constraint would corrupt the consensus.
    """
    check_penalty_ratio(config, problem.L)
    state = initialize(problem)
    eta, rho = config.eta, config.rho
    for k in range(config.k_max):
        w_new = update_w(state.v, state.u, rho)
        try:
            v_new = update_v(problem, w_new, state.u, eta, rho)
        except ProjectionError as err:
            raise ProjectionError(
                f"iteration {k + 1}: {err}", dict(err.diagnostics, iteration=k + 1)
            ) from err
        u_new = update_u(state.u, v_new, w_new)
        # np.linalg.norm's own formulas: along axis 1, and of the whole vector
        primal = float(norms(v_new - w_new, 1).max()) if problem.L else 0.0
        step = w_new - state.w
        dual = rho * math.sqrt(step.real.dot(step.real) + step.imag.dot(step.imag))
        state.w, state.v, state.u = w_new, v_new, u_new
        state.k = k + 1
        state.history.append(
            IterationRecord(
                k=k + 1,
                objective=objective(w_new, eta, problem.M, problem.N),
                primal_residual=primal,
                dual_residual=dual,
            )
        )
        if (
            config.primal_tol is not None
            and config.dual_tol is not None
            and primal <= config.primal_tol
            and dual <= config.dual_tol
        ):
            state.stop_reason = "tolerances met"
            break
    return state
