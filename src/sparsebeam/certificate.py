"""Lagrangian certificates of infeasibility for the quadratic constraint family.

If multipliers lambda >= 0 make S = sum_l lambda_l F_l positive semidefinite
while s = sum_l lambda_l f_l < 0, no w meets every w^H F_l w <= f_l: summing
the constraints with these weights would put w^H S w >= 0 below s < 0.  This
is the easy direction of the S-lemma (Polik & Terlaky, "A survey of the
S-lemma", SIAM Review 2007); lambda is a dual point of the semidefinite
relaxation (Luo et al., IEEE Signal Processing Magazine 2010).

Every F_l is block-diagonal over users with blocks C[l, m] g_l g_l^H, held
with f and the row scales in ``problem.certificate_record``, built once per
problem from its ``families``, a subarray's as any other's.  So S is PSD
exactly when each block S_m is (Huang & Palomar, IEEE Trans. Signal
Processing 2010), and no MN x MN matrix is formed.  The first multipliers
tried are the feasibility search's own: after every sweep of its
cyclic projections that ends above its tolerance with sum_l mu_l f_l < 0,
``multiplier_certificate`` tries the KKT multipliers of that sweep's moves.
On an empty intersection the sweeps stall, their moves
v_l - vbar_l = -mu_l F_l v_l nearly cancel (sum_l mu_l F_l v_l ~ 0), and such
multipliers, scaled onto the simplex, often pass the acceptance rule below
many sweeps before the stall, at the cost of one ``eigh`` per block.  Where
no sweep's multipliers pass, ``certify_infeasible`` takes them from Kelley's
cutting-plane method.  A linear program over lambda on the unit simplex
maximizes t subject to t <= -s and t <= y^H S_m y for every cut (m, y)
gathered so far.  The first cuts are
y = g_l/||g_l|| in each block m with C[l, m] < 0 (passband rows in every
block, SINR rows in their served user's; no assembled row has a zero g_l,
and ``restrict`` drops those its support zeroes):
only these blocks are negative semidefinite, so S_m can lose PSD-ness only
along them.  Each round adds the eigenvectors of each S_m whose eigenvalues
fall below t as new cuts.  The cuts only relax lambda_min(S), so the LP
value bounds min(lambda_min(S), -s) from above: once it is negative no
certificate exists and the search ends.  One HiGHS model serves the whole
search: each round appends its cuts as rows and re-solves from the previous
optimal basis (a warm start), so a round costs a few dual simplex pivots
rather than a fresh LP.  Both sources of multipliers go through one
acceptance test.  The feasibility search asks for the LP search once, where
its cyclic projections stop short of their tolerance without a certificate.
Nothing is random: the same problem and multipliers always give the same
answer.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy._core import HighsModelStatus, ObjSense, _Highs

# Kelley rounds before giving up on an undecided relaxation
_MAX_ROUNDS = 200
# HiGHS settings for LPs of a few dozen columns re-solved from a warm basis:
# presolve and scaling cost more than they save there, and so do threads
_LP_OPTIONS = {"output_flag": False, "presolve": "off", "threads": 1, "simplex_scale_strategy": 0}


@dataclass(frozen=True, eq=False)
class Certificate:
    """Multipliers proving that a constraint family has no feasible point.

    ``multipliers`` are aligned with the problem's rows and scaled so
    that ``combined_f`` = sum_l lambda_l f_l is -1; ``combined_rounding``
    bounds its floating-point error by L * eps * sum_l lambda_l |f_l|.
    ``min_eigenvalue`` is the computed lambda_min of S = sum_l lambda_l F_l
    and ``rounding`` the bound used for its floating-point error (M * N * L
    * eps * sum_l lambda_l ||F_l||_2, above the backward error of forming S
    and of ``eigh``).  ``norm_bound`` is R in ||w||^2 <= R, the sum of the
    per-antenna power limits when every antenna has one, else None.

    Acceptance rule (``excludes_every_point``), with s = combined_f +
    combined_rounding < 0 the largest value the exact sum can take:

    * with a norm bound R: s + R * (max(0, -lambda_min) + rounding) < 0.  For
      any feasible w, w^H S w >= (lambda_min - rounding) * ||w||^2 >=
      -R * (max(0, -lambda_min) + rounding), and w^H S w <= s; so a slightly
      negative computed eigenvalue still excludes every feasible w.
      Equivalently, adding the deficit to every antenna-power multiplier
      gives an exact certificate with a PSD sum (the selectors sum to I).
    * without one: lambda_min >= -rounding, i.e. S must be positive
      semidefinite to within what floating point can tell apart from zero.
      Nothing then bounds ||w||, so the certificate holds for
      S + rounding*I and excludes every w with ||w||^2 < -s / rounding.
      A sum at rounding level would let multipliers of 1e16 pass off a
      feasible family as infeasible; s < 0 rules that out.
    """

    multipliers: np.ndarray
    combined_f: float
    combined_rounding: float
    min_eigenvalue: float
    rounding: float
    norm_bound: float

    @property
    def excludes_every_point(self):
        s = self.combined_f + self.combined_rounding
        if not s < 0.0:
            return False
        if self.norm_bound is None:
            return self.min_eigenvalue >= -self.rounding
        deficit = max(0.0, -self.min_eigenvalue) + self.rounding
        return s + self.norm_bound * deficit < 0.0

    def describe(self):
        return (
            f"sum lambda*f = {self.combined_f:.3g}, "
            f"lambda_min(sum lambda*F) = {self.min_eigenvalue:.3g}"
        )


class CertificateRecord(NamedTuple):
    """The per-row data of every certificate of one problem, in constraint
    order: f (L,), the generators G (L, N) and block weights C (L, M), so
    that block m of F_l is C[l, m] g_l g_l^H; ``scale`` = ||F_l||_2 (L,), 1
    where F_l = 0; Cs = C / scale and fs = f / scale, the rows normalized to
    ||F_l||_2 = 1; and ``norm_bound`` R (see ``Certificate``)."""

    f: np.ndarray
    G: np.ndarray
    C: np.ndarray
    scale: np.ndarray
    Cs: np.ndarray
    fs: np.ndarray
    norm_bound: float


def certificate_record(problem):
    """The ``CertificateRecord`` of ``problem``, from ``problem.families``."""
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
    # ||F_l||_2 = max_m |C[l, m]| ||g_l||^2
    scale = np.abs(C).max(axis=1) * (np.abs(G) ** 2).sum(axis=1)
    scale[scale == 0.0] = 1.0
    # R bounds ||w||^2 on the feasible set when every antenna has a power limit
    limits = np.full(N, np.inf)
    np.minimum.at(limits, powers.antenna, powers.limit)
    R = float(sum(limits.tolist())) if np.all(limits < np.inf) else None
    return CertificateRecord(f, G, C, scale, C / scale[:, None], f / scale, R)


def _judge(record, lam):
    """The eigenpairs of every S_m for lambda on the simplex, and the
    certificate lambda gives if it passes the acceptance rule, else None."""
    L, N = record.G.shape
    M = record.C.shape[1]
    S = np.einsum("lm,li,lj->mij", lam[:, None] * record.Cs, record.G, record.G.conj())
    eigvals, eigvecs = np.linalg.eigh(S)
    combined = float(lam @ record.fs)
    if combined < 0.0:
        # the rule is invariant to scaling lambda; report s = -1
        k = -1.0 / combined
        eps = np.finfo(float).eps
        certificate = Certificate(
            multipliers=k * lam / record.scale,
            combined_f=k * combined,
            combined_rounding=k * L * eps * float(lam @ np.abs(record.fs)),
            min_eigenvalue=k * float(eigvals.min()),
            rounding=k * M * N * L * eps * float(lam.sum()),
            norm_bound=record.norm_bound,
        )
        if certificate.excludes_every_point:
            return eigvals, eigvecs, certificate
    return eigvals, eigvecs, None


def multiplier_certificate(record, multipliers):
    """The certificate that ``multipliers``, aligned with the rows of
    ``record``, give by themselves, or None: negative and NaN entries count
    as 0 and an infinite one voids them all; the rest are scaled by
    ||F_l||_2 onto the simplex and put through the acceptance rule, at the
    cost of one ``eigh`` per user block."""
    lam = np.asarray(multipliers, dtype=float)
    lam = np.where(lam > 0.0, lam, 0.0)
    top = lam.max(initial=0.0)
    if not 0.0 < top < np.inf:
        return None
    lam = lam / top * record.scale  # the max first: no sum overflows
    return _judge(record, lam / lam.sum())[2]


def certify_infeasible(problem):
    """A ``Certificate`` that ``problem`` is infeasible, or None, by the
    Kelley search.

    None does not mean feasible: the relaxation may have a gap, or the
    search may run out of rounds.  A returned certificate always satisfies
    its own acceptance rule, so it is never found for a feasible problem.
    """
    record = problem.certificate_record
    if not np.any(record.f < 0.0):
        return None  # w = 0 meets every constraint

    L = problem.L
    G, C, Cs = record.G, record.C, record.Cs
    # variables (lambda_1..lambda_L, t) with lambda on the unit simplex;
    # maximize t <= y^H S_m y over the cuts (m, y) and t <= -s
    lp = _Highs()
    for option, value in _LP_OPTIONS.items():
        lp.setOptionValue(option, value)
    lp.addVars(L + 1, np.append(np.zeros(L), -np.inf), np.full(L + 1, np.inf))
    lp.changeColCost(L, 1.0)
    lp.changeObjectiveSense(ObjSense.kMaximize)
    _add_rows(lp, np.append(np.ones(L), 0.0)[np.newaxis, :], 1.0, 1.0)
    _add_rows(lp, np.append(record.fs, 1.0)[np.newaxis, :], -np.inf, 0.0)
    row, block = np.nonzero(C < 0.0)  # first cuts: g_l/||g_l|| where C[l, m] < 0
    cuts = G[row] / np.linalg.norm(G[row], axis=1, keepdims=True)
    for _ in range(_MAX_ROUNDS):
        values = Cs.T[block] * np.abs(cuts.conj() @ G.T) ** 2  # y^H (C g g^H) y
        _add_rows(lp, np.hstack([-values, np.ones((values.shape[0], 1))]), -np.inf, 0.0)
        lp.run()
        if lp.getModelStatus() != HighsModelStatus.kOptimal:
            return None
        x = np.array(lp.getSolution().col_value)
        # a basic multiplier may sit a rounding error below 0, which would
        # void the proof; the certificate is formed from the clipped one
        t = x[L]
        eigvals, eigvecs, certificate = _judge(record, np.maximum(x[:L], 0.0))
        if certificate is not None:
            return certificate
        block, column = np.nonzero(eigvals < t)
        cuts = eigvecs[block, :, column]
        if t < 0.0 or not block.size:
            return None
    return None


def zeroed_floor_certificate(problem, l):
    """lambda_l = -1/f_l alone proves ``problem`` infeasible on a subarray that
    zeroes the generator of floor row l: there F_l = 0, so S = 0 and s = -1."""
    multipliers = np.zeros(problem.L)
    multipliers[l] = -1.0 / problem.certificate_record.f[l]
    return Certificate(multipliers, -1.0, problem.L * np.finfo(float).eps, 0.0, 0.0, None)


def _add_rows(lp, A, lower, upper):
    """Append the rows of dense A, bounded by lower <= A x <= upper, to ``lp``."""
    row, col = np.nonzero(A)
    starts = np.searchsorted(row, np.arange(len(A))).astype(np.int32)
    lp.addRows(
        len(A), np.full(len(A), lower), np.full(len(A), upper),
        len(row), starts, col.astype(np.int32), A[row, col],
    )
