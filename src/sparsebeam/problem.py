"""Stacked beamforming problem: the constraint family and regularized objective.

The per-user weight vectors w_1..w_M are stacked into one complex vector of
length M*N.  Block m (one user's weights) occupies entries [m*N, (m+1)*N);
antenna group n gathers entries {n, n+N, ..., n+(M-1)*N}.

Every constraint is held in the normalized sense  w^H F w <= f.  F is never
materialized: it is block-diagonal over users, with block m equal to
C[m] g g^H for one nonzero generator g (a steering vector, the selector e_n
of one antenna, or a channel).  There are four kinds: beam floors and
ceilings, antenna powers and SINR floors.

A problem has one record of what it requires, ``ProblemInstance.families``:
the constraints as per-kind arrays, one ``ConstraintFamilies`` of
``beam_rows``, ``PowerRows`` and ``sinr_rows``, beside the sizes M and N,
the antenna support of a subarray and the scenario it was assembled from.
There is one way to build it.  ``assemble`` writes the arrays straight from
a scenario's grids, limits and channels, and ``ProblemInstance.restrict``
slices a parent's arrays for a subarray; a problem built by hand passes the
same three constructors its own arrays, which nothing validates.  Every
evaluation reads the arrays: the row names, the slacks, the F_l w
products, the SINRs of a design, the v-update's screens, the feasible start,
the MSRR and ``sweep_plan``, the one-point kernels that
``projections.move`` runs for the projection sweep and the v-update, with
each row's data.  The infeasibility certificate reads them through
``certificate_record``, its per-row data built from them once per problem.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import projections
from .arrays import build_grids, los_channel, rayleigh_channel, steering_vector
from .certificate import certificate_record, zeroed_floor_certificate
from .errors import ConfigurationError, InfeasibleProblemError


def user_blocks(w, M, N):
    """View the stacked vector as an (M, N) array, one row per user."""
    w = np.asarray(w)
    if w.shape != (M * N,):
        raise ValueError(f"stack has shape {w.shape}, expected ({M * N},)")
    return w.reshape(M, N)


def group_norms(w, M, N):
    """Per-antenna l2 norms across users: the N group magnitudes."""
    return norms(user_blocks(w, M, N), 0)


def norms(X, axis):
    """``np.linalg.norm(X, axis=axis)`` of a complex or float X along one
    integer axis, by numpy's own formula for that case and so with its
    bytes, without the argument handling that costs more than the
    arithmetic on arrays this small."""
    return np.sqrt(np.add.reduce((X.conj() * X).real, axis=axis))


def sq_norms(X):
    """||x||^2, shaped (..., 1, 1), of every column x of a stack X (..., n, 1);
    equal to vdot(x, x).real, as the stacked matmul runs the same BLAS dot."""
    return (np.conj(X).swapaxes(-1, -2) @ X).real


class BeamRows(NamedTuple):
    """Passband and stopband constraints as arrays shaped to broadcast against
    stacked points (k, M, N): rows l (k,); the steering vectors a and a/||a||
    as (k, 1, N) rows and their conjugates as (k, N, 1) columns; ||a||^2, the
    sign (+1 stopband, -1 passband) and the threshold as (k, 1, 1), and the
    angle in degrees (k,); or, one row from ``each``, to broadcast against one
    point (M, N), with ||a||^2, sign and threshold as floats."""

    rows: np.ndarray
    steering: np.ndarray
    unit: np.ndarray
    probe: np.ndarray
    unit_probe: np.ndarray
    norm2: np.ndarray
    sign: np.ndarray
    threshold: np.ndarray
    angle: np.ndarray

    def each(self):
        """Every row without the leading axis, in one pass over the fields."""
        *vectors, norm2, sign, threshold, angle = self
        scalars = (x.ravel().tolist() for x in (norm2, sign, threshold))
        return (BeamRows(*row) for row in zip(*vectors, *scalars, angle))


def beam_rows(rows, steering, sign, threshold, N, angle):
    """``BeamRows`` from the raw steering vectors, signs, thresholds and
    angles, copied to C order: a strided view would round ||a||^2
    differently.  Every ||a||^2 comes from one ``sq_norms`` call, the bytes
    of a per-row ``vdot(a, a).real`` wherever that is finite."""
    a = np.asarray(steering, dtype=complex, order="C").reshape(len(rows), 1, N)
    norm2 = sq_norms(a.reshape(len(rows), N, 1))
    unit = a / np.sqrt(norm2)
    return BeamRows(
        np.asarray(rows, dtype=int), a, unit,
        np.conj(a).transpose(0, 2, 1).copy(), np.conj(unit).transpose(0, 2, 1).copy(),
        norm2, np.reshape(sign, (-1, 1, 1)).astype(float),
        np.reshape(threshold, (-1, 1, 1)).astype(float),
        np.asarray(angle, dtype=float),
    )


def beam_slacks(W, beams):
    """sign*(threshold - response), (k, 1, 1), of each row at W (k or 1, M, N)."""
    return beams.sign * beams.threshold - beams.sign * sq_norms(W @ beams.probe)


class PowerRows(NamedTuple):
    """Antenna-power constraints as arrays: row l, antenna index and limit."""

    rows: np.ndarray
    antenna: np.ndarray
    limit: np.ndarray

    def each(self):
        """Every row with Python scalars, in one pass over the fields."""
        return (PowerRows(*row) for row in zip(*(field.tolist() for field in self)))


class SinrRows(NamedTuple):
    """SINR constraints as arrays: rows l (s,); conj(h) as (s, N, 1) columns;
    the (row, user) index of each served user; F's weights on the user blocks
    (s, M), -1 served and gamma elsewhere, which no constraint holds; gamma,
    f and the noise variance sigma^2 (s,)."""

    rows: np.ndarray
    probe: np.ndarray
    served: tuple
    weights: np.ndarray
    gamma: np.ndarray
    f: np.ndarray
    noise: np.ndarray

    def each(self):
        """Every row as one SINR kernel reads it, in one pass over the fields:
        conj(h), h/||h|| and its conjugate as (N,) vectors, ||h||^2, the
        served user, gamma, the target -f = gamma*sigma^2, F's block weights
        (M,) and h."""
        for probe, user, gamma, f, weights in zip(
            self.probe, self.served[1].tolist(), self.gamma.tolist(), self.f.tolist(), self.weights
        ):
            h = np.conj(probe[:, 0])
            norm2 = float(np.vdot(h, h).real)
            unit = h / np.sqrt(norm2)
            yield np.conj(h), unit, np.conj(unit), norm2, user, gamma, -f, weights, h


def sinr_rows(rows, channels, users, gamma, noise, M, N):
    """``SinrRows`` from each row's channel h (N,), served user, gamma and
    noise variance sigma^2: F's block weights are -1 on the served user's
    block and gamma on the others, and f = -gamma*sigma^2."""
    users = np.asarray(users, dtype=int)
    gamma, noise = np.asarray(gamma, dtype=float), np.asarray(noise, dtype=float)
    return SinrRows(
        np.asarray(rows, dtype=int),
        np.conj(np.asarray(channels, dtype=complex)).reshape(-1, N, 1),
        (np.arange(len(users)), users),
        np.where(users[:, np.newaxis] == np.arange(M), -1.0, gamma[:, np.newaxis]),
        gamma, -gamma * noise, noise,
    )


def sinr_powers(W, sinrs):
    """|h^H w_m|^2 of each SINR row's served user and that summed over the
    other users (its interference), (s,) each, at one point W (M, N)."""
    power = np.abs(W @ sinrs.probe)[..., 0] ** 2  # (s, M): |h^H w_m|^2 of every user
    signal = power[sinrs.served]
    return signal, power.sum(axis=1) - signal


class ConstraintFamilies(NamedTuple):
    """Every constraint of a problem, by kind."""

    beams: BeamRows
    powers: PowerRows
    sinrs: SinrRows


def normalize_support(support):
    """Antenna indices as a sorted tuple of ints without repeats; an index
    that is not integral (1.5, not 2.0 or a numpy integer) is a
    ``ConfigurationError`` naming the first one."""
    support = tuple(support)
    for n in support:
        if not float(n).is_integer():
            raise ConfigurationError(f"antenna index {n} is not an integer")
    return tuple(sorted(set(int(n) for n in support)))


def objective(w, eta, M, N):
    """||w||^2 plus eta times the sum of antenna-group norms."""
    g = group_norms(w, M, N)  # checks the shape of w
    return float(np.vdot(w, w).real) + eta * float(np.add.reduce(g))


@dataclass(frozen=True, eq=False)
class BeamformerStack:
    """Stacked complex beamformer of M users on N antennas."""

    w: np.ndarray
    M: int
    N: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        if w.shape != (self.M * self.N,):
            raise ValueError(
                f"stack length {w.shape} does not match M*N = {self.M * self.N}"
            )
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One QCQP: its constraint ``families``, M users, N antennas, the
    antenna ``support`` of a subarray (None for the full array) and the
    ``scenario`` it was assembled from (None for a hand-built problem; no
    solver reads it).

    ``families`` is the problem's one record of what it requires, and
    everything else is derived from it: L, the row names, the
    ``certificate_record`` and the ``sweep_plan``.  Each family's ``rows``
    place its constraints in the problem's order; ``assemble`` fixes it
    (passband grid, stopband grid, antenna powers, SINRs) so that run logs
    and dual variables are reproducible.
    """

    families: ConstraintFamilies
    M: int
    N: int
    support: tuple = None
    scenario: object = None

    @cached_property
    def L(self):
        return sum(len(family.rows) for family in self.families)

    @property
    def size(self):
        return self.M * self.N

    @cached_property
    def row_names(self):
        """(kind, description) of every row in order, read in one pass over
        ``families``: ``passband(theta=-5 deg)``, ``antenna_power(n=3)``
        (this problem's own antenna index), ``sinr(m=1)``."""
        beams, powers, sinrs = self.families
        names = [None] * self.L
        for l, sign, angle in zip(beams.rows.tolist(), beams.sign.ravel().tolist(),
                                  beams.angle.tolist()):
            kind = "passband" if sign < 0 else "stopband"
            names[l] = (kind, f"{kind}(theta={angle:g} deg)")
        for l, n in zip(powers.rows.tolist(), powers.antenna.tolist()):
            names[l] = ("antenna_power", f"antenna_power(n={n})")
        for l, m in zip(sinrs.rows.tolist(), sinrs.served[1].tolist()):
            names[l] = ("sinr", f"sinr(m={m})")
        return tuple(names)

    @cached_property
    def certificate_record(self):
        """f, the generators and block weights of every row, their scales and
        the norm bound, as ``certificate.CertificateRecord``: built from
        ``families`` once per instance, for the certificate, the hand-off
        tolerance and ``restrict``."""
        return certificate_record(self)

    @cached_property
    def sweep_plan(self):
        """(kernel, row data from ``families``) of every row in order, the
        plan ``projections.move`` reads for the sweep and the v-update."""
        return projections.sweep_plan(self)

    def slacks(self, w):
        """f_l - w^H F_l w per constraint, nonnegative where it holds."""
        beams, powers, sinrs = self.families
        W = user_blocks(np.asarray(w, dtype=complex), self.M, self.N)
        s = np.empty(self.L)
        s[beams.rows] = beam_slacks(W[np.newaxis], beams).ravel()
        s[powers.rows] = powers.limit - sq_norms(W.T[powers.antenna, :, np.newaxis]).ravel()
        signal, interference = sinr_powers(W, sinrs)
        s[sinrs.rows] = sinrs.f + (signal - sinrs.gamma * interference)
        return s

    def f_actions(self, w):
        """F_l w of every constraint as an (L, M*N) array, no F_l formed."""
        beams, powers, sinrs = self.families
        W = user_blocks(np.asarray(w, dtype=complex), self.M, self.N)
        out = np.zeros((self.L, self.M, self.N), dtype=complex)
        out[beams.rows] = beams.sign * (W @ beams.probe) * beams.steering
        out[powers.rows, :, powers.antenna] = W[:, powers.antenna].T
        out[sinrs.rows] = (
            (sinrs.weights[..., np.newaxis] * (W @ sinrs.probe))
            * np.conj(sinrs.probe).swapaxes(1, 2)
        )
        return out.reshape(self.L, self.size)

    def violations(self, w):
        """max(0, -slack) per constraint; a NaN slack is an infinite violation,
        so that no non-finite point passes a tolerance."""
        slacks = self.slacks(w)
        return np.where(np.isnan(slacks), np.inf, np.fmax(0.0, -slacks))

    def max_violation(self, w):
        return float(self.violations(w).max(initial=0.0))

    def worst_violations(self, w):
        """The 5 worst (description, violation) pairs at w, largest first."""
        violations = self.violations(w)
        order = np.argsort(-violations, kind="stable")[:5]
        return [(self.row_names[l][1], float(violations[l])) for l in order]

    def restrict(self, support):
        """The same problem on the antenna subset ``support``, sorted indices
        into this problem's antennas: a subarray's own ``restrict`` takes, and
        its ``support`` holds, indices into its parent's support.  A row whose
        generator the support zeroes reads 0 <= f_l, so it is dropped when
        f_l > 0, and a floor (f_l < 0), violated by -f_l at every point,
        raises a certified ``InfeasibleProblemError``.  The subarray's
        ``families`` are this problem's, sliced on the kept rows and the
        support's antennas."""
        support = normalize_support(support)
        if not support:
            raise ConfigurationError("empty antenna support")
        if support[0] < 0 or support[-1] >= self.N:
            raise ConfigurationError(
                f"support {support} outside antenna range 0..{self.N - 1}"
            )
        cols, record = list(support), self.certificate_record
        kept = record.G[:, cols].any(axis=1)
        floors = np.flatnonzero(~kept & (record.f < 0.0)).tolist()
        if floors:
            names = [self.row_names[l][1] for l in floors]
            raise InfeasibleProblemError(
                f"certified infeasible (support {support} zeroes {names[0]})",
                [(name, float(-record.f[l])) for name, l in zip(names, floors)],
                zeroed_floor_certificate(self, floors[0]),
            )
        return ProblemInstance(
            restrict_families(self.families, kept, cols), self.M, len(support), support,
            self.scenario,
        )


def restrict_families(families, kept, cols):
    """``families`` on the rows ``kept`` (a mask over rows, renumbered in
    order) and the antennas ``cols`` (a sorted list, renumbered from 0)."""
    beams, powers, sinrs = families
    row = np.cumsum(kept) - 1
    b, p, s = kept[beams.rows], kept[powers.rows], kept[sinrs.rows]
    return ConstraintFamilies(
        beam_rows(
            row[beams.rows[b]], beams.steering[b, 0][:, cols], beams.sign[b],
            beams.threshold[b], len(cols), beams.angle[b],
        ),
        PowerRows(
            row[powers.rows[p]], np.searchsorted(cols, powers.antenna[p]), powers.limit[p]
        ),
        SinrRows(
            row[sinrs.rows[s]],
            np.ascontiguousarray(sinrs.probe[s][:, cols]),
            (np.arange(np.count_nonzero(s)), sinrs.served[1][s]),
            sinrs.weights[s], sinrs.gamma[s], sinrs.f[s], sinrs.noise[s],
        ),
    )


def assemble(scenario):
    """The full problem of a scenario, its ``families`` built from it.

    Order: passband grid, stopband grid, antenna powers 0..N-1, SINRs 0..M-1.
    User m's SINR row carries its channel: LoS toward its angle, or Rayleigh
    drawn from default_rng([seed, 101, m]).
    """
    geometry = scenario.geometry
    N, M = geometry.num_antennas, scenario.M
    grids = build_grids(
        scenario.mainlobe_region,
        scenario.stopband_regions,
        scenario.mainlobe_step_deg,
        scenario.stopband_step_deg,
    )
    angles = grids.mainlobe + grids.stopband
    P, B = len(grids.mainlobe), len(angles)
    if scenario.channel_model == "los":
        channels = [los_channel(geometry, angle, scenario.channel_gain)
                    for angle in scenario.user_angles_deg]
    else:  # "rayleigh", the one other model a Scenario accepts
        channels = [rayleigh_channel(geometry, seed=[scenario.seed, 101, m]) for m in range(M)]
    families = ConstraintFamilies(
        beam_rows(
            np.arange(B), [steering_vector(geometry, theta) for theta in angles],
            [-1.0] * P + [1.0] * (B - P),
            [scenario.mainlobe_threshold] * P + [scenario.stopband_threshold] * (B - P),
            N, angles,
        ),
        PowerRows(np.arange(B, B + N), np.arange(N),
                  np.array(scenario.antenna_power_limit_w, dtype=float)),
        sinr_rows(np.arange(B + N, B + N + M), channels, np.arange(M),
                  scenario.sinr_target, scenario.noise_variance, M, N),
    )
    return ProblemInstance(families, M, N, scenario=scenario)
