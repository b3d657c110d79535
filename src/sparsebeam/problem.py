"""Stacked beamforming problem: the constraint family and regularized objective.

The per-user weight vectors w_1..w_M are stacked into one complex vector of
length M*N.  Block m (one user's weights) occupies entries [m*N, (m+1)*N);
antenna group n gathers entries {n, n+N, ..., n+(M-1)*N}.

A problem has one record of what it requires, ``ProblemInstance.families``,
beside the sizes M and N, the antenna support of a subarray and the scenario
it was assembled from: the angle grids are the beam rows' angles, each
user's channel, SINR target and noise are its SINR row, and every other
quantity, each row's name included, is derived from that record.  A problem
built from constraint objects (``assemble``, or by hand) builds its
``families`` from them once, and no other code reads an object; a subarray
(``ProblemInstance.restrict``) holds no objects at all, only its
``families``, sliced from the parent's arrays.

Every constraint is held in the normalized sense  w^H F w <= f.  F is never
materialized: it is block-diagonal over users, with block m equal to
C[m] g g^H for one nonzero generator g (a steering vector, the selector e_n
of one antenna, or a channel).  A constraint object is data: its fields,
their validation and f.

The family has four kinds: beam floors and ceilings, antenna powers and SINR
floors.  ``ProblemInstance.families`` holds them as per-kind arrays, routed
by ``isinstance`` (a subclass joins its kind; any other class is a
``ConfigurationError``), and every evaluation reads them: the row names, the
slacks, the F_l w products, the SINRs of a design, the v-update's screens,
the feasible start, the MSRR and ``sweep_plan``: the one-point kernels that
``projections.move`` runs for the projection sweep and the v-update, with
each row's data.  The infeasibility certificate reads them through
``certificate_record``, its per-row data built from them once per problem.
"""

from collections.abc import Sequence
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
class BeamConstraint:
    """A response sum_m |a^H w_m|^2 at one angle, held below (stopband,
    ``sign`` +1) or above (passband, ``sign`` -1) a threshold.

    Normalized as F = sign*(I_M (x) a a^H), f = sign*threshold; a subclass
    sets only ``kind`` and ``sign``.
    """

    angle_deg: float
    steering: np.ndarray
    threshold: float
    M: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "steering", np.asarray(self.steering, dtype=complex))
        if self.steering.shape != (self.N,):
            raise ConfigurationError(
                f"{self.kind} steering vector has shape {self.steering.shape}, "
                f"but N={self.N} needs ({self.N},)"
            )
        if not self.steering.any():
            raise ConfigurationError(f"{self.kind} steering vector is zero")
        if not self.threshold > 0:
            raise ConfigurationError(
                f"{self.kind} threshold must be > 0, got {self.threshold}"
            )

    @property
    def f(self):
        return self.sign * self.threshold


class PassbandConstraint(BeamConstraint):
    """Mainlobe floor at one angle: sum_m |a^H w_m|^2 >= threshold.

    Normalized with F = -(I_M (x) a a^H), f = -threshold; F is NSD.
    """

    kind = "passband"
    sign = -1.0


class StopbandConstraint(BeamConstraint):
    """Sidelobe ceiling at one angle: sum_m |a^H w_m|^2 <= threshold.

    F = I_M (x) a a^H is PSD with rank M.
    """

    kind = "stopband"
    sign = 1.0


@dataclass(frozen=True, eq=False)
class AntennaPowerConstraint:
    """Per-antenna radiated power: sum_m |w_m(n)|^2 <= limit.

    F is the 0/1 diagonal selector of antenna group n.
    """

    antenna: int
    limit: float
    M: int
    N: int

    kind = "antenna_power"

    def __post_init__(self):
        if not 0 <= self.antenna < self.N:
            raise ConfigurationError(
                f"antenna index {self.antenna} outside 0..{self.N - 1}"
            )
        if not self.limit > 0:
            raise ConfigurationError(
                f"antenna power limit must be > 0, got {self.limit}"
            )

    @property
    def f(self):
        return self.limit


@dataclass(frozen=True, eq=False)
class SinrConstraint:
    """Downlink SINR floor for one user.

    |h^H w_m|^2 - gamma * sum_{j != m} |h^H w_j|^2 >= gamma * sigma^2,
    normalized with f = -gamma*sigma^2 and an indefinite F (-1 on the served
    user's block, +gamma on the others, along the channel), whose block
    weights ``ProblemInstance.families`` builds from the user and gamma.
    """

    user: int
    h: np.ndarray
    gamma: float
    noise_variance: float
    M: int
    N: int

    kind = "sinr"

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=complex))
        if not 0 <= self.user < self.M:
            raise ConfigurationError(f"user index {self.user} outside 0..{self.M - 1}")
        if self.h.shape != (self.N,):
            raise ConfigurationError(
                f"sinr channel vector of user {self.user} has shape {self.h.shape}, "
                f"but N={self.N} needs ({self.N},)"
            )
        if not self.h.any():
            raise ConfigurationError(f"user {self.user}: channel vector is zero")
        if not self.gamma > 0:
            raise ConfigurationError(f"SINR target must be > 0, got {self.gamma}")
        if not self.noise_variance > 0:
            raise ConfigurationError(
                f"noise variance must be > 0, got {self.noise_variance}"
            )

    @property
    def f(self):
        return -self.gamma * self.noise_variance


def family_of(l, constraint, M, N):
    """The position in ``ConstraintFamilies`` of row l's kind (0 beams, 1
    antenna powers, 2 SINRs); any other class, or an object sized for other
    M or N than its problem's, is a ``ConfigurationError``."""
    for i, cls in enumerate((BeamConstraint, AntennaPowerConstraint, SinrConstraint)):
        if isinstance(constraint, cls):
            if (constraint.M, constraint.N) != (M, N):
                raise ConfigurationError(
                    f"constraint l={l} ({constraint.kind}) is sized M={constraint.M}, "
                    f"N={constraint.N}, but its problem has M={M}, N={N}"
                )
            return i
    raise ConfigurationError(
        f"unsupported constraint class {type(constraint).__name__}: a constraint "
        "must be a beam, antenna-power or SINR constraint"
    )


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One QCQP: its ``constraints``, M users, N antennas, the antenna
    ``support`` of a subarray (None for the full array) and the ``scenario``
    it was assembled from (None for a hand-built problem; no solver reads it).

    ``families`` is the problem's one record of what it requires, and
    everything else is derived from it: L, the row names, the
    ``certificate_record`` and the ``sweep_plan``.  Built from constraint
    objects, a problem reads them once, into its ``families``, and nothing
    else reads them.  A subarray from ``restrict`` has no objects
    (``constraints`` is None), only its ``families``, sliced from its
    parent's.  Constraint order is fixed (passband grid, stopband grid,
    antenna powers, SINRs) so that run logs and dual variables are
    reproducible.
    """

    constraints: Sequence
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
    def families(self):
        """The constraints by kind as arrays, built once per instance from the
        objects' fields and f, the one place that reads them; the SINR block
        weights from user and gamma."""
        cs = self.constraints
        kinds = [family_of(l, c, self.M, self.N) for l, c in enumerate(cs)]
        beams, powers, sinrs = ([l for l, k in enumerate(kinds) if k == i] for i in range(3))
        users = np.array([cs[l].user for l in sinrs], dtype=int)
        gamma = np.array([cs[l].gamma for l in sinrs], dtype=float)
        return ConstraintFamilies(
            beam_rows(
                beams, [cs[l].steering for l in beams], [cs[l].sign for l in beams],
                [cs[l].threshold for l in beams], self.N, [cs[l].angle_deg for l in beams],
            ),
            PowerRows(
                np.array(powers, dtype=int),
                np.array([cs[l].antenna for l in powers], dtype=int),
                np.array([cs[l].limit for l in powers], dtype=float),
            ),
            SinrRows(
                np.array(sinrs, dtype=int),
                np.array([np.conj(cs[l].h) for l in sinrs]).reshape(-1, self.N, 1),
                (np.arange(len(sinrs)), users),
                np.where(users[:, np.newaxis] == np.arange(self.M), -1.0, gamma[:, np.newaxis]),
                gamma,
                np.array([cs[l].f for l in sinrs], dtype=float),
                np.array([cs[l].noise_variance for l in sinrs], dtype=float),
            ),
        )

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
        raises a certified ``InfeasibleProblemError``.  The subarray holds no
        constraint objects: its ``families`` are this problem's, sliced on
        the kept rows and the support's antennas, and everything else it
        derives from them."""
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
        reduced = ProblemInstance(None, self.M, len(support), support, self.scenario)
        # the sliced arrays are the subarray's one record: fill its cached families
        vars(reduced)["families"] = restrict_families(self.families, kept, cols)
        return reduced


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
    """Build the full constraint family from a scenario.

    Order: passband grid, stopband grid, antenna powers 0..N-1, SINRs 0..M-1.
    User m's SINR row carries its channel: LoS toward its angle, or Rayleigh
    drawn from default_rng([seed, 101, m]).
    """
    geometry = scenario.geometry
    N = geometry.num_antennas
    M = len(scenario.user_angles_deg)
    grids = build_grids(
        scenario.mainlobe_region,
        scenario.stopband_regions,
        scenario.mainlobe_step_deg,
        scenario.stopband_step_deg,
    )

    constraints = []
    for cls, angles, threshold in (
        (PassbandConstraint, grids.mainlobe, scenario.mainlobe_threshold),
        (StopbandConstraint, grids.stopband, scenario.stopband_threshold),
    ):
        for theta in angles:
            constraints.append(
                cls(theta, steering_vector(geometry, theta), threshold, M, N)
            )
    for n in range(N):
        constraints.append(
            AntennaPowerConstraint(n, scenario.antenna_power_limit_w[n], M, N)
        )
    for m, angle in enumerate(scenario.user_angles_deg):
        if scenario.channel_model == "los":
            h = los_channel(geometry, angle, scenario.channel_gain)
        else:  # "rayleigh", the one other model a Scenario accepts
            h = rayleigh_channel(geometry, seed=[scenario.seed, 101, m])
        constraints.append(
            SinrConstraint(m, h, scenario.sinr_target[m], scenario.noise_variance[m], M, N)
        )
    return ProblemInstance(constraints=tuple(constraints), M=M, N=N, scenario=scenario)
