"""Design metrics: transmit power, MSRR, beampattern, SINR, feasibility."""

from dataclasses import dataclass

import numpy as np

from .arrays import _sample_interval, linear_to_db, steering_vector
from .errors import ConfigurationError
from .problem import group_norms, sinr_powers, user_blocks

CONSTRAINT_KINDS = ("passband", "stopband", "antenna_power", "sinr")


def tx_power(w):
    """Total transmit power: the squared norm of the stack."""
    w = np.asarray(w)
    return float(np.vdot(w, w).real)


def _responses(w, A, M):
    """Transmit response sum_m |a^H w_m|^2 for each steering column a of A."""
    proj = user_blocks(w, M, A.shape[0]).conj() @ A  # (M, n_angles) of w_m^H a
    return (np.abs(proj) ** 2).sum(axis=0)


def msrr(w, problem):
    """Mainlobe-to-sidelobe response ratio over the problem's beam rows: the
    summed response at its passband angles over that at its stopband angles,
    each angle's steering vector read from ``problem.families``.

    A side without rows has response 0.  Returns 0 when only the mainlobe
    response vanishes, +inf when only the stopband response does, and nan
    when both do, as for the all-zero beamformer (0/0).
    """
    beams = problem.families.beams
    passband = beams.sign.ravel() < 0
    main, stop = (  # C order: BLAS may round a transposed view differently
        float(_responses(w, np.ascontiguousarray(beams.steering[rows, 0].T), problem.M).sum())
        for rows in (passband, ~passband)
    )
    if stop == 0.0:
        return float("inf") if main > 0.0 else float("nan")
    return main / stop


def beampattern(w, problem, step_deg=0.5):
    """(angles, responses) over a fine display grid from -90 to exactly 90 in
    steps of ``step_deg`` > 0, the last one possibly shorter, with the steering
    vectors of the full array of ``problem.scenario``, built as one matrix by
    one ``steering_vector`` call.  Both are empty for a problem without a
    scenario (one built by hand), which has no array geometry to steer, and
    for a subarray (``support`` set): its scenario's geometry is the full
    array's, and a nested subarray's support indexes its parent, not that
    array.

    The display grid is finer than the constraint grid on purpose, so
    between-grid sidelobe excursions show up in reports.
    """
    if not step_deg > 0:
        raise ConfigurationError(f"pattern step must be > 0 deg, got {step_deg}")
    if problem.scenario is None or problem.support is not None:
        return np.empty(0), np.empty(0)
    angles = np.array(_sample_interval(-90.0, 90.0, step_deg))
    A = steering_vector(problem.scenario.geometry, angles)
    return angles, _responses(w, A, problem.M)


def antenna_power(w, M, N):
    """Radiated power per antenna: squared group norms."""
    return group_norms(w, M, N) ** 2


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Violation per constraint plus per-kind worst violations."""

    violations: np.ndarray
    max_violation_by_kind: dict
    passed: bool


def feasibility_report(w, problem, tol=1e-6):
    """Evaluate every constraint; a design passes when no violation exceeds tol."""
    violations = problem.violations(w)
    beams, powers, sinrs = problem.families
    passband = beams.sign.ravel() < 0
    rows = (beams.rows[passband], beams.rows[~passband], powers.rows, sinrs.rows)
    by_kind = {
        kind: float(violations[r].max()) for kind, r in zip(CONSTRAINT_KINDS, rows) if r.size
    }
    return FeasibilityReport(
        violations=violations,
        max_violation_by_kind=by_kind,
        passed=bool(violations.max(initial=0.0) <= tol),
    )


@dataclass(frozen=True, eq=False)
class DesignReport:
    """Metrics bundle for one beamformer design."""

    tx_power_w: float
    msrr: float
    msrr_db: float
    sinr: np.ndarray
    antenna_power_w: np.ndarray
    max_violation_by_kind: dict
    feasible: bool
    pattern_angles_deg: np.ndarray
    pattern_response: np.ndarray


def design_report(w, problem):
    """Metrics of a stack on the full problem, feasible within 1e-6, pattern in
    0.5 deg steps; SINRs are signal / (interference + noise variance) per row."""
    w = np.asarray(w, dtype=complex)
    sinrs = problem.families.sinrs
    signal, interference = sinr_powers(user_blocks(w, problem.M, problem.N), sinrs)
    feas = feasibility_report(w, problem)
    ratio = msrr(w, problem)
    angles, pattern = beampattern(w, problem)
    return DesignReport(
        tx_power_w=tx_power(w),
        msrr=ratio,
        msrr_db=linear_to_db(ratio) if np.isfinite(ratio) and ratio > 0 else float("nan"),
        sinr=signal / (interference + sinrs.noise),
        antenna_power_w=antenna_power(w, problem.M, problem.N),
        max_violation_by_kind=feas.max_violation_by_kind,
        feasible=feas.passed,
        pattern_angles_deg=angles,
        pattern_response=pattern,
    )
