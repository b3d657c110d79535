"""Array geometry, steering vectors, user channels, angle grids, unit conversions.

Angles are degrees at every public boundary.  Powers and ratios are linear
(watts, dimensionless) everywhere inside the package; dB and dBm values are
converted exactly once, at the configuration boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_integer

_GRID_TOL = 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    num_antennas: int
    element_spacing: float = 0.5

    def __post_init__(self):
        n = check_integer("num_antennas", self.num_antennas, 2)
        object.__setattr__(self, "num_antennas", n)  # range() and shapes take no 10.0
        if not (math.isfinite(self.element_spacing) and self.element_spacing > 0):
            raise ConfigurationError(
                f"element_spacing must be finite and > 0 wavelengths, got {self.element_spacing}"
            )


@dataclass(frozen=True)
class AngleGrids:
    """Mainlobe and stopband angle samples (degrees), kept as flat tuples."""

    mainlobe: tuple
    stopband: tuple

    def __post_init__(self):
        if len(self.mainlobe) == 0:
            raise ConfigurationError("mainlobe grid is empty")
        if len(self.stopband) == 0:
            raise ConfigurationError("stopband grid is empty")
        for theta in self.mainlobe:
            for phi in self.stopband:
                if abs(theta - phi) <= _GRID_TOL:
                    raise ConfigurationError(
                        f"mainlobe and stopband grids share the angle {theta} deg"
                    )


def steering_vector(geometry, theta_deg):
    """Unit-modulus array response toward ``theta_deg``.

    Entry n is exp(j*2*pi*spacing*n*sin(theta)) for n = 0..N-1; the first
    element is the phase reference.  An array of angles gives one column per
    angle, (N, k) for k angles, from one evaluation of the same formula.
    """
    theta = np.asarray(theta_deg, dtype=float)
    inside = (-90.0 <= theta) & (theta <= 90.0)
    if not inside.all():
        raise ConfigurationError(f"angle {theta[~inside].flat[0]} deg outside [-90, 90]")
    n = np.arange(geometry.num_antennas).reshape(-1, *(1,) * theta.ndim)
    phase = 2.0 * np.pi * geometry.element_spacing * n * np.sin(np.deg2rad(theta))
    return np.exp(1j * phase)


def los_channel(geometry, theta_user_deg, gain=1.0):
    """Line-of-sight channel: a scaled steering vector toward the user."""
    if not abs(gain) > 0:
        raise ConfigurationError(f"channel gain must be nonzero, got {gain}")
    return gain * steering_vector(geometry, theta_user_deg)


def rayleigh_channel(geometry, seed):
    """I.i.d. circular complex Gaussian channel with unit per-entry variance."""
    rng = np.random.default_rng(seed)
    n = geometry.num_antennas
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def db_to_linear(x_db):
    """Decibels to a linear power ratio."""
    return float(10.0 ** (x_db / 10.0))


def dbm_to_watts(x_dbm):
    """dBm to watts."""
    return float(10.0 ** (x_dbm / 10.0) / 1000.0)


def linear_to_db(x):
    """Linear power ratio to decibels (-inf for 0)."""
    if x == 0:
        return float("-inf")
    return float(10.0 * np.log10(x))


def _sample_interval(lo, hi, step):
    """Inclusive sampling of [lo, hi] in at most 10**6 steps: lo, lo+step, ...; hi included."""
    if hi < lo:
        raise ConfigurationError(f"interval [{lo}, {hi}] has hi < lo")
    if lo == hi:
        return [float(lo)]
    steps = (hi - lo) / step
    if not steps <= 1e6:  # also inf and nan; real grids have at most thousands of points
        raise ConfigurationError(f"interval [{lo}, {hi}] at step {step}: over 10**6 steps")
    count = int(np.floor(steps + _GRID_TOL))
    points = [float(lo + k * step) for k in range(count + 1)]
    if points[-1] >= hi - _GRID_TOL:
        points[-1] = float(hi)
    else:
        points.append(float(hi))
    return points


def _check_disjoint_regions(regions):
    ordered = sorted(regions, key=lambda r: r[0])
    for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:]):
        if lo2 < hi1 - _GRID_TOL:
            raise ConfigurationError(
                f"angle regions [{lo1}, {hi1}] and [{lo2}, {hi2}] overlap"
            )


def build_grids(mainlobe_region, stopband_regions, mainlobe_step, stopband_step):
    """Sample the mainlobe interval and each stopband interval inclusively.

    Regions must be non-overlapping; the resulting point sets must be
    disjoint (grid points shared between mainlobe and stopband would make a
    constraint pair contradictory by construction).
    """
    if not mainlobe_step > 0 or not stopband_step > 0:
        raise ConfigurationError(
            f"grid steps must be > 0, got {mainlobe_step} and {stopband_step}"
        )
    stopband_regions = [tuple(r) for r in stopband_regions]
    if len(stopband_regions) == 0:
        raise ConfigurationError("at least one stopband region is required")
    for lo, hi in [tuple(mainlobe_region)] + stopband_regions:
        if not (-90.0 <= lo <= 90.0 and -90.0 <= hi <= 90.0):
            raise ConfigurationError(f"region [{lo}, {hi}] outside [-90, 90]")
    _check_disjoint_regions([tuple(mainlobe_region)] + stopband_regions)

    mainlobe = _sample_interval(*mainlobe_region, mainlobe_step)
    stopband = []
    for lo, hi in stopband_regions:
        stopband.extend(_sample_interval(lo, hi, stopband_step))
    return AngleGrids(mainlobe=tuple(mainlobe), stopband=tuple(stopband))
