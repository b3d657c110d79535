"""Scenario configuration: JSON loading, validation, unit conversion.

The JSON schema shipped in ``data/scenario.schema.json`` is the documented
config surface; unknown keys are rejected.  Powers may be given in watts or
as "<x> dBm" strings, ratios as linear numbers or "<x> dB" strings; the
loaded Scenario always carries linear units.
"""

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields
from importlib import resources

import jsonschema

from .admm import AdmmConfig
from .arrays import ArrayGeometry, build_grids, db_to_linear, dbm_to_watts, los_channel
from .errors import ConfigurationError, check_integer

DEFAULT_SWEEP_SPAN_DEG = (-45.0, 45.0)


def _data_path(name):
    return resources.files("sparsebeam").joinpath("data", name)


def bundled_scenario_path():
    """Filesystem path of paper_sec4.json, the scenario shipped with the package."""
    return str(_data_path("paper_sec4.json"))


@functools.cache
def _validator():
    """The bundled schema's validator, built once per process; the schema is
    checked against its metaschema by the test suite, not here."""
    with _data_path("scenario.schema.json").open("r", encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def _parse_units(value, field, units, expected):
    """A number, or a '<x> <unit>' string converted by the function ``units`` maps it to."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip().lower().replace(" ", "")
        for suffix, convert in units.items():
            if text.endswith(suffix):
                try:
                    return convert(float(text[: -len(suffix)]))
                except OverflowError:
                    raise ConfigurationError(f"{field}: {value!r} is not a finite number") from None
                except ValueError:
                    break
    raise ConfigurationError(f"{field}: expected {expected}, got {value!r}")


def parse_power_watts(value, field):
    """A power given as watts (number), '<x> W', or '<x> dBm'."""
    units = {"dbm": dbm_to_watts, "w": float}
    return _parse_units(value, field, units, "watts, '<x> W', or '<x> dBm'")


def parse_ratio_linear(value, field):
    """A ratio given as a linear number or a '<x> dB' string."""
    return _parse_units(value, field, {"db": db_to_linear}, "a linear ratio or '<x> dB'")


def _non_finite(value, name):
    """The first (name, number) in ``value``, a number or nested tuples of
    them, that is NaN or infinite, with its position appended to ``name``;
    None when there is none."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            found = _non_finite(item, f"{name}[{i}]")
            if found:
                return found
    elif isinstance(value, numbers.Real) and not math.isfinite(value):
        return name, value
    return None


def _per_item(value, count, parser, field):
    """Broadcast a scalar to ``count`` entries, or parse a list's entries;
    ``Scenario`` checks the list's length."""
    if isinstance(value, list):
        return tuple(parser(item, field) for item in value)
    return tuple(parser(value, field) for _ in range(count))


@dataclass(frozen=True)
class Scenario:
    """One full experiment description, all values linear."""

    geometry: ArrayGeometry
    num_selected: int
    user_angles_deg: tuple
    channel_model: str
    channel_gain: float
    mainlobe_region: tuple
    mainlobe_step_deg: float
    stopband_regions: tuple
    stopband_step_deg: float
    mainlobe_threshold: float
    stopband_threshold: float
    antenna_power_limit_w: tuple
    noise_variance: tuple
    sinr_target: tuple
    admm: AdmmConfig
    seed: int
    sweep_user_span_deg: tuple = DEFAULT_SWEEP_SPAN_DEG

    def __post_init__(self):
        # every number, so that no entry point (the loader, a dict, a replace)
        # lets NaN or inf through; ``geometry`` and ``admm`` check their own
        for f in fields(self):
            found = _non_finite(getattr(self, f.name), f.name)
            if found:
                raise ConfigurationError(f"{found[0]}: {found[1]!r} is not a finite number")
        N = self.geometry.num_antennas
        M = len(self.user_angles_deg)
        if M < 1:
            raise ConfigurationError("at least one user is required")
        # checked, not converted: a file's 8.0 stays 8.0, and so does its hash
        check_integer("num_selected", self.num_selected, 1, N)
        check_integer("seed", self.seed, 0)
        if self.channel_model not in ("los", "rayleigh"):
            raise ConfigurationError(
                f"channel_model must be 'los' or 'rayleigh', got {self.channel_model!r}"
            )
        if not self.mainlobe_threshold > 0:
            raise ConfigurationError("mainlobe_threshold must be > 0")
        if not self.stopband_threshold > 0:
            raise ConfigurationError("stopband_threshold must be > 0")
        for name, values, count in (
            ("antenna_power_limit", self.antenna_power_limit_w, N),
            ("noise_variance", self.noise_variance, M),
            ("sinr_target", self.sinr_target, M),
        ):
            if len(values) != count:
                raise ConfigurationError(
                    f"{name}: expected {count} entries, got {len(values)}"
                )
            if any(not value > 0 for value in values):
                raise ConfigurationError(f"{name}: every entry must be > 0")
        # what assemble builds, so that every Scenario assembles: the angle
        # grids, and the LoS channels' gain and angles
        build_grids(self.mainlobe_region, self.stopband_regions,
                    self.mainlobe_step_deg, self.stopband_step_deg)
        if self.channel_model == "los":
            los_channel(self.geometry, self.user_angles_deg, self.channel_gain)

    @property
    def M(self):
        return len(self.user_angles_deg)

    @property
    def N(self):
        return self.geometry.num_antennas


def scenario_from_dict(data):
    """Validate a raw config dict against the schema and convert units."""
    err = jsonschema.exceptions.best_match(_validator().iter_errors(data))
    if err is not None:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigurationError(f"scenario field {where}: {err.message}") from err

    array = data["array"]
    users = data["users"]
    admm = data.get("admm", {})
    geometry = ArrayGeometry(
        num_antennas=array["num_antennas"],
        element_spacing=array.get("element_spacing_wl", 0.5),
    )
    N = geometry.num_antennas
    M = len(users["angles_deg"])
    sweep = data.get("sweep", {})
    span = sweep.get("user_span_deg", list(DEFAULT_SWEEP_SPAN_DEG))
    return Scenario(
        geometry=geometry,
        num_selected=data["num_selected"],
        user_angles_deg=tuple(float(a) for a in users["angles_deg"]),
        channel_model=users.get("channel_model", "los"),
        channel_gain=float(users.get("gain", 1.0)),
        mainlobe_region=tuple(float(x) for x in data["mainlobe"]["region_deg"]),
        mainlobe_step_deg=float(data["mainlobe"].get("step_deg", 2.0)),
        stopband_regions=tuple(
            tuple(float(x) for x in region)
            for region in data["stopband"]["regions_deg"]
        ),
        stopband_step_deg=float(data["stopband"].get("step_deg", 5.0)),
        mainlobe_threshold=float(data["mainlobe_threshold"]),
        stopband_threshold=float(data["stopband_threshold"]),
        antenna_power_limit_w=_per_item(
            data["antenna_power_limit"], N, parse_power_watts, "antenna_power_limit"
        ),
        noise_variance=_per_item(
            data["noise_variance"], M, lambda v, f: float(v), "noise_variance"
        ),
        sinr_target=_per_item(
            data["sinr_target"], M, parse_ratio_linear, "sinr_target"
        ),
        # the file's keys only, so that AdmmConfig states every default
        admm=AdmmConfig(**{**admm, "eta": float(admm["eta"]), "rho": float(admm["rho"])}),
        seed=int(data["seed"]),
        sweep_user_span_deg=tuple(float(x) for x in span),
    )


def load_scenario(path):
    """Load and validate a scenario JSON file.  A number that is not finite
    is a ``ConfigurationError``: ``json`` reads the non-JSON NaN, Infinity
    and -Infinity, and an overflowing literal such as 1e999 as inf."""

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ConfigurationError(f"{path}: {text} is not a finite number")
        return value

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=finite, parse_float=finite)
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"{path}: not valid JSON ({err})") from err
    return scenario_from_dict(data)


def scenario_to_dict(scenario):
    """Canonical dict form (linear units) that round-trips through the loader;
    ``admm.parallel``, which has no effect, is left out."""
    return {
        "array": {
            "num_antennas": scenario.geometry.num_antennas,
            "element_spacing_wl": scenario.geometry.element_spacing,
        },
        "num_selected": scenario.num_selected,
        "users": {
            "angles_deg": list(scenario.user_angles_deg),
            "channel_model": scenario.channel_model,
            "gain": scenario.channel_gain,
        },
        "mainlobe": {
            "region_deg": list(scenario.mainlobe_region),
            "step_deg": scenario.mainlobe_step_deg,
        },
        "stopband": {
            "regions_deg": [list(r) for r in scenario.stopband_regions],
            "step_deg": scenario.stopband_step_deg,
        },
        "mainlobe_threshold": scenario.mainlobe_threshold,
        "stopband_threshold": scenario.stopband_threshold,
        "antenna_power_limit": list(scenario.antenna_power_limit_w),
        "noise_variance": list(scenario.noise_variance),
        "sinr_target": list(scenario.sinr_target),
        "admm": {
            "eta": scenario.admm.eta,
            "rho": scenario.admm.rho,
            "k_max": scenario.admm.k_max,
            "primal_tol": scenario.admm.primal_tol,
            "dual_tol": scenario.admm.dual_tol,
        },
        "seed": scenario.seed,
        "sweep": {"user_span_deg": list(scenario.sweep_user_span_deg)},
    }


def write_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_sha256(scenario):
    """Stable hash of the canonical scenario dict, for artifact provenance."""
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
