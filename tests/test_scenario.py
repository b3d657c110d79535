import dataclasses
import json
import re

import jsonschema
import pytest

from sparsebeam import (
    AdmmConfig,
    ArrayGeometry,
    ConfigurationError,
    Scenario,
    bundled_scenario_path,
    load_scenario,
    scenario_sha256,
    scenario_to_dict,
    write_scenario,
)
from sparsebeam.scenario import (
    _data_path, parse_power_watts, parse_ratio_linear, scenario_from_dict,
)


def paper_dict():
    with open(bundled_scenario_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestBundledScenario:
    def test_paper_values(self, paper_scenario):
        sc = paper_scenario
        assert sc.N == 10 and sc.M == 2 and sc.num_selected == 8
        assert sc.geometry.element_spacing == 0.5
        assert sc.user_angles_deg == (-45.0, 45.0)
        assert sc.mainlobe_threshold == 10.0
        assert sc.stopband_threshold == 0.5
        assert sc.sinr_target == (10.0, 10.0)  # 10 dB
        assert sc.noise_variance == (1.0, 1.0)
        assert sc.antenna_power_limit_w == tuple([10.0] * 10)  # 40 dBm
        assert sc.admm.eta == 0.1 and sc.admm.rho == 50.0 and sc.admm.k_max == 100


class TestUnitParsing:
    def test_power_forms(self):
        assert parse_power_watts(10.0, "x") == 10.0
        assert parse_power_watts("40 dBm", "x") == 10.0
        assert parse_power_watts("40dBm", "x") == 10.0
        assert parse_power_watts("2.5 W", "x") == 2.5
        with pytest.raises(ConfigurationError):
            parse_power_watts("40 volts", "x")

    def test_ratio_forms(self):
        assert parse_ratio_linear(10.0, "x") == 10.0
        assert parse_ratio_linear("10 dB", "x") == 10.0
        assert parse_ratio_linear("10dB", "x") == 10.0
        with pytest.raises(ConfigurationError):
            parse_ratio_linear("ten", "x")

    def test_db_and_linear_agree(self):
        data = paper_dict()
        linear = dict(data, sinr_target=10.0, antenna_power_limit=10.0)
        assert scenario_from_dict(data) == scenario_from_dict(linear)


class TestValidation:
    def test_unknown_key_rejected_with_name(self):
        data = paper_dict()
        data["users"]["favourite_colour"] = "blue"
        with pytest.raises(ConfigurationError) as err:
            scenario_from_dict(data)
        assert "users" in str(err.value)

    def test_k_zero_rejected(self):
        data = paper_dict()
        data["num_selected"] = 0
        with pytest.raises(ConfigurationError):
            scenario_from_dict(data)

    def test_k_above_n_rejected(self):
        data = paper_dict()
        data["num_selected"] = 11
        with pytest.raises(ConfigurationError):
            scenario_from_dict(data)

    def test_negative_threshold_rejected(self):
        data = paper_dict()
        data["stopband_threshold"] = -1.0
        with pytest.raises(ConfigurationError):
            scenario_from_dict(data)

    def test_wrong_list_length_rejected(self):
        data = paper_dict()
        data["noise_variance"] = [1.0, 1.0, 1.0]
        with pytest.raises(ConfigurationError):
            scenario_from_dict(data)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_scenario(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "absent.json")


# (path into the scenario dict, a literal that ``json`` reads as NaN or +-inf)
NON_FINITE_FIELDS = [
    (("admm", "eta"), "NaN"),
    (("admm", "rho"), "Infinity"),
    (("noise_variance",), "Infinity"),
    (("sinr_target",), "Infinity"),
    (("mainlobe_threshold",), "Infinity"),
    (("users", "gain"), "Infinity"),
    (("array", "element_spacing_wl"), "Infinity"),
    (("antenna_power_limit",), "Infinity"),
    (("stopband_threshold",), "Infinity"),
    (("stopband_threshold",), "-Infinity"),
    (("stopband_threshold",), "1e999"),
]


def non_finite_id(case):
    """A field path as a test id, such as admm.eta; a literal as itself."""
    return case if isinstance(case, str) else ".".join(case)


def write_with_literal(path, field, literal):
    """The bundled scenario with ``field`` set to the raw JSON ``literal``."""
    data = paper_dict()
    *parents, key = field
    node = data
    for name in parents:
        node = node[name]
    node[key] = "@literal@"
    path.write_text(json.dumps(data).replace('"@literal@"', literal), encoding="utf-8")
    return path


class TestNonFinite:
    @pytest.mark.parametrize("field, literal", NON_FINITE_FIELDS, ids=non_finite_id)
    def test_load_rejects_non_finite_numbers(self, tmp_path, field, literal):
        path = write_with_literal(tmp_path / "bad.json", field, literal)
        with pytest.raises(ConfigurationError, match="is not a finite number"):
            load_scenario(path)

    @pytest.mark.parametrize("field, value", [
        ("eta", float("nan")), ("eta", float("inf")),
        ("rho", float("nan")), ("rho", float("inf")),
        ("k_max", float("nan")), ("k_max", float("inf")),
        ("parallel", float("nan")), ("parallel", float("inf")),
    ])
    def test_admm_config_rejects_non_finite_values(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AdmmConfig(**{"eta": 0.1, "rho": 50.0, field: value})


# (path into the scenario dict, a pattern for the field its error names, how
# to set a number there); the schema's bounds reject -inf first on most
# fields, and +inf on angles, naming the field by its path in the dict
DICT_FIELDS = [
    (("stopband_threshold",), "stopband_threshold", lambda x: x),
    (("mainlobe_threshold",), "mainlobe_threshold", lambda x: x),
    (("users", "gain"), "channel_gain", lambda x: x),
    (("users", "angles_deg"), r"user_angles_deg\[1\]|users/angles_deg/1", lambda x: [-45.0, x]),
    (("mainlobe", "step_deg"), "mainlobe_step_deg", lambda x: x),
    (("mainlobe", "region_deg"), r"mainlobe_region\[0\]|mainlobe/region_deg/0", lambda x: [x, 10.0]),
    (("stopband", "step_deg"), "stopband_step_deg", lambda x: x),
    (("stopband", "regions_deg"), r"stopband_regions\[1\]\[1\]|stopband/regions_deg/1/1",
     lambda x: [[-90.0, -30.0], [30.0, x]]),
    (("sweep",), r"sweep_user_span_deg\[1\]|sweep/user_span_deg/1",
     lambda x: {"user_span_deg": [-45.0, x]}),
    (("noise_variance",), r"noise_variance\[1\]", lambda x: [1.0, x]),
    (("sinr_target",), r"sinr_target\[0\]", lambda x: x),
    (("antenna_power_limit",), r"antenna_power_limit_w\[0\]", lambda x: x),
    (("array", "element_spacing_wl"), "element_spacing", lambda x: x),
    (("admm", "primal_tol"), "primal_tol", lambda x: x),
    (("admm", "eta"), "eta", lambda x: x),
]


class TestNonFiniteFromPython:
    """``Scenario`` itself rejects every non-finite number, naming the field,
    so a dict or ``dataclasses.replace`` agrees with ``load_scenario``."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("path, pattern, place", DICT_FIELDS,
                             ids=[".".join(case[0]) for case in DICT_FIELDS])
    def test_scenario_from_dict(self, path, pattern, place, value):
        data = paper_dict()
        *parents, key = path
        node = data
        for part in parents:
            node = node[part]
        node[key] = place(value)
        with pytest.raises(ConfigurationError, match=pattern):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field, name, place", [
        ("stopband_threshold", "stopband_threshold", lambda x: x),
        ("channel_gain", "channel_gain", lambda x: x),
        ("noise_variance", "noise_variance[1]", lambda x: (1.0, x)),
        ("stopband_regions", "stopband_regions[0][0]", lambda x: ((x, -30.0),)),
        ("sweep_user_span_deg", "sweep_user_span_deg[0]", lambda x: (x, 45.0)),
        ("seed", "seed", lambda x: x),
        ("num_selected", "num_selected", lambda x: x),
    ])
    def test_replace(self, paper_scenario, field, name, place, value):
        with pytest.raises(ConfigurationError, match=re.escape(f"{name}: {value!r} is not a finite number")):
            dataclasses.replace(paper_scenario, **{field: place(value)})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_geometry_and_solver_tolerances(self, value):
        with pytest.raises(ConfigurationError, match="element_spacing"):
            ArrayGeometry(10, value)
        with pytest.raises(ConfigurationError, match="num_antennas"):
            ArrayGeometry(value)
        with pytest.raises(ConfigurationError, match="dual_tol"):
            AdmmConfig(eta=0.1, rho=50.0, primal_tol=1e-3, dual_tol=value)

    def test_overflowing_unit_string_is_rejected(self):
        data = paper_dict()
        data["antenna_power_limit"] = "4000 dBm"  # 1e397 W: the conversion overflows
        with pytest.raises(ConfigurationError, match="antenna_power_limit: '4000 dBm' is not a finite number"):
            scenario_from_dict(data)
        data["antenna_power_limit"] = "1e999 dBm"  # float reads it as inf
        with pytest.raises(ConfigurationError, match=re.escape("antenna_power_limit_w[0]: inf")):
            scenario_from_dict(data)

    def test_bundled_scenario_hash_unchanged(self, paper_scenario):
        assert scenario_sha256(paper_scenario) == (
            "7bfbe455574c3982b066d8363cd3c656928d1114cbb22c06843ec2ffbd820600"
        )


class TestIntegerCounts:
    """Every count goes through the one integer-and-range rule, which names
    the field: a ``replace`` or a hand-built config meets it as a file does."""

    @pytest.mark.parametrize("changes, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": -1, "channel_model": "rayleigh"}, "seed must be >= 0, got -1"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"num_selected": 8.5}, "num_selected must be an integer, got 8.5"),
    ], ids=["seed-negative", "seed-negative-rayleigh", "seed-fraction", "num_selected-fraction"])
    def test_scenario_counts(self, paper_scenario, changes, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            dataclasses.replace(paper_scenario, **changes)

    @pytest.mark.parametrize("build, message", [
        (lambda: ArrayGeometry("10"), "num_antennas must be an integer, got '10'"),
        (lambda: ArrayGeometry(1), "num_antennas must be >= 2, got 1"),
        (lambda: AdmmConfig(eta=0.1, rho=50.0, k_max="5"), "k_max must be an integer, got '5'"),
        (lambda: AdmmConfig(eta=0.1, rho=50.0, parallel=1.5),
         "parallel must be an integer, got 1.5"),
    ], ids=["num_antennas-string", "num_antennas-one", "k_max-string", "parallel-fraction"])
    def test_geometry_and_solver_counts(self, build, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            build()

    def test_integral_float_antenna_count_loads_as_an_int(self):
        # the schema's "integer" admits 10.0, which once failed in range()
        data = paper_dict()
        data["array"]["num_antennas"] = 10.0
        scenario = scenario_from_dict(data)
        assert type(scenario.N) is int
        assert scenario_sha256(scenario) == scenario_sha256(scenario_from_dict(paper_dict()))

    def test_integral_float_is_kept_as_written(self):
        # checked, not converted: the hash of a file that writes 8.0 is that file's
        data = dict(paper_dict(), num_selected=8.0)
        scenario = scenario_from_dict(data)
        assert type(scenario.num_selected) is float and scenario.num_selected == 8.0
        assert scenario_to_dict(scenario)["num_selected"] == 8.0


class TestChecksBehindTheSchema:
    """``Scenario``'s own checks, which the schema pre-empts on load, so that
    only ``dataclasses.replace`` (or a hand-built ``Scenario``) reaches them."""

    @pytest.mark.parametrize("changes, message", [
        ({"user_angles_deg": (), "noise_variance": (), "sinr_target": ()},
         "at least one user is required"),
        ({"channel_model": "nakagami"},
         "channel_model must be 'los' or 'rayleigh', got 'nakagami'"),
        ({"mainlobe_threshold": 0.0}, "mainlobe_threshold must be > 0"),
        ({"stopband_threshold": -0.5}, "stopband_threshold must be > 0"),
        ({"antenna_power_limit_w": (10.0,) * 9 + (0.0,)},
         "antenna_power_limit: every entry must be > 0"),
        ({"noise_variance": (1.0, -1.0)}, "noise_variance: every entry must be > 0"),
        ({"sinr_target": (0.0, 10.0)}, "sinr_target: every entry must be > 0"),
        ({"user_angles_deg": (-45.0, 100.0)}, "angle 100.0 deg outside [-90, 90]"),
    ], ids=["no-user", "channel-model", "mainlobe-threshold", "stopband-threshold",
            "antenna-power-limit", "noise-variance", "sinr-target", "los-user-angle"])
    def test_replace_is_rejected(self, paper_scenario, changes, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            dataclasses.replace(paper_scenario, **changes)


class TestFileChecksPastTheSchema:
    """Values that match the schema's patterns but are still wrong."""

    @pytest.mark.parametrize("field, value, message", [
        ("antenna_power_limit", "1.2.3 dBm",
         "antenna_power_limit: expected watts, '<x> W', or '<x> dBm', got '1.2.3 dBm'"),
        ("sinr_target", "1.2.3 dB",
         "sinr_target: expected a linear ratio or '<x> dB', got '1.2.3 dB'"),
    ], ids=["power", "ratio"])
    def test_malformed_unit_number(self, field, value, message):
        data = dict(paper_dict(), **{field: value})
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            scenario_from_dict(data)

    @pytest.mark.parametrize("section, regions, message", [
        ("mainlobe", {"region_deg": [5, -5]}, "interval [5.0, -5.0] has hi < lo"),
        ("stopband", {"regions_deg": [[-90, -60], [-20, -30]]},
         "interval [-20.0, -30.0] has hi < lo"),
    ], ids=["mainlobe", "stopband"])
    def test_reversed_region(self, section, regions, message):
        data = paper_dict()
        data[section].update(regions)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            scenario_from_dict(data)

    @pytest.mark.parametrize("section, changes, message", [
        ("stopband", {"regions_deg": [[-90, -60], [-70, -20]]},
         "angle regions [-90.0, -60.0] and [-70.0, -20.0] overlap"),
        ("stopband", {"regions_deg": [[5, 30]]},
         "mainlobe and stopband grids share the angle 5.0 deg"),
        ("mainlobe", {"step_deg": 1e-6}, "interval [-5.0, 5.0] at step 1e-06: over 10**6 steps"),
        ("users", {"gain": 0}, "channel gain must be nonzero, got 0.0"),
    ], ids=["overlap", "shared-angle", "too-fine", "zero-gain"])
    def test_rejected_before_assembly(self, section, changes, message):
        # past the schema, each once made a Scenario that only assemble refused
        data = paper_dict()
        data[section].update(changes)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            scenario_from_dict(data)


def test_bundled_schema_meets_its_metaschema():
    # checked here once, not by every process that loads a scenario
    schema = json.loads(_data_path("scenario.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.validators.validator_for(schema)
    assert validator is jsonschema.Draft202012Validator
    validator.check_schema(schema)


class TestRoundTrip:
    def test_write_then_load_is_identity(self, paper_scenario, tmp_path):
        path = tmp_path / "scenario.json"
        write_scenario(paper_scenario, path)
        again = load_scenario(path)
        assert again == paper_scenario

    def test_hash_stable_and_sensitive(self, paper_scenario):
        import dataclasses

        h1 = scenario_sha256(paper_scenario)
        h2 = scenario_sha256(load_scenario(bundled_scenario_path()))
        assert h1 == h2
        changed = dataclasses.replace(paper_scenario, seed=paper_scenario.seed + 1)
        assert scenario_sha256(changed) != h1

    def test_dict_form_contains_linear_units(self, paper_scenario):
        d = scenario_to_dict(paper_scenario)
        assert d["sinr_target"] == [10.0, 10.0]
        assert d["antenna_power_limit"] == [10.0] * 10
