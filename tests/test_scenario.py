import dataclasses
import json
import re

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
from sparsebeam.scenario import parse_power_watts, parse_ratio_linear, scenario_from_dict


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
