import json

import pytest

from sparsebeam import (
    AdmmConfig,
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
