import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsebeam
from sparsebeam import ConfigurationError, ProjectionError, bundled_scenario_path, load_scenario
from sparsebeam.cli import cmd_sweep_k, cmd_sweep_m, main, scenario_with_users

from test_scenario import NON_FINITE_FIELDS, non_finite_id, write_with_literal


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    return meta, rows[0], rows[1:]


@pytest.fixture(scope="module")
def fast_scenario_path(tmp_path_factory):
    """The bundled scenario with a reduced iteration budget, for CLI tests."""
    with open(bundled_scenario_path(), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["admm"]["k_max"] = 40
    path = tmp_path_factory.mktemp("scenario") / "fast.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestCheckConfig:
    def test_bundled_scenario_ok(self, capsys):
        code = main(["check-config", "--scenario", bundled_scenario_path()])
        assert code == 0
        out = capsys.readouterr().out
        assert out == (
            "check-config: N=10 M=2 K=8 L=38 constraints "
            "(passband=6, stopband=20, antenna_power=10, sinr=2)\n"
        )

    def test_invalid_path_exits_one(self, capsys):
        code = main(["check-config", "--scenario", "/nonexistent/file.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        assert main(["check-config"]) == 1

    @pytest.mark.parametrize("argv, reason", [
        (["sweep-k", "--scenario", "s.json", "--k", "x"],
         "sparsebeam sweep-k: error: argument --k: invalid int value: 'x'\n"),
        (["solve"], "sparsebeam solve: error: the following arguments are required: --scenario\n"),
        (["bogus"], "sparsebeam: error: argument command: invalid choice: 'bogus'"),
    ], ids=["invalid-int", "missing-argument", "unknown-command"])
    def test_usage_error_says_why_after_the_usage(self, capsys, argv, reason):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: sparsebeam") and reason in err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        with open(bundled_scenario_path(), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["mystery"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check-config", "--scenario", str(bad)]) == 1


class TestSolve:
    @pytest.mark.parametrize("field, literal", NON_FINITE_FIELDS, ids=non_finite_id)
    def test_non_finite_number_exits_one_before_any_work(self, tmp_path, capsys, field, literal):
        path = write_with_literal(tmp_path / "bad.json", field, literal)
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 1
        assert "is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_artifacts_written(self, fast_scenario_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--scenario", fast_scenario_path, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert len(report["support"]) == 8
        assert report["metrics"]["feasible"] is True
        assert report["provenance"]["scenario_sha256"]
        meta, header, rows = read_csv(out / "beampattern.csv")
        assert header == ["angle_deg", "response"]
        assert len(rows) == 361
        assert any("scenario_sha256" in m for m in meta)
        meta, header, rows = read_csv(out / "history.csv")
        assert header == ["k", "objective", "primal_residual", "dual_residual"]
        assert len(rows) == 40

    @pytest.mark.parametrize("change, verdict", [
        ({"num_selected": 4}, "refit on support"),  # every K=4 subarray is infeasible
        ({"antenna_power_limit": 0.01}, "certified infeasible"),  # so is the full array
    ])
    def test_infeasible_scenario_exits_two_with_its_evidence(self, tmp_path, capsys, change,
                                                            verdict):
        with open(bundled_scenario_path(), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(change)
        data["admm"]["k_max"] = 0
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()  # made only when a run writes
        first, *lines = capsys.readouterr().err.splitlines()
        assert first.startswith(f"error: infeasible: {verdict}")
        assert len(lines) == 5
        pattern = r"  (passband|stopband|antenna_power|sinr)\(.+\): violation (\d\.\d{3}e[+-]\d\d)"
        matches = [re.fullmatch(pattern, line) for line in lines]
        assert all(matches), lines
        violations = [float(m.group(2)) for m in matches]
        assert violations == sorted(violations, reverse=True) and violations[0] > 0
        assert first.endswith(f"max violation {matches[0].group(2)}")

    @pytest.mark.parametrize("tolerances, iterations, reason", [
        ({}, 100, "iteration budget"),  # the paper's dual residual is 0.12 at k_max=100
        ({"primal_tol": 1e3, "dual_tol": 1e3}, 1, "tolerances met"),
    ], ids=["budget", "tolerances"])
    def test_report_says_why_admm_stopped(self, tmp_path, tolerances, iterations, reason):
        with open(bundled_scenario_path(), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["admm"].update(tolerances)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
        solver = json.loads((out / "report.json").read_text(encoding="utf-8"))["solver"]
        assert solver["iterations"] == iterations
        assert solver["stop_reason"] == reason

    def test_zero_iterations_history_header_only(self, tmp_path):
        with open(bundled_scenario_path(), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data["admm"]["k_max"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "history.csv")
        assert header == ["k", "objective", "primal_residual", "dual_residual"]
        assert rows == []

    def test_entry_point_runs(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "sparsebeam", "check-config",
             "--scenario", bundled_scenario_path()],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "L=38" in out.stdout


class TestSweepK:
    def test_k_equal_n_proposed_matches_random(self, fast_scenario_path, tmp_path):
        scenario = load_scenario(fast_scenario_path)
        out = tmp_path / "sweep"
        code = cmd_sweep_k(scenario, [scenario.N], trials=2, out_dir=out)
        assert code == 0
        _, header, rows = read_csv(out / "sweep.csv")
        assert header == ["K", "method", "mean_tx_power_w", "mean_msrr", "infeasible_count"]
        proposed = [r for r in rows if r[1] == "proposed"][0]
        random_row = [r for r in rows if r[1] == "random"][0]
        assert float(proposed[2]) == pytest.approx(float(random_row[2]), rel=1e-12)
        assert float(proposed[3]) == pytest.approx(float(random_row[3]), rel=1e-12)

    def test_empty_k_list_rejected(self, fast_scenario_path):
        scenario = load_scenario(fast_scenario_path)
        with pytest.raises(ConfigurationError):
            cmd_sweep_k(scenario, [], trials=2, out_dir="unused")

    def test_trials_checked_before_any_solve(self, fast_scenario_path, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran before trials=0 was rejected")

        monkeypatch.setattr(sparsebeam.cli, "solve", no_solve)
        scenario = load_scenario(fast_scenario_path)
        out = tmp_path / "k0"
        with pytest.raises(ConfigurationError, match="trials must be >= 1, got 0"):
            cmd_sweep_k(scenario, [4], trials=0, out_dir=out)
        assert not out.exists()

    def test_parallel_width_does_not_change_bytes(self, fast_scenario_path, tmp_path):
        out1, out4 = tmp_path / "p1", tmp_path / "p4"
        assert main([
            "sweep-k", "--scenario", fast_scenario_path, "--out", str(out1),
            "--k", "8", "--trials", "3", "--parallel", "1",
        ]) == 0
        assert main([
            "sweep-k", "--scenario", fast_scenario_path, "--out", str(out4),
            "--k", "8", "--trials", "3", "--parallel", "4",
        ]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out4 / "sweep.csv").read_bytes()


class TestSweepM:
    def test_m2_matches_solve_metrics(self, fast_scenario_path, tmp_path):
        scenario = load_scenario(fast_scenario_path)
        out_m = tmp_path / "m"
        assert cmd_sweep_m(scenario, [2], out_dir=out_m) == 0
        _, _, rows = read_csv(out_m / "sweep.csv")
        out_s = tmp_path / "s"
        assert main(["solve", "--scenario", fast_scenario_path, "--out", str(out_s)]) == 0
        report = json.loads((out_s / "report.json").read_text(encoding="utf-8"))
        assert float(rows[0][2]) == pytest.approx(report["metrics"]["tx_power_w"], rel=1e-9)
        assert float(rows[0][3]) == pytest.approx(report["metrics"]["msrr"], rel=1e-9)

    def test_every_m_checked_before_any_solve(self, fast_scenario_path, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran before M=0 was rejected")

        monkeypatch.setattr(sparsebeam.cli, "solve", no_solve)
        scenario = load_scenario(fast_scenario_path)
        with pytest.raises(ConfigurationError, match="M=0"):
            cmd_sweep_m(scenario, [2, 0], out_dir=tmp_path / "m20")

    def test_single_user_runs(self, fast_scenario_path, tmp_path):
        scenario = load_scenario(fast_scenario_path)
        out = tmp_path / "m1"
        assert cmd_sweep_m(scenario, [1], out_dir=out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        assert rows[0][0] == "1" and rows[0][4] == "0"

    def test_user_regeneration_rules(self, fast_scenario_path):
        scenario = load_scenario(fast_scenario_path)
        assert scenario_with_users(scenario, 2) is scenario
        sc3 = scenario_with_users(scenario, 3)
        assert sc3.user_angles_deg == (-45.0, 0.0, 45.0)
        assert sc3.noise_variance == (1.0, 1.0, 1.0)
        sc1 = scenario_with_users(scenario, 1)
        assert sc1.user_angles_deg == (0.0,)

    def test_m_sweep_first_build_regression(self, fast_scenario_path, tmp_path):
        # first-build record: M=2 solves at ~3.78 W; M=3's top-8 selection
        # lands on a support outside the 5/45 feasible ones; M=4 admits no
        # feasible K=8 support at all (certified by PSD relaxation), so the
        # power-vs-users trend is only observable on the feasible prefix
        scenario = load_scenario(fast_scenario_path)
        out = tmp_path / "m234"
        assert cmd_sweep_m(scenario, [2, 3, 4], out_dir=out) == 0
        _, _, rows = read_csv(out / "sweep.csv")
        assert [r[0] for r in rows] == ["2", "3", "4"]
        assert rows[0][4] == "0"
        assert float(rows[0][2]) == pytest.approx(3.777, abs=0.05)
        assert rows[1][4] == "1" and rows[1][2] == "nan"
        assert rows[2][4] == "1" and rows[2][2] == "nan"
        powers = [float(r[2]) for r in rows if r[4] == "0"]
        assert powers == sorted(powers)


@pytest.mark.parametrize("command", [
    ["sweep-k", "--k", "4", "--trials", "1"], ["sweep-m", "--m", "2"],
])
def test_failed_sweep_exits_one_and_leaves_no_directory(
    fast_scenario_path, tmp_path, monkeypatch, capsys, command
):
    def failing_solve(*args, **kwargs):
        raise ProjectionError("secular root did not converge (sinr)")

    monkeypatch.setattr(sparsebeam.cli, "solve", failing_solve)
    out = tmp_path / "sweep"
    argv = [command[0], "--scenario", fast_scenario_path, "--out", str(out), *command[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: secular root did not converge (sinr)\n"
    assert not out.exists()


class TestCsvCells:
    def test_every_numeric_cell_parses_as_a_float(self, fast_scenario_path, tmp_path):
        # numpy scalars must be written as plain numbers, not "np.float64(...)"
        scenario = load_scenario(fast_scenario_path)
        assert main(["solve", "--scenario", fast_scenario_path, "--out", str(tmp_path / "s")]) == 0
        assert cmd_sweep_k(scenario, [8], trials=2, out_dir=tmp_path / "k") == 0
        assert cmd_sweep_m(scenario, [1], out_dir=tmp_path / "m") == 0
        for path in ("s/beampattern.csv", "s/history.csv", "k/sweep.csv", "m/sweep.csv"):
            _, header, rows = read_csv(tmp_path / path)
            assert rows
            for row in rows:
                for name, cell in zip(header, row):
                    if name != "method":  # the sweeps' one text column
                        float(cell)


class TestProvenance:
    def test_parallel_width_does_not_change_report(self, fast_scenario_path, tmp_path):
        reports = []
        for width in ("1", "4"):
            out = tmp_path / f"p{width}"
            assert main([
                "solve", "--scenario", fast_scenario_path, "--out", str(out),
                "--parallel", width,
            ]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert main([
            "solve", "--scenario", fast_scenario_path, "--out", str(tmp_path / "p0"),
            "--parallel", "0",
        ]) == 1

    def test_parallel_field_does_not_change_report(self, fast_scenario_path, tmp_path):
        with open(fast_scenario_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        reports = []
        for width in (1, 4):
            data["admm"]["parallel"] = width
            path = tmp_path / f"parallel{width}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            out = tmp_path / f"q{width}"
            assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_git_commit_names_the_package_checkout(
        self, fast_scenario_path, tmp_path, monkeypatch
    ):
        package_dir = Path(sparsebeam.__file__).parent
        head = subprocess.run(
            ["git", "-C", str(package_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        expected = head.stdout.strip() if head.returncode == 0 else None
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--scenario", fast_scenario_path, "--out", "run"]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
        assert report["provenance"]["git_commit"] == expected


    def test_git_commit_asked_once_per_process(
        self, fast_scenario_path, tmp_path, monkeypatch
    ):
        import sparsebeam.cli

        calls = []
        run = subprocess.run

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        sparsebeam.cli._git_commit.cache_clear()
        monkeypatch.setattr(sparsebeam.cli.subprocess, "run", counted)
        commits = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["solve", "--scenario", fast_scenario_path, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            commits.append(report["provenance"]["git_commit"])
        assert len(calls) == 1
        assert commits[0] == commits[1]

    def test_scenario_hashed_once(self, fast_scenario_path, tmp_path, monkeypatch):
        # the report's provenance and both CSV headers carry one hash
        import sparsebeam.cli

        calls = []
        digest = sparsebeam.cli.scenario_sha256

        def counted(scenario):
            calls.append(scenario)
            return digest(scenario)

        monkeypatch.setattr(sparsebeam.cli, "scenario_sha256", counted)
        out = tmp_path / "once"
        assert main(["solve", "--scenario", fast_scenario_path, "--out", str(out)]) == 0
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        want = f"# scenario_sha256={report['provenance']['scenario_sha256']}"
        for name in ("history.csv", "beampattern.csv"):
            assert want in read_csv(out / name)[0]


class TestSeedOverride:
    def test_seed_flag_changes_provenance(self, fast_scenario_path, tmp_path):
        out = tmp_path / "s"
        assert main([
            "solve", "--scenario", fast_scenario_path, "--out", str(out),
            "--seed", "777",
        ]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["provenance"]["seed"] == 777

    def test_seed_does_not_change_the_design(self, fast_scenario_path, tmp_path):
        # on line-of-sight channels the seed only labels the artifacts: the
        # feasibility search and the refit draw no random numbers
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main([
                "solve", "--scenario", fast_scenario_path, "--out", str(out),
                "--seed", seed,
            ]) == 0
            reports.append(json.loads((out / "report.json").read_text(encoding="utf-8")))
        assert reports[0]["support"] == reports[1]["support"]
        assert reports[0]["beamformers"] == reports[1]["beamformers"]

    @pytest.mark.parametrize("command, extra", [
        ("solve", []), ("sweep-k", ["--k", "4", "--trials", "2"]), ("sweep-m", ["--m", "1"]),
    ])
    def test_negative_seed_rejected_before_any_work(
        self, fast_scenario_path, tmp_path, capsys, command, extra
    ):
        # the schema's "minimum": 0 holds for an override as for a file
        out = tmp_path / "neg"
        code = main([command, "--scenario", fast_scenario_path, "--out", str(out),
                     "--seed", "-1"] + extra)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --seed must be an integer >= 0")
        assert not out.exists()
