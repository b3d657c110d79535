import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from sparsebeam import (
    ArrayGeometry,
    ConfigurationError,
    beampattern,
    design_report,
    feasibility_report,
    find_feasible_point,
    msrr,
    steering_vector,
    tx_power,
)
from sparsebeam.metrics import _responses

from helpers import (
    AntennaPowerConstraint, PassbandConstraint, SinrConstraint, StopbandConstraint,
    dense_constraint, of_kind, paper_variants, problem_of, quad_form, random_stack, slack,
)
from oracles import msrr_reference, sinr, zero_forcing_reference
from test_admm import feasible_toy_problems, mixed_problems


def responses(w, geometry, angles_deg, M):
    """Transmit response at each angle, through the metrics' own helper."""
    return _responses(w, np.column_stack([steering_vector(geometry, t) for t in angles_deg]), M)


def row_angles(problem, kind):
    """The angles of the problem's passband or stopband rows."""
    beams = problem.families.beams
    return beams.angle[(beams.sign.ravel() < 0) == (kind == "passband")].tolist()


def sinr_per_user(w, sinrs):
    """Achieved SINR of every user, as ``design_report`` reports it."""
    return design_report(w, problem_of(sinrs, sinrs[0].M, sinrs[0].N)).sinr


def hand_built(*kinds, N=3):
    """A one-user problem without a scenario, holding the rows of the named
    ``kinds``: a passband row at 0 deg, a stopband row at 20 deg, a power
    row on antenna 0."""
    a = np.ones(N)
    rows = {
        "passband": PassbandConstraint(0.0, a, 1.0, 1, N),
        "stopband": StopbandConstraint(20.0, a, 1.0, 1, N),
        "antenna_power": AntennaPowerConstraint(0, 1.0, 1, N),
    }
    return problem_of([rows[k] for k in kinds], 1, N)


class TestTxPower:
    def test_zero(self):
        assert tx_power(np.zeros(4, dtype=complex)) == 0.0

    def test_block_sum(self):
        w = np.array([1.0, 0.0, 0.0, 2.0], dtype=complex)
        assert tx_power(w) == pytest.approx(5.0)

    def test_equals_stack_norm(self):
        rng = np.random.default_rng(0)
        w = random_stack(rng, 3, 5)
        assert tx_power(w) == pytest.approx(np.linalg.norm(w) ** 2, rel=1e-12)


class TestMsrr:
    def test_zero_beamformer_undefined(self, paper_problem):
        w = np.zeros(paper_problem.size, dtype=complex)
        assert np.isnan(msrr(w, paper_problem))

    def test_equal_single_angles_give_one(self, paper_scenario):
        from sparsebeam import assemble

        sc = replace(
            paper_scenario,
            mainlobe_region=(40.0, 40.0),
            stopband_regions=((-40.0, -40.0),),
        )
        problem = assemble(sc)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(problem.size) + 0j  # real stack: symmetric response
        assert msrr(w, problem) == pytest.approx(1.0, rel=1e-10)

    def test_thresholds_arithmetic(self, paper_problem):
        # if every mainlobe response sat at 10 and every stopband at 0.5,
        # the ratio would be (10*6)/(0.5*20) = 6; verify the grid counts feed
        # the definition that way by synthesizing exactly-threshold responses
        main = 10.0 * len(row_angles(paper_problem, "passband"))
        stop = 0.5 * len(row_angles(paper_problem, "stopband"))
        assert main / stop == pytest.approx(6.0)

    def test_invariant_under_global_phase_and_scaling(self, paper_problem):
        rng = np.random.default_rng(2)
        w = random_stack(rng, paper_problem.M, paper_problem.N)
        base = msrr(w, paper_problem)
        assert msrr(w * np.exp(1j * 1.234), paper_problem) == pytest.approx(
            base, rel=1e-10
        )
        c = 3.7 * np.exp(1j * 0.4)
        assert msrr(c * w, paper_problem) == pytest.approx(base, rel=1e-10)
        # the responses themselves scale by |c|^2
        geometry, mainlobe = paper_problem.scenario.geometry, row_angles(paper_problem, "passband")
        r1 = responses(w, geometry, mainlobe, paper_problem.M)
        r2 = responses(c * w, geometry, mainlobe, paper_problem.M)
        assert np.allclose(r2, abs(c) ** 2 * r1, rtol=1e-10)

    def test_beam_rows_give_the_grid_reference_bit_for_bit(self, paper_problem, paper_constraints):
        rng = np.random.default_rng(7)
        for problem, _ in paper_variants(paper_problem, paper_constraints):
            for w in (random_stack(rng, problem.M, problem.N), zero_forcing_reference(problem)):
                assert msrr(w, problem) == msrr_reference(w, problem)

    @pytest.mark.parametrize("kinds, scale, want", [
        (("stopband",), 1.0, 0.0),  # no passband row: mainlobe response 0
        (("passband",), 1.0, float("inf")),  # no stopband row
        (("antenna_power",), 1.0, float("nan")),  # neither: 0/0
        (("stopband",), 0.0, float("nan")),  # zero beamformer: 0/0
    ], ids=["no_passband", "no_stopband", "no_beam_rows", "zero_beamformer"])
    def test_a_side_without_rows_has_response_zero(self, kinds, scale, want):
        got = msrr(scale * np.ones(3, dtype=complex), hand_built(*kinds))
        assert got == want or (np.isnan(want) and np.isnan(got))


class TestBeampattern:
    def test_peak_at_steered_angle(self, paper_problem):
        a = steering_vector(paper_problem.scenario.geometry, 0.0)
        w = np.zeros(paper_problem.size, dtype=complex)
        w[: paper_problem.N] = a
        angles, pattern = beampattern(w, paper_problem)
        assert angles[np.argmax(pattern)] == pytest.approx(0.0)

    def test_real_stack_pattern_symmetric(self, paper_problem):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(paper_problem.size) + 0j
        angles, pattern = beampattern(w, paper_problem)
        assert np.allclose(pattern, pattern[::-1], rtol=1e-9, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 180.0))
    def test_grid_runs_from_minus_90_to_exactly_90(self, paper_problem, step):
        angles, pattern = beampattern(np.ones(paper_problem.size, complex), paper_problem, step)
        assert angles[0] == -90.0 and angles[-1] == 90.0 and np.all(np.diff(angles) > 0)
        assert pattern.shape == angles.shape

    def test_default_grid_and_bad_steps(self, paper_problem):
        w = np.ones(paper_problem.size, dtype=complex)
        assert beampattern(w, paper_problem)[0].tobytes() == np.arange(-90, 90.25, 0.5).tobytes()
        for step in (0.1, 0.2, 0.4, 7.0):  # where np.arange ends off 90
            assert beampattern(w, paper_problem, step)[0][-1] == 90.0
        for step in (0.0, -0.5, float("nan")):
            with pytest.raises(ConfigurationError, match="pattern step"):
                beampattern(w, paper_problem, step)
        for step in (1e-320, 1e-300):  # refused before any angle is built
            with pytest.raises(ConfigurationError, match=r"over 10\*\*6 steps"):
                beampattern(w, paper_problem, step)

    def test_matches_constraint_evaluations_on_grid(self, paper_problem, paper_constraints):
        rng = np.random.default_rng(4)
        w = random_stack(rng, paper_problem.M, paper_problem.N)
        for c in of_kind(paper_constraints, "stopband")[:5]:
            r = responses(w, paper_problem.scenario.geometry, [c.angle_deg], paper_problem.M)
            assert r[0] == pytest.approx(c.f - slack(c, w), rel=1e-12)
        for c in of_kind(paper_constraints, "passband")[:3]:
            r = responses(w, paper_problem.scenario.geometry, [c.angle_deg], paper_problem.M)
            assert r[0] == pytest.approx(slack(c, w) - c.f, rel=1e-12)


class TestSinrPerUser:
    def test_single_user_snr(self):
        geom = ArrayGeometry(4, 0.5)
        h = steering_vector(geom, 10.0)
        ch = (SinrConstraint(0, h, 1.0, 0.5, 1, 4),)
        w = 0.3 * h  # matched beam
        got = sinr_per_user(w, ch)
        assert got[0] == pytest.approx(abs(np.vdot(h, w)) ** 2 / 0.5, rel=1e-12)

    def test_orthogonal_beams_no_interference(self):
        h = np.array([1.0, 0.0], dtype=complex)
        ch = (SinrConstraint(0, h, 1.0, 1.0, 2, 2),
              SinrConstraint(1, np.array([0.0, 1.0]), 1.0, 1.0, 2, 2))
        w = np.array([2.0, 0.0, 0.0, 3.0], dtype=complex)  # block m along user m
        got = sinr_per_user(w, ch)
        assert got[0] == pytest.approx(4.0)
        assert got[1] == pytest.approx(9.0)

    def test_consistent_with_quadratic_form(self, paper_problem, paper_constraints):
        rng = np.random.default_rng(5)
        w = random_stack(rng, paper_problem.M, paper_problem.N)
        got = sinr_per_user(w, of_kind(paper_constraints, "sinr"))
        for c in of_kind(paper_constraints, "sinr"):
            # quad form slack sign agrees with the ratio within rounding
            satisfied = got[c.user] >= c.gamma
            assert satisfied == (slack(c, w) >= 0) or abs(slack(c, w)) < 1e-9


class TestFeasibilityReport:
    def test_feasible_point_passes(self, paper_problem):
        w0 = find_feasible_point(paper_problem)
        report = feasibility_report(w0, paper_problem)
        assert report.passed
        assert np.all(paper_problem.slacks(w0) >= -1e-6)

    def test_zero_stack_violates_only_floors(self, paper_problem):
        w = np.zeros(paper_problem.size, dtype=complex)
        report = feasibility_report(w, paper_problem)
        assert not report.passed
        assert report.max_violation_by_kind["passband"] > 0
        assert report.max_violation_by_kind["sinr"] > 0
        assert report.max_violation_by_kind["stopband"] == 0.0
        assert report.max_violation_by_kind["antenna_power"] == 0.0

    def test_nan_design_violates_every_kind_infinitely(self, paper_problem):
        report = feasibility_report(np.full(paper_problem.size, np.nan, complex), paper_problem)
        assert report.max_violation_by_kind == dict.fromkeys(
            ("passband", "stopband", "antenna_power", "sinr"), float("inf")
        )
        assert not report.passed

    def test_slacks_match_dense_oracle(self, paper_problem, paper_constraints):
        rng = np.random.default_rng(6)
        w = random_stack(rng, paper_problem.M, paper_problem.N)
        slacks = paper_problem.slacks(w)
        for l, c in enumerate(paper_constraints):
            dense = c.f - quad_form(dense_constraint(c)[0], w)
            assert slacks[l] == pytest.approx(dense, rel=1e-10, abs=1e-10)
        report = feasibility_report(w, paper_problem)
        assert report.violations.tobytes() == np.fmax(0.0, -slacks).tobytes()


class TestDesignReport:
    def test_bundle_consistency(self, paper_problem):
        w0 = find_feasible_point(paper_problem)
        report = design_report(w0, paper_problem)
        assert report.tx_power_w == pytest.approx(tx_power(w0))
        assert report.tx_power_w == pytest.approx(report.antenna_power_w.sum(), rel=1e-10)
        assert report.feasible
        assert np.isfinite(report.msrr_db)
        assert len(report.pattern_angles_deg) == len(report.pattern_response) == 361

    @pytest.mark.parametrize("outer, inner", [
        ((0, 2, 3, 4, 5, 6, 8, 9), None),  # the paper's K=8 support
        ((0, 2, 3, 4, 5, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5, 7, 8)),  # the same, nested
    ])
    def test_subarray_has_an_empty_pattern(self, paper_problem, outer, inner):
        # a subarray's scenario holds the full array, which no support of a
        # nested subarray indexes
        problem = paper_problem.restrict(outer)
        if inner is not None:
            problem = problem.restrict(inner)
        w = find_feasible_point(problem)
        report = design_report(w, problem)
        assert report.pattern_angles_deg.size == report.pattern_response.size == 0
        assert report.tx_power_w == tx_power(w)
        assert report.feasible == (problem.max_violation(w) <= 1e-6)
        assert report.feasible

    def test_problem_without_scenario_has_an_empty_pattern(self):
        problem = hand_built("passband", "stopband", "antenna_power")
        w = np.array([0.5, 0.5, 0.0], dtype=complex)
        report = design_report(w, problem)
        assert report.pattern_angles_deg.size == report.pattern_response.size == 0
        assert report.feasible
        assert report.msrr == pytest.approx(1.0)  # one steering vector on both sides

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(mixed_problems(), feasible_toy_problems()))
    def test_any_hand_built_problem_reports_each_sinr_row(self, case):
        problem, w, constraints = case[0], case[1], case[-1]
        report = design_report(w, problem)
        want = [sinr(c, w) for c in constraints if isinstance(c, SinrConstraint)]
        assert report.sinr.tobytes() == np.array(want, dtype=float).tobytes()
