import numpy as np
import pytest
from dataclasses import replace

from sparsebeam import (
    ConfigurationError,
    InfeasibleProblemError,
    feasibility_report,
    group_norms,
    random_selection_baseline,
    rank_groups,
    refit,
    select_support,
    solve,
    tx_power,
)

from helpers import certificate_holds, random_stack


class TestRankGroups:
    def test_simple_ordering(self):
        # groups norms (3, 1, 2) -> antennas ordered (0, 2, 1)
        w = np.array([3.0, 1.0, 2.0], dtype=complex)
        assert list(rank_groups(w, 1, 3)) == [0, 2, 1]

    def test_all_equal_tie_break_ascending(self):
        w = np.ones(8, dtype=complex)
        assert list(rank_groups(w, 2, 4)) == [0, 1, 2, 3]

    def test_matches_reference_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            M, N = int(rng.integers(1, 4)), int(rng.integers(2, 9))
            w = random_stack(rng, M, N)
            norms = group_norms(w, M, N)
            reference = sorted(range(N), key=lambda n: (-norms[n], n))
            assert list(rank_groups(w, M, N)) == reference


class TestSelectSupport:
    def test_full_array(self):
        w = np.arange(6, dtype=complex)
        assert select_support(w, 3, 2, 3) == (0, 1, 2)

    def test_single_strongest(self):
        w = np.array([1.0, 5.0, 2.0], dtype=complex)
        assert select_support(w, 1, 1, 3) == (1,)

    def test_nested_supports(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            M, N = 2, 7
            w = random_stack(rng, M, N)
            for K in range(1, N):
                assert set(select_support(w, K, M, N)) <= set(
                    select_support(w, K + 1, M, N)
                )

    def test_bounds_checked(self):
        w = np.zeros(4, dtype=complex)
        with pytest.raises(ConfigurationError):
            select_support(w, 0, 2, 2)
        with pytest.raises(ConfigurationError):
            select_support(w, 3, 2, 2)


class TestRefit:
    def test_full_support_matches_direct_eta0_solve(self, paper_problem, paper_scenario):
        from sparsebeam import restore_feasibility, find_feasible_point

        support = tuple(range(paper_problem.N))
        stack = refit(paper_problem, support, paper_scenario.admm)
        cfg = replace(paper_scenario.admm, eta=0.0, rho=5.0, k_max=300)
        reduced = replace(paper_problem.restrict(support), eta=0.0)
        w_init = find_feasible_point(reduced)
        state = solve(reduced, cfg)
        w_direct, _, ok = restore_feasibility(reduced, state.w)
        assert ok
        if tx_power(w_init) < tx_power(w_direct):
            w_direct = w_init
        assert np.array_equal(stack.w, w_direct)

    def test_feasible_start_searched_once(self, paper_problem, paper_scenario, monkeypatch):
        import sparsebeam.admm
        import sparsebeam.selection

        original = sparsebeam.admm.find_feasible_point
        calls = []

        def counted(problem):
            calls.append(problem.support)
            return original(problem)

        # patch every binding, so a search from either module is counted
        monkeypatch.setattr(sparsebeam.admm, "find_feasible_point", counted)
        monkeypatch.setattr(sparsebeam.selection, "find_feasible_point", counted)
        support = (0, 2, 3, 4, 5, 6, 8, 9)
        refit(paper_problem, support, paper_scenario.admm)
        assert calls == [support]

    def test_too_few_antennas_for_users_is_infeasible(self, paper_problem, paper_scenario):
        # K=1 < M=2 with gamma=10: adding both SINR floors forces gamma < 1
        with pytest.raises(InfeasibleProblemError) as err:
            refit(paper_problem, (4,), paper_scenario.admm)
        assert "(4,)" in str(err.value)
        certificate = err.value.certificate
        assert certificate_holds(paper_problem.restrict((4,)), certificate.multipliers)

    def test_paper_k8_design_feasible_and_sparse(self, paper_problem, paper_scenario):
        state = solve(paper_problem, paper_scenario.admm)
        support = select_support(state.w, 8, paper_problem.M, paper_problem.N)
        stack = refit(paper_problem, support, paper_scenario.admm)
        report = feasibility_report(stack.w, paper_problem, tol=1e-6)
        assert report.passed
        off = sorted(set(range(paper_problem.N)) - set(support))
        for n in off:
            assert np.all(stack.antenna_group(n) == 0)

    def test_k8_within_five_percent_of_full_array(self, paper_problem, paper_scenario):
        state = solve(paper_problem, paper_scenario.admm)
        support = select_support(state.w, 8, paper_problem.M, paper_problem.N)
        stack8 = refit(paper_problem, support, paper_scenario.admm)
        stack10 = refit(paper_problem, tuple(range(10)), paper_scenario.admm)
        tx8, tx10 = tx_power(stack8.w), tx_power(stack10.w)
        assert abs(tx8 - tx10) / tx10 <= 0.05


class TestRandomBaseline:
    def test_full_array_has_zero_variance(self, paper_problem, paper_scenario):
        base = random_selection_baseline(
            paper_problem, paper_problem.N, 3, paper_scenario.seed, paper_scenario.admm
        )
        assert base.infeasible_count == 0
        assert np.ptp(base.tx_powers) == 0.0
        assert np.ptp(base.msrrs) == 0.0

    def test_single_trial_reproducible(self, paper_problem, paper_scenario):
        a = random_selection_baseline(paper_problem, 8, 1, 123, paper_scenario.admm)
        b = random_selection_baseline(paper_problem, 8, 1, 123, paper_scenario.admm)
        assert a.tx_powers == b.tx_powers and a.msrrs == b.msrrs
        assert a.infeasible_count == b.infeasible_count

    def test_trials_validated(self, paper_problem, paper_scenario):
        with pytest.raises(ConfigurationError):
            random_selection_baseline(paper_problem, 8, 0, 1, paper_scenario.admm)

    def test_infeasible_draws_counted_and_excluded(self, paper_problem, paper_scenario):
        # K=2 subsets are all provably infeasible on this scenario
        base = random_selection_baseline(
            paper_problem, 2, 3, paper_scenario.seed, paper_scenario.admm
        )
        assert base.infeasible_count == base.certified_count == 3
        assert np.isnan(base.tx_power_mean) and np.isnan(base.msrr_mean)
