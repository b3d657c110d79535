import itertools
import pickle
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import sparsebeam.admm
import sparsebeam.selection
from sparsebeam import (
    AntennaPowerConstraint,
    ConfigurationError,
    InfeasibleProblemError,
    PassbandConstraint,
    ProblemInstance,
    SinrConstraint,
    StopbandConstraint,
    assemble,
    feasibility_report,
    find_feasible_point,
    group_norms,
    random_selection_baseline,
    rank_groups,
    refit,
    select_support,
    solve,
    tx_power,
)
from sparsebeam.admm import _POLISH_TOL, _SQP_OPTIONS, cyclic_projection, handoff_tol
from sparsebeam.cli import scenario_with_users
from sparsebeam.selection import embed_support

from helpers import (
    assert_same_data,
    certificate_holds,
    dense_constraint,
    random_stack,
    restrict_constraints,
    subarray,
)
from oracles import baseline_loop, refit_admm_reference, refit_from_start

PAPER_K8 = (0, 2, 3, 4, 5, 6, 8, 9)
# mirror images of each other under the scenario's symmetry
MIRROR_K8 = ((0, 1, 2, 3, 4, 5, 7, 8), (1, 2, 4, 5, 6, 7, 8, 9))
# every K=8 subarray, every 42nd K=4 and K=6 one (all infeasible), and the
# feasible K=7 ones whose stage 3 stops at a sweep without progress above the
# hand-off, so that their refit starts from the stage-4 SQP point
REGRESSION_SUPPORTS = [
    *itertools.combinations(range(10), 8),
    *list(itertools.combinations(range(10), 4))[::42],
    *list(itertools.combinations(range(10), 6))[::42],
    (0, 1, 2, 3, 5, 7, 8), (0, 1, 3, 4, 6, 7, 9), (0, 1, 3, 5, 6, 7, 8), (1, 2, 4, 6, 7, 8, 9),
]


@st.composite
def sparse_generator_problems(draw):
    """Hand-built problems of every kind whose steering vectors and channels
    have zero entries, with a support to refit on: a support may zero some
    generators, and a floor then holds nowhere."""
    M, N = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def generator():
        g = random_stack(rng, 1, N)
        g[rng.permutation(N)[: rng.integers(0, N)]] = 0.0  # at least one entry stays
        return g

    def level():
        return float(10.0 ** rng.uniform(-1.0, 1.0))

    constraints = []
    for cls in (PassbandConstraint, StopbandConstraint):
        for _ in range(draw(st.integers(0, 2))):
            constraints.append(cls(0.0, generator(), level(), M, N))
    for n in range(N if draw(st.booleans()) else 0):
        constraints.append(AntennaPowerConstraint(n, level(), M, N))
    for m in range(draw(st.integers(0, M))):
        constraints.append(SinrConstraint(m, generator(), level(), 1.0, M, N))
    support = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))
    return ProblemInstance(tuple(constraints), M, N), tuple(sorted(support))


def zeroed_floors(problem, support):
    """The rows with f_l < 0 whose dense F_l is zero on ``support``."""
    cols = [m * problem.N + n for m in range(problem.M) for n in support]
    return [
        l for l, c in enumerate(problem.constraints)
        if c.f < 0.0 and not dense_constraint(c)[0][np.ix_(cols, cols)].any()
    ]


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


class TestProposedSupport:
    """The supports that ``solve`` then ``select_support`` propose, pinned: a
    change to the ADMM start or loop must keep them."""

    def test_paper_scenario_every_k(self, paper_problem, paper_scenario):
        w = solve(paper_problem, paper_scenario.admm).w
        supports = {
            K: select_support(w, K, paper_problem.M, paper_problem.N) for K in range(4, 11)
        }
        assert supports == {
            4: (0, 3, 6, 9),
            5: (0, 3, 5, 6, 9),
            6: (0, 3, 5, 6, 8, 9),
            7: (0, 2, 3, 5, 6, 8, 9),
            8: PAPER_K8,
            9: (0, 1, 2, 3, 4, 5, 6, 8, 9),
            10: tuple(range(10)),
        }

    @pytest.mark.parametrize("channel, seed, M, want", [  # LoS M=2 is the paper scenario
        ("los", None, 1, (0, 1, 2, 3, 4, 5, 6, 9)),
        ("los", None, 3, (2, 3, 4, 5, 6, 7, 8, 9)),
        ("los", None, 4, (1, 2, 3, 4, 5, 6, 7, 8)),
        ("rayleigh", 1, 1, (0, 1, 3, 4, 6, 7, 8, 9)),
        ("rayleigh", 1, 2, (1, 3, 4, 5, 6, 7, 8, 9)),
        ("rayleigh", 2, 1, (0, 1, 2, 3, 4, 6, 7, 9)),
        ("rayleigh", 2, 2, (1, 2, 3, 4, 5, 6, 8, 9)),
        ("rayleigh", 3, 1, (0, 2, 3, 4, 5, 6, 7, 8)),
        ("rayleigh", 3, 2, (0, 1, 2, 3, 4, 5, 6, 8)),
    ], ids=lambda value: "".join(map(str, value)) if isinstance(value, tuple) else str(value))
    def test_user_counts_and_channels(self, paper_scenario, channel, seed, M, want):
        scenario = paper_scenario
        if channel == "rayleigh":
            scenario = replace(scenario, channel_model="rayleigh", seed=seed)
        scenario = scenario_with_users(scenario, M)
        problem = assemble(scenario)
        w = solve(problem, scenario.admm).w
        assert select_support(w, scenario.num_selected, problem.M, problem.N) == want


class TestRefit:
    @pytest.mark.parametrize("support", [tuple(range(10)), PAPER_K8], ids=["full", "paper"])
    def test_refit_is_one_sqp_run_from_the_hand_off_point(
        self, paper_problem, paper_scenario, support
    ):
        stack = refit(paper_problem, support, paper_scenario.admm)
        reduced = paper_problem.restrict(support)
        n = reduced.size

        def complex_w(x):
            return x[:n] + 1j * x[n:]

        def jac(x):
            A = reduced.f_actions(complex_w(x))
            return -2.0 * np.hstack([A.real, A.imag])

        start = find_feasible_point(reduced, tol=handoff_tol(reduced))
        assert 1e-8 < reduced.max_violation(start) <= handoff_tol(reduced)
        result = minimize(
            lambda x: (x @ x, 2.0 * x), np.concatenate([start.real, start.imag]),
            jac=True, method="SLSQP", options=_SQP_OPTIONS,
            constraints={"type": "ineq", "jac": jac,
                         "fun": lambda x: reduced.slacks(complex_w(x))},
        )
        w_direct, _, ok = cyclic_projection(reduced, complex_w(result.x), tol=_POLISH_TOL)[:3]
        assert ok and tx_power(w_direct) <= tx_power(start)
        want = embed_support(w_direct, support, paper_problem.M, paper_problem.N)
        assert np.array_equal(stack.w, want)

    def test_fractional_index_is_rejected_before_any_search(
        self, paper_problem, paper_scenario, monkeypatch
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("the feasibility search ran")

        monkeypatch.setattr(sparsebeam.selection, "find_feasible_point", no_search)
        with pytest.raises(ConfigurationError, match="antenna index 2.7 is not an integer"):
            refit(paper_problem, (0, 1, 2.7, 3, 4, 5, 6, 7), paper_scenario.admm)

    @pytest.mark.parametrize("support", [
        tuple(range(10)), PAPER_K8, *MIRROR_K8, (2, 3, 4, 5, 6, 7, 8, 9),
        (0, 1, 2, 3, 5, 6, 8, 9), (0, 1, 4, 5, 6, 7, 8, 9), (0, 1, 2, 3, 4, 5, 6, 8),
    ], ids=lambda support: "".join(map(str, support)))
    def test_no_worse_than_the_admm_refit(self, paper_problem, paper_scenario, support):
        stack = refit(paper_problem, support, paper_scenario.admm)
        oracle = refit_admm_reference(paper_problem, support, paper_scenario.admm)
        assert feasibility_report(stack.w, paper_problem, tol=1e-6).passed
        assert tx_power(stack.w) <= tx_power(oracle) * (1.0 + 1e-9)

    def test_reaches_the_known_optima(self, paper_problem, paper_scenario):
        # the certified minimum powers of the supports: paper 3.76546 W,
        # full array 3.65853 W, both mirror supports 4.01947 W
        def power(support):
            stack = refit(paper_problem, support, paper_scenario.admm)
            assert feasibility_report(stack.w, paper_problem, tol=1e-6).passed
            return tx_power(stack.w)

        assert power(PAPER_K8) <= 3.7656
        assert power(tuple(range(10))) <= 3.6586
        left, right = (power(support) for support in MIRROR_K8)
        assert right == pytest.approx(left, rel=1e-6)

    def test_falls_back_to_the_start(self, paper_problem, paper_scenario, monkeypatch):
        reduced = paper_problem.restrict(PAPER_K8)
        start = find_feasible_point(reduced)
        assert reduced.max_violation(10.0 * start) > 1.0
        # the hand-off point is not the start: the fallback searches on to 1e-8
        handoff = find_feasible_point(reduced, tol=handoff_tol(reduced))
        assert not np.array_equal(handoff, start)
        # an SQP run whose polish fails; the polish's own sweeps repair an SQP
        # point even at 1,000 times the start, so the failure is reported as is
        monkeypatch.setattr(sparsebeam.selection, "minimum_power",
                            lambda problem, w0: (10.0 * w0, problem.max_violation(10.0 * w0), False))
        stack = refit(paper_problem, PAPER_K8, paper_scenario.admm)
        want = embed_support(start, PAPER_K8, paper_problem.M, paper_problem.N)
        assert np.array_equal(stack.w, want)

    def test_feasible_start_searched_once(self, paper_problem, paper_scenario, monkeypatch):
        search, run_sqp = sparsebeam.admm.find_feasible_point, sparsebeam.admm.minimize
        searches, sqp_runs = [], []

        def counted_search(problem, **kwargs):
            searches.append((problem.support, kwargs.get("tol")))
            return search(problem, **kwargs)

        def counted_sqp(*args, **kwargs):
            sqp_runs.append(kwargs["method"])
            return run_sqp(*args, **kwargs)

        # patch every binding, so a search from either module is counted
        monkeypatch.setattr(sparsebeam.admm, "find_feasible_point", counted_search)
        monkeypatch.setattr(sparsebeam.selection, "find_feasible_point", counted_search)
        monkeypatch.setattr(sparsebeam.admm, "minimize", counted_sqp)
        refit(paper_problem, PAPER_K8, paper_scenario.admm)
        # one search, stopped at 1e-3 of the largest threshold, then one SQP run
        assert searches == [(PAPER_K8, pytest.approx(0.01))]
        assert sqp_runs == ["SLSQP"]

    @pytest.mark.parametrize(
        "support", REGRESSION_SUPPORTS, ids=lambda support: "".join(map(str, support))
    )
    def test_same_verdicts_and_powers_as_the_refit_from_the_start(
        self, paper_problem, paper_scenario, support
    ):
        def outcome(design):
            try:
                return tx_power(design()), None
            except InfeasibleProblemError as err:
                return None, err.certificate is not None

        power, certified = outcome(lambda: refit(paper_problem, support, paper_scenario.admm).w)
        want_power, want_certified = outcome(lambda: refit_from_start(paper_problem, support))
        assert certified == want_certified
        if want_power is None:
            assert power is None
        else:
            assert power == pytest.approx(want_power, rel=1e-9, abs=0.0)

    def test_too_few_antennas_for_users_is_infeasible(self, paper_problem, paper_scenario):
        # K=1 < M=2 with gamma=10: adding both SINR floors forces gamma < 1
        with pytest.raises(InfeasibleProblemError) as err:
            refit(paper_problem, (4,), paper_scenario.admm)
        assert "(4,)" in str(err.value)
        certificate = err.value.certificate
        assert certificate_holds(subarray(paper_problem, (4,)), certificate.multipliers)

    def test_support_zeroing_a_channel_is_certified_infeasible(self, monkeypatch):
        # the user's channel lives on antenna 0 alone: without it the SINR
        # floor reads 0 >= 1, a one-row certificate with no search behind it
        problem = ProblemInstance(
            (SinrConstraint(0, [1, 0, 0], 1, 1, 1, 3), AntennaPowerConstraint(0, 1, 1, 3)), 1, 3
        )
        searches = []
        monkeypatch.setattr(sparsebeam.admm, "certify_infeasible", searches.append)
        with pytest.raises(InfeasibleProblemError) as err:
            refit(problem, (1, 2), None)
        assert "(1, 2)" in str(err.value) and "sinr(m=0)" in str(err.value)
        assert err.value.worst_violations == [("sinr(m=0)", 1.0)]
        certificate = err.value.certificate
        assert certificate.excludes_every_point
        assert certificate.multipliers.tolist() == [1.0, 0.0]
        assert searches == []
        base = random_selection_baseline(problem, 2, 3, 0, None)
        assert base.infeasible_count == base.certified_count > 0

    def test_support_zeroing_a_steering_vector(self):
        # a passband it zeroes is a certified verdict; a stopband is vacuous
        M, N = 1, 3
        a = np.array([1.0, 0.0, 0.0])
        powers = tuple(AntennaPowerConstraint(n, 1.0, M, N) for n in range(N))
        floor = ProblemInstance((PassbandConstraint(0.0, a, 0.5, M, N),) + powers, M, N)
        with pytest.raises(InfeasibleProblemError) as err:
            refit(floor, (1, 2), None)
        assert err.value.certificate.excludes_every_point
        assert err.value.worst_violations == [("passband(theta=0 deg)", 0.5)]
        ceiling = ProblemInstance((StopbandConstraint(0.0, a, 0.5, M, N),) + powers, M, N)
        assert [kind for kind, _ in ceiling.restrict((1, 2)).row_names] == ["antenna_power"] * 2
        assert np.array_equal(refit(ceiling, (1, 2), None).w, np.zeros(M * N))

    @settings(max_examples=120, deadline=None)
    @given(sparse_generator_problems())
    def test_restrict_drops_every_row_the_support_zeroes(self, case):
        # one generator test for every kind, against the dense F_l: a row
        # zero on the support is dropped, or raises if it is a floor, and
        # every other row keeps its F_l restricted to the support
        problem, support = case
        cols = [m * problem.N + n for m in range(problem.M) for n in support]
        restricted = [dense_constraint(c)[0][np.ix_(cols, cols)] for c in problem.constraints]
        floors = zeroed_floors(problem, support)
        try:
            reduced = problem.restrict(support)
        except InfeasibleProblemError as err:
            assert np.flatnonzero(err.certificate.multipliers).tolist() == floors[:1]
            return
        assert not floors
        kept = [(c, F) for c, F in zip(problem.constraints, restricted) if F.any()]
        objects = restrict_constraints(problem.constraints, support)
        assert reduced.L == len(objects) == len(kept)
        for got, (c, F) in zip(objects, kept):
            assert type(got) is type(c) and got.f == c.f
            assert np.array_equal(dense_constraint(got)[0], F)
        assert_same_data(reduced.families, ProblemInstance(objects, problem.M, len(support)).families)

    @settings(max_examples=120, deadline=None)
    @given(sparse_generator_problems())
    def test_any_support_gets_a_design_or_a_verdict(self, case):
        problem, support = case
        floors = zeroed_floors(problem, support)
        try:
            stack = refit(problem, support, None)
        except InfeasibleProblemError as err:
            if floors:
                certificate = err.certificate
                assert certificate is not None and certificate.excludes_every_point
                assert np.flatnonzero(certificate.multipliers).tolist() == floors[:1]
            return
        assert not floors
        W = stack.w.reshape(problem.M, problem.N)
        assert np.isfinite(W).all()
        assert not W[:, sorted(set(range(problem.N)) - set(support))].any()

    def test_paper_k8_design_feasible_and_sparse(self, paper_problem, paper_scenario):
        state = solve(paper_problem, paper_scenario.admm)
        support = select_support(state.w, 8, paper_problem.M, paper_problem.N)
        stack = refit(paper_problem, support, paper_scenario.admm)
        report = feasibility_report(stack.w, paper_problem, tol=1e-6)
        assert report.passed
        off = sorted(set(range(paper_problem.N)) - set(support))
        for n in off:
            assert np.all(stack.w[n :: paper_problem.N] == 0)

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

    @pytest.mark.parametrize("K", [-1, 0, 11])
    def test_k_validated(self, paper_problem, paper_scenario, K):
        with pytest.raises(ConfigurationError, match=f"K must be in 1..10, got {K}"):
            random_selection_baseline(paper_problem, K, 1, 1, paper_scenario.admm)

    @pytest.mark.parametrize("K, trials", [(9, 15), (1, 12)])
    def test_each_support_refitted_once(self, paper_problem, paper_scenario, monkeypatch, K, trials):
        # only 10 supports of size 1 or 9 exist, so some of the draws repeat
        refit_once = sparsebeam.selection.refit
        calls = []

        def counted(problem, support, config):
            calls.append(support)
            return refit_once(problem, support, config)

        monkeypatch.setattr(sparsebeam.selection, "refit", counted)
        seed, config = paper_scenario.seed, paper_scenario.admm
        base = random_selection_baseline(paper_problem, K, trials, seed, config)
        want = baseline_loop(paper_problem, K, trials, seed, refit_once, config)
        np.testing.assert_equal(asdict(base), asdict(want))
        assert len(set(calls)) == len(calls) < trials

    def test_infeasible_draws_counted_and_excluded(self, paper_problem, paper_scenario):
        # K=2 subsets are all provably infeasible on this scenario
        base = random_selection_baseline(
            paper_problem, 2, 3, paper_scenario.seed, paper_scenario.admm
        )
        assert base.infeasible_count == base.certified_count == 3
        assert np.isnan(base.tx_power_mean) and np.isnan(base.msrr_mean)


class TestEvidenceOnRead:
    """An infeasible refit computes its ``worst_violations`` only when they
    are read, from the subarray and the point its search stopped at."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every ``ProblemInstance.worst_violations`` call, as (problem, point)."""
        calls, original = [], ProblemInstance.worst_violations

        def recording(self, w):
            calls.append((self, np.array(w)))
            return original(self, w)

        monkeypatch.setattr(ProblemInstance, "worst_violations", recording)
        return calls, original

    def test_random_baseline_computes_no_evidence(self, paper_problem, paper_scenario, recorded):
        calls, _ = recorded
        base = random_selection_baseline(paper_problem, 4, 5, paper_scenario.seed, paper_scenario.admm)
        assert base.infeasible_count == base.certified_count == 5
        assert calls == []

    @pytest.mark.parametrize("support", [(0, 1, 2, 3), (0, 2, 5, 7), (1, 3, 4, 6, 8, 9)])
    def test_evidence_read_after_the_refit_equals_the_eager_list(
        self, paper_problem, paper_scenario, recorded, support
    ):
        calls, original = recorded
        with pytest.raises(InfeasibleProblemError) as err:
            refit(paper_problem, support, paper_scenario.admm)
        assert calls == []
        evidence = err.value.worst_violations  # read after refit's except block
        assert len(calls) == 1
        reduced, point = calls[0]
        assert reduced.support == support
        assert evidence == original(paper_problem.restrict(support), point)
        # the point is the one the verdict names: its max violation leads the list
        assert f"max violation {evidence[0][1]:.3e}" in str(err.value)
        assert [(type(d), type(v)) for d, v in evidence] == [(str, float)] * 5
        assert err.value.worst_violations is evidence and len(calls) == 1

    def test_a_pickled_error_carries_the_evidence(self, paper_problem, paper_scenario):
        with pytest.raises(InfeasibleProblemError) as err:
            refit(paper_problem, (0, 1, 2, 3), paper_scenario.admm)
        copy = pickle.loads(pickle.dumps(err.value))
        assert str(copy) == str(err.value)
        assert copy.worst_violations == err.value.worst_violations
        assert copy.certificate.multipliers.tobytes() == err.value.certificate.multipliers.tobytes()

    def test_an_eager_list_is_kept_as_given(self):
        evidence = [("sinr(m=0)", 1.0)]
        err = InfeasibleProblemError("no point", evidence)
        assert err.worst_violations == evidence
        assert InfeasibleProblemError("no point").worst_violations == []
