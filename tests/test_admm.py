import itertools

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from sparsebeam import (
    AdmmConfig,
    AntennaPowerConstraint,
    ArrayGeometry,
    ConfigurationError,
    InfeasibleProblemError,
    PassbandConstraint,
    ProblemInstance,
    ProjectionError,
    SinrConstraint,
    StopbandConstraint,
    WeakPenaltyWarning,
    assemble,
    check_penalty_ratio,
    feasibility_report,
    find_feasible_point,
    initialize,
    refit,
    select_support,
    solve,
    steering_vector,
    tx_power,
    update_u,
    update_v,
    update_w,
)
import sparsebeam.admm as admm_module
import sparsebeam.projections as projections_module
from sparsebeam.admm import handoff_tol
from sparsebeam.certificate import certify_infeasible, multiplier_certificate
from sparsebeam.cli import scenario_with_users
from sparsebeam.problem import BeamConstraint

from helpers import (
    assert_same_data,
    certificate_holds,
    dense_constraint,
    describe,
    paper_variants,
    project,
    random_stack,
    restrict_constraints,
    subarray,
)
from oracles import (
    certificate_record_reference,
    certify_infeasible_cold,
    cyclic_projection_loop,
    mainlobe_boost_reference,
    quad,
    response,
    sinr,
    solve_reference,
    update_v_loop,
    zero_forcing_reference,
)


def toy_problem(constraints, M, N):
    return ProblemInstance(constraints=tuple(constraints), M=M, N=N)


class TestUpdateW:
    def test_single_copy(self):
        x = np.array([2.0, 4.0], dtype=complex)
        v = x[np.newaxis, :].copy()
        u = np.zeros_like(v)
        # rho/(2 + rho) with rho = 2 gives x/2
        assert np.allclose(update_w(v, u, 2.0), x / 2.0)

    def test_zero_sum(self):
        v = np.zeros((5, 4), dtype=complex)
        u = np.zeros((5, 4), dtype=complex)
        assert np.all(update_w(v, u, 50.0) == 0)

    def test_paper_scale_factor(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((38, 20)) + 1j * rng.standard_normal((38, 20))
        u = rng.standard_normal((38, 20)) + 1j * rng.standard_normal((38, 20))
        w = update_w(v, u, 50.0)
        assert np.allclose(w, (50.0 / 1902.0) * (v + u).sum(axis=0))

    def test_normal_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            L = int(rng.integers(1, 40))
            n = int(rng.integers(1, 12))
            rho = float(rng.uniform(0.1, 80))
            v = rng.standard_normal((L, n)) + 1j * rng.standard_normal((L, n))
            u = rng.standard_normal((L, n)) + 1j * rng.standard_normal((L, n))
            w = update_w(v, u, rho)
            residual = 2.0 * w + rho * (L * w - (v + u).sum(axis=0))
            assert np.linalg.norm(residual) <= 1e-10 * (1 + np.linalg.norm(w))


class TestUpdateU:
    def test_consensus_leaves_duals(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((3, 4)) + 0j
        w = rng.standard_normal(4) + 0j
        v = np.tile(w, (3, 1))
        assert np.allclose(update_u(u, v, w), u)

    def test_difference_accumulates(self):
        u = np.zeros((1, 2), dtype=complex)
        v = np.array([[1.0, 2.0]], dtype=complex)
        w = np.array([0.5, 0.5], dtype=complex)
        assert np.allclose(update_u(u, v, w), [[0.5, 1.5]])

    def test_telescoping_sum(self):
        rng = np.random.default_rng(3)
        u = np.zeros((2, 3), dtype=complex)
        total = np.zeros((2, 3), dtype=complex)
        for _ in range(7):
            v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            u = update_u(u, v, w)
            total += v - w[np.newaxis, :]
        assert np.allclose(u, total)


class TestUpdateV:
    def test_zero_center_stays_zero_for_relaxable_constraints(self):
        M, N = 2, 2
        c = StopbandConstraint(30.0, steering_vector(ArrayGeometry(N, 0.5), 30.0), 0.5, M, N)
        problem = toy_problem([c], M, N)
        w = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        u = w[np.newaxis, :].copy()  # c_l = w - u_l = 0
        v = update_v(problem, w, u, eta=0.5, rho=1.0)
        assert np.all(v == 0)

    def test_feasible_shrunk_point_passes_through(self):
        M, N = 2, 3
        c = AntennaPowerConstraint(0, 100.0, M, N)
        problem = toy_problem([c], M, N)
        rng = np.random.default_rng(4)
        w = random_stack(rng, M, N)
        u = np.zeros((1, M * N), dtype=complex)
        v = update_v(problem, w, u, eta=0.0, rho=1.0)
        assert np.array_equal(v[0], w)  # eta=0 shrink is identity, constraint loose


class Ball:
    """||w||^2 <= radius: a constraint class outside the four kinds."""

    kind = "ball"

    def __init__(self, radius, M, N):
        self.radius, self.M, self.N = radius, M, N


class TaggedStopband(StopbandConstraint):
    """A stopband subclass: it joins the batched beam rows."""


def record_update_v(monkeypatch, run):
    """(problem, w, u, eta, rho) of every ``update_v`` call made by ``run()``."""
    calls = []
    original = admm_module.update_v

    def spy(problem, w, u, eta, rho):
        calls.append((problem, w.copy(), u.copy(), eta, rho))
        return original(problem, w, u, eta, rho)

    with monkeypatch.context() as patch:
        patch.setattr(admm_module, "update_v", spy)
        run()
    return calls


def assert_matches_loop(problem, w, u, eta, rho):
    """Batched ``update_v`` equals the per-constraint loop bit for bit, or
    both fail on the same constraint."""
    try:
        want = update_v_loop(problem, w, u, eta, rho)
    except ProjectionError as err:
        with pytest.raises(ProjectionError) as got:
            update_v(problem, w, u, eta, rho)
        index = got.value.diagnostics["constraint_index"]
        assert index == err.diagnostics["constraint_index"]
        return
    assert np.array_equal(update_v(problem, w, u, eta, rho), want)


def random_duals(rng, L, size, scale=0.3):
    return scale * (rng.standard_normal((L, size)) + 1j * rng.standard_normal((L, size)))


@st.composite
def mixed_problems(draw):
    """Every constraint kind and a subclass, thresholds over four decades, in
    shuffled order."""
    M = draw(st.integers(1, 3))
    N = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def level():
        return float(10.0 ** rng.uniform(-2.0, 2.0))

    constraints = []
    for cls in (PassbandConstraint, StopbandConstraint, TaggedStopband):
        for _ in range(draw(st.integers(0, 3))):
            constraints.append(cls(0.0, random_stack(rng, 1, N), level(), M, N))
    for n in rng.permutation(N)[: draw(st.integers(0, N))]:
        constraints.append(AntennaPowerConstraint(int(n), level(), M, N))
    for m in range(draw(st.integers(0, M))):
        h = random_stack(rng, 1, N)
        constraints.append(
            SinrConstraint(m, h, rng.uniform(0.5, 4.0), rng.uniform(0.3, 2.0), M, N)
        )
    constraints = [constraints[i] for i in rng.permutation(len(constraints))]
    problem = toy_problem(constraints, M, N)
    w = random_stack(rng, M, N, scale=draw(st.sampled_from([0.1, 1.0, 5.0])))
    u = random_duals(rng, problem.L, problem.size)
    eta = draw(st.sampled_from([0.0, 0.05, 1.0]))
    return problem, w, u, eta, draw(st.floats(0.5, 60.0))


class TestBatchedUpdateV:
    """The batched v-update against ``update_v_loop``, the per-constraint loop."""

    def test_reference_solve_iterates(self, paper_problem, paper_scenario, monkeypatch):
        calls = record_update_v(
            monkeypatch,
            lambda: solve(paper_problem, paper_scenario.admm),
        )
        assert len(calls) == 100
        for call in calls:
            assert_matches_loop(*call)

    def test_refit_iterates(self, paper_problem, paper_scenario, monkeypatch):
        # the eta = 0 run on the selected subarray, as in
        # oracles.refit_admm_reference: light penalty, longer budget
        state = solve(paper_problem, paper_scenario.admm)
        support = select_support(
            state.w, paper_scenario.num_selected, paper_problem.M, paper_problem.N
        )
        reduced = subarray(paper_problem, support)
        cfg = replace(paper_scenario.admm, eta=0.0, rho=5.0, k_max=300)
        calls = record_update_v(monkeypatch, lambda: solve(reduced, cfg))
        assert len(calls) == 300 and calls[0][0].N == paper_scenario.num_selected
        for call in calls:
            assert_matches_loop(*call)

    @settings(max_examples=150, deadline=None)
    @given(mixed_problems())
    def test_mixed_constraint_order(self, case):
        assert_matches_loop(*case)

    @settings(max_examples=50, deadline=None)
    @given(mixed_problems())
    def test_slacks_match_per_constraint(self, case):
        problem, w = case[0], case[1]
        want = np.array([c.f - quad(c, w) for c in problem.constraints])
        assert np.array_equal(problem.slacks(w), want)
        if problem.L:
            assert problem.max_violation(w) == max(max(0.0, -s) for s in want)

    @settings(max_examples=100, deadline=None)
    @given(mixed_problems())
    def test_f_actions_match_dense_matrices(self, case):
        # row for row, within 1e-12 of ||F_l|| ||w||, the scale of a rounding
        # error in F_l w
        problem, w = case[0], case[1]
        got = problem.f_actions(w)
        assert got.shape == (problem.L, problem.size)
        for l, c in enumerate(problem.constraints):
            F = dense_constraint(c)[0]
            scale = np.linalg.norm(F, 2) * np.linalg.norm(w)
            assert np.linalg.norm(got[l] - F @ w) <= 1e-12 * scale

    def test_families_route_by_kind(self):
        M, N = 2, 3
        a = steering_vector(ArrayGeometry(N, 0.5), 30.0)
        h = random_stack(np.random.default_rng(15), 1, N)
        constraints = [
            StopbandConstraint(30.0, a, 1.0, M, N),
            TaggedStopband(-30.0, a, 2.0, M, N),
            SinrConstraint(1, h, 3.0, 0.5, M, N),
            AntennaPowerConstraint(2, 1.0, M, N),
            PassbandConstraint(30.0, a, 1.0, M, N),
        ]
        beams, powers, sinrs = toy_problem(constraints, M, N).families
        assert beams.rows.tolist() == [0, 1, 4]
        assert beams.sign.ravel().tolist() == [1.0, 1.0, -1.0]
        assert beams.threshold.ravel().tolist() == [1.0, 2.0, 1.0]
        assert powers.rows.tolist() == [3] and powers.antenna.tolist() == [2]
        assert sinrs.rows.tolist() == [2] and sinrs.weights.tolist() == [[3.0, -1.0]]
        rejected = toy_problem(constraints + [Ball(1.0, M, N)], M, N)
        for run in (
            lambda: rejected.families,
            lambda: find_feasible_point(rejected),
            lambda: project(Ball(1.0, M, N), np.ones(M * N, dtype=complex)),
        ):
            with pytest.raises(ConfigurationError, match="Ball"):
                run()

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_zero_aligned_coefficients(self, eta):
        # the passband hard case: no block has a component along the steering
        # vector, so the response is injected into user block 0
        M, N = 2, 4
        a = np.array([1.0, 1.0j, 0.0, 0.0])
        passband = PassbandConstraint(0.0, a, 2.0, M, N)
        problem = toy_problem(
            [StopbandConstraint(0.0, a, 50.0, M, N), passband, passband], M, N
        )
        rng = np.random.default_rng(11)
        w = random_stack(rng, M, N)
        u = random_duals(rng, problem.L, problem.size)
        orthogonal = w.reshape(M, N).copy()
        orthogonal[:, :2] = 0.0
        u[1] = w - orthogonal.reshape(-1)  # copy 1 sees a point orthogonal to a
        u[2] = w  # copy 2 sees the zero point
        assert_matches_loop(problem, w, u, eta, 2.0)
        v = update_v(problem, w, u, eta, 2.0)
        assert response(passband, v[1]) == pytest.approx(2.0, rel=1e-12)
        assert response(passband, v[2]) == pytest.approx(2.0, rel=1e-12)
        assert np.all(v[2].reshape(M, N)[1] == 0)  # the injection goes to block 0

    @pytest.mark.parametrize("ratio", [1e-8, 1.0, 1e8])
    def test_extreme_response_to_threshold_ratios(self, paper_problem, ratio):
        # response/threshold = 1e8 puts every stopband copy far above its
        # ceiling, 1e-8 every passband copy far below its floor; at 1 every
        # copy sits on its boundary, where a rounding-level move must not
        # replace the pass-through
        rng = np.random.default_rng(12)
        w = random_stack(rng, paper_problem.M, paper_problem.N)
        u = random_duals(rng, paper_problem.L, paper_problem.size)
        constraints = [
            replace(c, threshold=response(c, w - u[l]) / ratio)
            if c.kind in ("passband", "stopband") else c
            for l, c in enumerate(paper_problem.constraints)
        ]
        scaled = replace(paper_problem, constraints=tuple(constraints))
        assert_matches_loop(scaled, w, u, 0.0, 50.0)

    @pytest.mark.parametrize("antenna", [0, 4, 9])
    def test_single_antenna_supports(self, paper_problem, antenna):
        reduced = subarray(paper_problem, (antenna,))
        rng = np.random.default_rng(13 + antenna)
        for scale in (0.1, 1.0, 10.0):
            w = random_stack(rng, reduced.M, reduced.N, scale=scale)
            u = random_duals(rng, reduced.L, reduced.size, scale=scale)
            assert_matches_loop(reduced, w, u, 0.1, 50.0)

    @pytest.mark.parametrize("beam_row, scalar_row", [(0, 1), (1, 0)])
    def test_first_failing_row_is_named(self, monkeypatch, beam_row, scalar_row):
        M, N = 1, 2
        rows = [StopbandConstraint(0.0, np.ones(N), 1.0, M, N)] * 2
        rows[scalar_row] = SinrConstraint(0, np.ones(N), 1.0, 1.0, M, N)
        kernel = projections_module._beam_row

        def failing_kernel(W, row):
            moved = kernel(W, row)
            return moved and (moved[0], moved[1], np.inf)

        def failing_project(W, row):
            raise ProjectionError("synthetic failure", {})

        monkeypatch.setattr(projections_module, "_beam_row", failing_kernel)
        monkeypatch.setattr(projections_module, "_sinr_row", failing_project)
        problem = toy_problem(rows, M, N)  # its sweep_plan reads the patched kernels
        with pytest.raises(ProjectionError) as err:
            update_v(problem, np.ones(N, dtype=complex), np.zeros((2, N), complex), 0.0, 1.0)
        assert err.value.diagnostics["constraint_index"] == 0
        assert ("synthetic" in str(err.value)) == (scalar_row == 0)

    def test_power_guard_names_its_row(self, monkeypatch):
        M, N = 2, 2
        kernel = projections_module._power_row

        def failing_kernel(W, row):
            moved = kernel(W, row)
            return moved and (moved[0], moved[1], np.nan)

        monkeypatch.setattr(projections_module, "_power_row", failing_kernel)
        problem = toy_problem(
            [StopbandConstraint(0.0, np.ones(N), 1.0, M, N), AntennaPowerConstraint(1, 1.0, M, N)],
            M, N,
        )
        with pytest.raises(ProjectionError) as err:
            # antenna 1 carries power M = 2 > 1, so its row is projected
            update_v(problem, np.ones(M * N, complex), np.zeros((2, M * N), complex), 0.0, 1.0)
        assert err.value.diagnostics["constraint_index"] == 1
        assert "l=1 (antenna_power(n=1))" in str(err.value)

    def test_one_shrink_and_only_sinr_projections(self, paper_problem, monkeypatch):
        # "project" counts the SINR rows' one-point kernel, which update_v
        # calls through ``sweep_plan`` in place of ``project``
        counts = {"project": 0, "group_shrink": 0}
        for name, module, target in (
            ("project", projections_module, "_sinr_row"),
            ("group_shrink", admm_module, "group_shrink"),
        ):
            original = getattr(module, target)

            def counted(*args, _original=original, _name=name):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, target, counted)
        problem = toy_problem(paper_problem.constraints, paper_problem.M, paper_problem.N)
        rng = np.random.default_rng(14)
        w = random_stack(rng, problem.M, problem.N)
        u = random_duals(rng, problem.L, problem.size, scale=0.1)
        update_v(problem, w, u, eta=0.1, rho=50.0)
        assert counts == {"project": paper_problem.M, "group_shrink": 1}

    def test_beam_power_and_sinr_rows_moved_on_the_reference_iterates(
        self, paper_problem, paper_scenario, monkeypatch
    ):
        # from the hand-off start, within 1e-2 of every constraint, the 100
        # iterations project 18 beam copies and no antenna-power copy, and
        # every SINR copy goes to its kernel; the feasibility search before
        # them sweeps with all three, uncounted
        counts = {"_beam_row": 0, "_power_row": 0, "_sinr_row": 0}
        in_update_v = [False]
        for name in counts:
            original = getattr(projections_module, name)

            def counted(*args, _original=original, _name=name):
                counts[_name] += in_update_v[0]
                return _original(*args)

            monkeypatch.setattr(projections_module, name, counted)
        original_update_v = admm_module.update_v

        def flagged(*args):
            in_update_v[0] = True
            try:
                return original_update_v(*args)
            finally:
                in_update_v[0] = False

        monkeypatch.setattr(admm_module, "update_v", flagged)
        problem = toy_problem(paper_problem.constraints, paper_problem.M, paper_problem.N)
        assert solve(problem, paper_scenario.admm).k == 100
        assert counts.pop("_sinr_row") == 100 * problem.M  # the counting is live
        assert counts == {"_beam_row": 18, "_power_row": 0}


def assert_sweep_matches_loop(problem):
    """``cyclic_projection`` from the feasibility search's stage-3 start returns
    the bytes of the per-constraint sweep ``cyclic_projection_loop``."""
    w0 = admm_module._mainlobe_boost(problem, admm_module._zero_forcing_start(problem))
    w, violation, converged = admm_module.cyclic_projection(problem, w0)[:3]
    w_ref, violation_ref, converged_ref = cyclic_projection_loop(problem, w0)
    assert w.tobytes() == w_ref.tobytes()
    assert (violation, converged) == (violation_ref, converged_ref)
    return converged


def assert_same_row_data(got, want):
    """Two one-row kernel data tuples hold the same bytes, field for field,
    the ``rows`` index of ``BeamRows`` and ``PowerRows`` aside."""
    assert type(got) is type(want) and len(got) == len(want)
    skip = 1 if hasattr(got, "_fields") else 0  # field 0 of both is ``rows``
    for i, (x, y) in enumerate(zip(got[skip:], want[skip:])):
        assert type(x) is type(y), i
        assert np.shape(x) == np.shape(y), i
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), i


@st.composite
def sweep_cases(draw):
    """A problem of every kind for the projection sweep and a point to start
    it from: the mixed rows (with a stopband subclass) on all antennas or on
    a subset (``restrict``), started from a random point, from zero, with no
    component along one beam row's steering vector (zero aligned
    coefficients), or with one SINR row's served block zero (its hard case)."""
    problem, w = draw(mixed_problems())[:2]
    M, N = problem.M, problem.N
    W = w.reshape(M, N)
    if N > 1 and draw(st.booleans()):
        support = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N - 1, unique=True))
        problem = subarray(problem, support)
        W = W[:, sorted(support)]
    W = W.copy()
    start = draw(st.sampled_from(["random", "zero", "aligned", "served"]))
    rows = {
        "aligned": [c for c in problem.constraints if isinstance(c, BeamConstraint)],
        "served": [c for c in problem.constraints if isinstance(c, SinrConstraint)],
    }.get(start, [None])
    c = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
    if start == "zero":
        W[:] = 0.0
    elif start == "aligned" and c is not None:
        a = c.steering
        W -= np.outer(W @ np.conj(a), a) / np.vdot(a, a).real
    elif start == "served" and c is not None:
        W[c.user] = 0.0
    return problem, W.reshape(-1)


class TestProjectionSweep:
    """The sweep of one-row kernels against the per-constraint reference."""

    @settings(max_examples=150, deadline=None)
    @given(sweep_cases())
    def test_every_kind_matches_the_loop(self, case):
        problem, w = case
        assert len(problem.sweep_plan) == problem.L
        for (kernel, row), c in zip(problem.sweep_plan, problem.constraints):
            assert_same_row_data(row, ProblemInstance((c,), c.M, c.N).sweep_plan[0][1])
        try:
            want = cyclic_projection_loop(problem, w)
        except ProjectionError as err:
            with pytest.raises(ProjectionError) as got:
                admm_module.cyclic_projection(problem, w)
            assert str(got.value) == str(err)
            return
        got = admm_module.cyclic_projection(problem, w)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        assert got[2] == want[2]

    def test_paper_problem_and_every_k8_support(self, paper_problem):
        supports = itertools.combinations(range(paper_problem.N), 8)
        problems = [paper_problem] + [subarray(paper_problem, s) for s in supports]
        converged = [assert_sweep_matches_loop(problem) for problem in problems]
        assert len(converged) == 46 and 0 < sum(converged) < 46  # stalls included

    @pytest.mark.parametrize("K", [4, 6])
    def test_sample_of_small_supports(self, paper_problem, K):
        supports = list(itertools.combinations(range(paper_problem.N), K))
        rng = np.random.default_rng(K)
        for i in rng.choice(len(supports), 6, replace=False):
            assert_sweep_matches_loop(subarray(paper_problem, supports[i]))

    def test_violation_computed_once_per_sweep(self, paper_problem, monkeypatch):
        # an infeasible K=4 subarray stalls; the sweeps return the worst
        # violation their last sweep computed instead of computing it again
        problem = paper_problem.restrict((0, 2, 3, 4))
        start = admm_module._mainlobe_boost(problem, admm_module._zero_forcing_start(problem))
        sweeps, calls = [], []
        beam_row, max_violation = projections_module._beam_row, ProblemInstance.max_violation

        def counted_beam_row(W, row):
            if row.rows == 0:  # the first row: once per sweep
                sweeps.append(None)
            return beam_row(W, row)

        def counted_max_violation(self, w):
            calls.append(None)
            return max_violation(self, w)

        monkeypatch.setattr(projections_module, "_beam_row", counted_beam_row)
        monkeypatch.setattr(ProblemInstance, "max_violation", counted_max_violation)
        for max_sweeps in (0, 3, 500):
            sweeps.clear()
            calls.clear()
            w, violation, converged = admm_module.cyclic_projection(problem, start, max_sweeps)[:3]
            assert not converged and violation == max_violation(problem, w)
            assert len(calls) == max(len(sweeps), 1) and len(sweeps) <= max_sweeps
        assert 3 < len(sweeps) < 500  # the last run stopped at a sweep without progress

    def test_multipliers_are_the_last_sweeps(self, paper_problem):
        # an infeasible K=4 subarray that stalls: the fourth value holds the
        # multipliers of the moves of the sweep that stopped, 0 for rows that
        # held, as one sweep from the point before it returns them
        problem = paper_problem.restrict((0, 2, 3, 4))
        start = admm_module._mainlobe_boost(problem, admm_module._zero_forcing_start(problem))
        assert admm_module.cyclic_projection(problem, start, max_sweeps=0)[3] == [0.0] * problem.L
        w, _, _, multipliers = admm_module.cyclic_projection(problem, start)[:4]
        n = 1
        while not np.array_equal(admm_module.cyclic_projection(problem, start, n)[0], w):
            n += 1
        before = admm_module.cyclic_projection(problem, start, n - 1)[0]
        assert admm_module.cyclic_projection(problem, before, 1)[3] == multipliers
        assert len(multipliers) == problem.L and min(multipliers) == 0.0 < max(multipliers)

    def test_first_failing_row_is_named(self, monkeypatch):
        M, N = 2, 3
        a = steering_vector(ArrayGeometry(N, 0.5), 30.0)
        problem = toy_problem(
            [AntennaPowerConstraint(0, 0.5, M, N), StopbandConstraint(30.0, a, 0.1, M, N),
             StopbandConstraint(-30.0, a, 0.1, M, N)],
            M, N,
        )
        kernel = projections_module._beam_row

        def failing_kernel(W, c):
            moved = kernel(W, c)
            return moved and (moved[0], moved[1], np.inf)

        monkeypatch.setattr(projections_module, "_beam_row", failing_kernel)
        with pytest.raises(ProjectionError) as err:
            admm_module.cyclic_projection(problem, 3.0 * np.ones(M * N, dtype=complex))
        assert "stopband(theta=30 deg)" in str(err.value)
        assert err.value.diagnostics["kind"] == "stopband"

    def test_kernel_failure_names_its_row(self, monkeypatch):
        # a kernel's own error reaches the caller with the row named and the
        # kernel's diagnostics kept
        def failing_kernel(W, row):
            raise ProjectionError("synthetic failure", {"f_lo": 1.0})

        monkeypatch.setattr(projections_module, "_sinr_row", failing_kernel)
        M, N = 1, 2
        problem = toy_problem(  # its sweep_plan reads the patched kernel
            [StopbandConstraint(0.0, np.ones(N), 1.0, M, N),
             SinrConstraint(0, np.ones(N), 1.0, 1.0, M, N)],
            M, N,
        )
        with pytest.raises(ProjectionError) as err:
            admm_module.cyclic_projection(problem, np.ones(N, dtype=complex))
        assert "constraint l=1 (sinr(m=0)): synthetic failure" in str(err.value)
        assert err.value.diagnostics == {"f_lo": 1.0, "constraint_index": 1, "kind": "sinr"}


class TestFeasiblePoint:
    def test_paper_scenario(self, paper_problem, paper_scenario):
        w0 = find_feasible_point(paper_problem)
        assert paper_problem.max_violation(w0) <= 1e-6

    def test_small_loose_problem(self):
        # one user, two antennas, loose thresholds: stages 1-2 suffice
        geom = ArrayGeometry(2, 0.5)
        M, N = 1, 2
        h = steering_vector(geom, 0.0)
        constraints = [
            PassbandConstraint(0.0, steering_vector(geom, 0.0), 0.5, M, N),
            StopbandConstraint(60.0, steering_vector(geom, 60.0), 4.0, M, N),
            AntennaPowerConstraint(0, 10.0, M, N),
            AntennaPowerConstraint(1, 10.0, M, N),
            SinrConstraint(0, h, 2.0, 1.0, M, N),
        ]
        problem = ProblemInstance(constraints=tuple(constraints), M=M, N=N)
        w0 = find_feasible_point(problem)
        assert problem.max_violation(w0) <= 1e-8

    def test_zero_forcing_start_matches_the_channel_reference(self, paper_problem):
        for problem in paper_variants(paper_problem):
            got = admm_module._zero_forcing_start(problem)
            assert got.tobytes() == zero_forcing_reference(problem).tobytes()

    def test_zero_forcing_start_of_a_hand_built_problem(self):
        # two users on orthogonal channels, no scenario: the SINR rows alone
        # define the start, at which each user's SINR is twice its target
        M, N = 2, 3
        sinrs = [
            SinrConstraint(0, np.array([1.0, 0.0, 0.0]), 1.5, 0.5, M, N),
            SinrConstraint(1, np.array([0.0, 2.0j, 0.0]), 4.0, 2.0, M, N),
        ]
        w = admm_module._zero_forcing_start(toy_problem(sinrs, M, N))
        for c in sinrs:
            assert sinr(c, w) == pytest.approx(2.0 * c.gamma, rel=1e-12)

    def test_mainlobe_boost_matches_the_constraint_loop(self, paper_problem):
        for problem in paper_variants(paper_problem):
            w = admm_module._zero_forcing_start(problem)
            got = admm_module._mainlobe_boost(problem, w)
            assert got.tobytes() == mainlobe_boost_reference(problem, w).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(mixed_problems())
    def test_mainlobe_boost_of_mixed_problems(self, case):
        problem, w = case[:2]
        for start in (w, 0.01 * w, admm_module._zero_forcing_start(problem)):
            got = admm_module._mainlobe_boost(problem, start)
            assert got.tobytes() == mainlobe_boost_reference(problem, start).tobytes()

    def test_contradictory_thresholds_reported(self):
        problem = contradictory_problem()
        with pytest.raises(InfeasibleProblemError) as err:
            find_feasible_point(problem)
        assert err.value.worst_violations
        assert any(v > 0 for _, v in err.value.worst_violations)

    def test_no_constraints_gives_zero(self):
        problem = toy_problem([], 2, 3)
        state = initialize(problem)
        assert np.all(state.w == 0)
        assert state.v.shape == (0, 6)


    def test_certified_verdict_stops_the_search(self):
        problem = contradictory_problem()
        with pytest.raises(InfeasibleProblemError) as err:
            find_feasible_point(problem)
        assert "certified infeasible" in str(err.value)
        assert certificate_holds(problem, err.value.certificate.multipliers)

    def test_uncertified_verdict_says_search_gave_up(self, paper_problem, monkeypatch):
        # with no certificate to be found, neither in a sweep nor by the LP,
        # stage 3 on an infeasible K=4 subarray sweeps on to its stall and
        # hands that point to one stage-4 SQP run, which fails too
        problem = paper_problem.restrict((0, 2, 3, 4))
        monkeypatch.setattr(admm_module, "multiplier_certificate", lambda record, multipliers: None)
        monkeypatch.setattr(admm_module, "certify_infeasible", lambda problem: None)
        sqp_starts = []
        minimum_power = admm_module.minimum_power
        monkeypatch.setattr(admm_module, "minimum_power",
                            lambda problem, w: sqp_starts.append(w) or minimum_power(problem, w))
        with pytest.raises(InfeasibleProblemError) as err:
            find_feasible_point(problem)
        assert err.value.certificate is None
        assert "search gave up after" in str(err.value)
        assert err.value.worst_violations
        assert len(sqp_starts) == 1
        start = stage_3_start(problem)
        w, _, ok = admm_module.cyclic_projection(problem, start)[:3]
        assert not ok and sqp_starts[0].tobytes() == w.tobytes()

    def test_stalled_subarray_needs_one_sqp_run(self, paper_problem, monkeypatch):
        # a feasible K=8 subarray on which the projections stall: the
        # certificate search finds nothing, and one minimum-power SQP run
        # from the stalled point lets the projections finish
        problem = paper_problem.restrict((0, 1, 2, 3, 4, 5, 6, 8))
        sweeps = count_calls(monkeypatch, "cyclic_projection", lambda result: result[:3])
        certificates = count_calls(monkeypatch, "certify_infeasible")
        sqp_runs = count_calls(monkeypatch, "minimum_power")
        w0 = find_feasible_point(problem)
        assert problem.max_violation(w0) <= 1e-6
        assert [ok for _, _, ok in sweeps] == [False, True]
        assert certificates == [None]
        assert len(sqp_runs) == 1

    def test_stage_3_stops_at_the_first_sweep_that_certifies(self, paper_problem, monkeypatch):
        # an infeasible K=6 subarray whose first two sweeps prove nothing and
        # whose third does, 17 sweeps before the sweeps would stall: stage 3
        # stops there, the LP is never asked, and the error carries that
        # sweep's certificate and the worst violations of the point at it
        problem = subarray(paper_problem, (0, 1, 2, 3, 5, 7))
        sweeps, tried, lp = [], [], []
        max_violation = ProblemInstance.max_violation
        judge = admm_module.multiplier_certificate

        def counted_max_violation(self, w):
            sweeps.append(None)  # one call per sweep
            return max_violation(self, w)

        def counted_judge(record, multipliers):
            tried.append((len(sweeps), judge(record, multipliers)))
            return tried[-1][1]

        monkeypatch.setattr(ProblemInstance, "max_violation", counted_max_violation)
        monkeypatch.setattr(admm_module, "multiplier_certificate", counted_judge)
        monkeypatch.setattr(admm_module, "certify_infeasible", lambda *args: lp.append(args))
        with pytest.raises(InfeasibleProblemError) as err:
            find_feasible_point(problem)
        monkeypatch.undo()
        n = len(sweeps)
        assert n == 3 and lp == []
        assert [k for k, _ in tried][-1] == n and all(c is None for _, c in tried[:-1])
        certificate = err.value.certificate
        assert certificate is tried[-1][1] and str(err.value).startswith("certified infeasible")
        assert certificate_holds(problem, certificate.multipliers)
        start = stage_3_start(problem)
        w, violation, _, multipliers = admm_module.cyclic_projection(problem, start, max_sweeps=n)[:4]
        assert str(err.value).endswith(f"; max violation {violation:.3e}")
        assert err.value.worst_violations == problem.worst_violations(w)
        record = problem.certificate_record
        again = judge(record, multipliers)
        assert again.multipliers.tobytes() == certificate.multipliers.tobytes()
        for k in range(1, n):
            assert judge(record, admm_module.cyclic_projection(problem, start, k)[3]) is None
        stall = admm_module.cyclic_projection(problem, start)  # tries no multipliers
        assert stall[2] is False and stall[4] is None
        assert admm_module.cyclic_projection(problem, start, n + 17)[0].tobytes() == stall[0].tobytes()
        assert admm_module.cyclic_projection(problem, start, n + 16)[0].tobytes() != stall[0].tobytes()

    def test_fruitless_certificate_leaves_the_search_unchanged(self, paper_problem, monkeypatch):
        # a feasible K=7 subarray whose fifth sweep makes no progress: the one
        # certificate, asked there, finds nothing, and the search returns the
        # bytes it returns without it
        problem = paper_problem.restrict((0, 1, 3, 4, 6, 7, 9))
        certificates = count_calls(monkeypatch, "certify_infeasible")
        w = find_feasible_point(problem)
        assert certificates == [None]
        monkeypatch.setattr(admm_module, "certify_infeasible", lambda problem: None)
        assert find_feasible_point(problem).tobytes() == w.tobytes()

    def test_fruitless_certificate_is_asked_once(self, paper_problem, monkeypatch):
        # an infeasible K=7 subarray whose sweeps stall at the 14th: the
        # multipliers of none of them pass, so the LP is asked once, after
        # the stall and without them, and its certificate ends the search
        problem = subarray(paper_problem, (0, 1, 2, 4, 5, 7, 9))
        sweeps, tried, asked = [], [], []
        max_violation = ProblemInstance.max_violation
        judge, certify = admm_module.multiplier_certificate, admm_module.certify_infeasible

        def counted_max_violation(self, w):
            sweeps.append(None)  # one call per sweep
            return max_violation(self, w)

        def counted_judge(record, multipliers):
            tried.append(judge(record, multipliers))
            return tried[-1]

        def counted_certify(*args):
            asked.append((len(sweeps), args))
            return certify(*args)

        monkeypatch.setattr(ProblemInstance, "max_violation", counted_max_violation)
        monkeypatch.setattr(admm_module, "multiplier_certificate", counted_judge)
        monkeypatch.setattr(admm_module, "certify_infeasible", counted_certify)
        sqp_runs = count_calls(monkeypatch, "minimum_power")
        with pytest.raises(InfeasibleProblemError) as err:
            find_feasible_point(problem)
        monkeypatch.undo()
        [(n, args)] = asked
        assert n == 14 and args == (problem,)
        assert len(tried) == 13 and tried == [None] * 13 and sqp_runs == []
        w, violation, ok = admm_module.cyclic_projection(problem, stage_3_start(problem))[:3]
        assert not ok and str(err.value).endswith(f"; max violation {violation:.3e}")
        assert err.value.worst_violations == problem.worst_violations(w)
        assert certificate_holds(problem, err.value.certificate.multipliers)

    def test_certificate_asked_once_when_stage_3_runs_out_of_sweeps(self, monkeypatch):
        # a stage 3 that ends unconverged with no sweep short of progress
        # (one sweep always improves on none): only the stopband moves in
        # that sweep, so s = mu*f > 0 and its multipliers are not tried, and
        # the LP is asked once, at its end
        sweeps = admm_module.cyclic_projection

        def one_sweep(problem, w, max_sweeps=500, tol=1e-8, certify=False):
            return sweeps(problem, w, max_sweeps=1, tol=tol, certify=certify)

        monkeypatch.setattr(admm_module, "cyclic_projection", one_sweep)
        tried = count_calls(monkeypatch, "multiplier_certificate")
        certificates = count_calls(monkeypatch, "certify_infeasible")
        with pytest.raises(InfeasibleProblemError) as err:
            find_feasible_point(contradictory_problem())
        assert tried == []
        assert len(certificates) == 1 and certificates[0] is err.value.certificate is not None
        assert str(err.value).startswith("certified infeasible")

    def test_stalled_search_finishes_from_the_sqp_run(self):
        # a known-feasible draw on which the projections stall; an L-BFGS
        # violation descent from the stalled point gave up at max violation 0.239
        problem, w0 = beam_problem(
            2, 2,
            passbands=[(-40.50551377691314, 8.646173540612184),
                       (28.337942677606662, 8.677071177018291)],
            stopbands=[(11.207819300477041, 17.150853293321397),
                       (-62.9887926050395, 6.932835498437345)],
            w0=[0.18905338179353307 + 1.799707382720902j, -0.5227484414807474 + 1.1441658720372287j,
                -0.41306354339189344 - 0.32542283686782436j, -2.4414673826398556 + 0.7738065867276614j],
        )
        assert problem.max_violation(w0) <= 0.0
        w = find_feasible_point(problem)
        assert problem.max_violation(w) <= 1e-8


def stage_3_start(problem):
    """The point stage 3 of the feasibility search starts from."""
    return admm_module._mainlobe_boost(problem, admm_module._zero_forcing_start(problem))


def count_calls(monkeypatch, name, keep=lambda result: result):
    """The results of every call to ``admm.<name>`` from now on, in order,
    each as ``keep`` reduces it."""
    results = []
    original = getattr(admm_module, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(keep(result))
        return result

    monkeypatch.setattr(admm_module, name, spy)
    return results


def contradictory_problem():
    # same steering direction forced above 1.0 and below ~0: no solution
    geom = ArrayGeometry(3, 0.5)
    M, N = 1, 3
    a = steering_vector(geom, 10.0)
    constraints = [
        PassbandConstraint(10.0, a, 1.0, M, N),
        StopbandConstraint(10.0, a.copy(), 1e-12, M, N),
    ]
    return toy_problem(constraints, M, N)


def beam_problem(M, N, passbands, stopbands, w0):
    """Beam constraints at (angle, threshold) pairs, with a point that meets them."""
    geom = ArrayGeometry(N, 0.5)
    constraints = [
        PassbandConstraint(theta, steering_vector(geom, theta), f, M, N) for theta, f in passbands
    ] + [
        StopbandConstraint(theta, steering_vector(geom, theta), f, M, N) for theta, f in stopbands
    ]
    return toy_problem(constraints, M, N), np.array(w0)


@st.composite
def feasible_toy_problems(draw):
    """A random constraint family built around a known feasible point w0.

    Every threshold is w0's own value loosened by a factor in [1, 2]; the
    factor 1 puts w0 exactly on the boundary.
    """
    M = draw(st.integers(1, 2))
    N = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loosen = st.floats(1.0, 2.0)
    geom = ArrayGeometry(N, 0.5)
    w0 = random_stack(rng, M, N)
    constraints = []
    for theta in rng.uniform(-90.0, 90.0, size=draw(st.integers(0, 3))):
        a = steering_vector(geom, theta)
        level = response(PassbandConstraint(theta, a, 1.0, M, N), w0)
        constraints.append(PassbandConstraint(theta, a, level / draw(loosen), M, N))
    for theta in rng.uniform(-90.0, 90.0, size=draw(st.integers(0, 3))):
        a = steering_vector(geom, theta)
        level = response(StopbandConstraint(theta, a, 1.0, M, N), w0)
        constraints.append(StopbandConstraint(theta, a, level * draw(loosen), M, N))
    for n in range(N if draw(st.booleans()) else 0):
        limit = quad(AntennaPowerConstraint(n, 1.0, M, N), w0) * draw(loosen)
        constraints.append(AntennaPowerConstraint(n, limit, M, N))
    for m in range(M if draw(st.booleans()) else 0):
        h = random_stack(rng, 1, N)
        level = sinr(SinrConstraint(m, h, 1.0, 1.0, M, N), w0)
        constraints.append(SinrConstraint(m, h, level / draw(loosen), 1.0, M, N))
    return toy_problem(constraints, M, N), w0


def crowded_toy_problem(seed):
    """Every kind, M >= 2 users: two mainlobe floors up to 10, two sidelobe
    ceilings from 0.1, antenna powers of at most 1 and SINR targets up to 10
    on a 2-4 antenna array, so that most draws are infeasible."""
    rng = np.random.default_rng(seed)
    M, N = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    geom = ArrayGeometry(N, 0.5)
    constraints = []
    for cls, span, levels in ((PassbandConstraint, 60.0, (0.0, 1.0)),
                              (StopbandConstraint, 90.0, (-1.0, 0.5))):
        for theta in rng.uniform(-span, span, size=2):
            threshold = float(10.0 ** rng.uniform(*levels))
            constraints.append(cls(theta, steering_vector(geom, theta), threshold, M, N))
    for n in range(N):
        constraints.append(AntennaPowerConstraint(n, float(10.0 ** rng.uniform(-1.0, 0.0)), M, N))
    for m in range(M):
        h = random_stack(rng, 1, N)
        constraints.append(SinrConstraint(m, h, float(10.0 ** rng.uniform(0.0, 1.0)), 1.0, M, N))
    return toy_problem(constraints, M, N)


def one_floor_kind_problem(kind, M, seed):
    """Floors of one kind only, passband or SINR rows (targets from 0.1 to 10),
    under two sidelobe ceilings and antenna powers of at most 1 on a 3-antenna
    array; some draws are infeasible and some are not."""
    rng = np.random.default_rng(seed)
    N = 3
    geom = ArrayGeometry(N, 0.5)

    def level(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    constraints = [StopbandConstraint(t, steering_vector(geom, t), level(-1.0, 0.5), M, N)
                   for t in rng.uniform(-90.0, 90.0, size=2)]
    constraints += [AntennaPowerConstraint(n, level(-1.0, 0.0), M, N) for n in range(N)]
    if kind == "passband":
        constraints += [PassbandConstraint(t, steering_vector(geom, t), level(-1.0, 1.0), M, N)
                        for t in rng.uniform(-60.0, 60.0, size=2)]
    else:
        constraints += [SinrConstraint(m, random_stack(rng, 1, N), level(-1.0, 1.0), 1.0, M, N)
                        for m in range(M)]
    return toy_problem(constraints, M, N)


def candidate_multipliers(L):
    """Multipliers to offer ``multiplier_certificate`` for L rows: all zero, one-hot,
    or entries from 0, NaN, +-inf and +-1e-300 to +-1e300."""
    entry = st.one_of(
        st.sampled_from([0.0, np.nan, np.inf, -np.inf]),
        st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
    )
    one_hot = st.integers(0, max(L - 1, 0)).map(lambda l: [float(i == l) for i in range(L)])
    return st.one_of(st.just([0.0] * L), one_hot, st.lists(entry, min_size=L, max_size=L))


def count_lp_runs(monkeypatch):
    """A list that gains one entry per HiGHS ``run`` of the certificate from now on."""
    import sparsebeam.certificate as certificate_module

    runs = []

    class Counted(certificate_module._Highs):
        def run(self):
            runs.append(1)
            return super().run()

    monkeypatch.setattr(certificate_module, "_Highs", Counted)
    return runs


class TestCertificate:
    """Lagrangian proofs of infeasibility, each re-checked densely."""

    def test_contradictory_thresholds(self):
        problem = contradictory_problem()
        certificate = certify_infeasible(problem)
        assert certificate is not None and certificate.norm_bound is None
        assert certificate_holds(problem, certificate.multipliers)

    @pytest.mark.parametrize("support", [(4,), (0, 2, 3, 4), (0, 1, 4, 6)])
    def test_paper_subarrays(self, paper_problem, support):
        # K=1 cannot serve M=2 users at gamma=10; no K=4 subarray meets the
        # sidelobe ceiling next to both user beams.  On (0, 1, 4, 6) the
        # simplex leaves a basic multiplier at -2e-15, which must not pass
        reduced = subarray(paper_problem, support)
        certificate = certify_infeasible(reduced)
        assert certificate is not None
        assert certificate.combined_f == pytest.approx(-1.0)
        assert certificate_holds(reduced, certificate.multipliers)

    @pytest.mark.parametrize("support", [None, (0, 2, 3, 4, 5, 6, 8, 9)])
    def test_never_found_for_feasible_paper_problems(self, paper_problem, support):
        problem = paper_problem if support is None else paper_problem.restrict(support)
        assert certify_infeasible(problem) is None

    @settings(max_examples=60, deadline=None)
    @given(feasible_toy_problems())
    def test_never_found_with_a_known_feasible_point(self, case):
        problem, w0 = case
        assert problem.max_violation(w0) <= 1e-9 * (1 + np.vdot(w0, w0).real)
        assert certify_infeasible(problem) is None
        assert certify_infeasible_cold(problem) is None

    def test_random_problems_of_every_kind(self):
        # the per-user blocks against the dense check, with every kind and
        # more than one user; across the certificates, every kind carries weight
        certified, kinds = 0, set()
        for seed in range(40):
            problem = crowded_toy_problem(seed)
            certificate = certify_infeasible(problem)
            if certificate is None:
                continue
            certified += 1
            lam = certificate.multipliers
            assert certificate_holds(problem, lam)
            kinds |= {problem.constraints[l].kind for l in np.flatnonzero(lam > 0.0)}
        assert certified >= 20
        assert kinds == {"passband", "stopband", "antenna_power", "sinr"}

    @pytest.mark.parametrize("K", [4, 5, 6, 7])
    def test_same_verdicts_as_the_cold_lp(self, paper_problem, K):
        # every 5th K-subarray: the warm-started LP against one cold linprog
        # call per round
        for support in list(itertools.combinations(range(paper_problem.N), K))[::5]:
            reduced = subarray(paper_problem, support)
            certificate = certify_infeasible(reduced)
            assert (certificate is None) == (certify_infeasible_cold(reduced) is None), support
            if certificate is not None:
                assert certificate_holds(reduced, certificate.multipliers), support

    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("kind", ["passband", "sinr"])
    def test_one_kind_of_floor_as_the_cold_lp(self, kind, M):
        # the first cuts are the generators of the floors' blocks: with one
        # kind of floor they come from one kind of row
        verdicts = []
        for seed in range(25):
            problem = one_floor_kind_problem(kind, M, seed)
            certificate = certify_infeasible(problem)
            verdicts.append(certificate is not None)
            assert verdicts[-1] == (certify_infeasible_cold(problem) is not None), seed
            if certificate is not None:
                assert certificate_holds(problem, certificate.multipliers), seed
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("K, budget", [(4, 520), (6, 1150)])
    def test_lp_rounds_over_every_paper_subarray(self, paper_problem, monkeypatch, K, budget):
        # a timing-free guard on the search's cost: seeded with the negative
        # blocks' generators it takes 449 (K=4) and 1,001 (K=6) LP rounds in
        # all, against 861 and 1,634 from the coordinate directions
        runs = count_lp_runs(monkeypatch)
        for support in itertools.combinations(range(paper_problem.N), K):
            assert certify_infeasible(paper_problem.restrict(support)) is not None, support
        assert len(runs) <= budget

    @settings(max_examples=80, deadline=None)
    @given(mixed_problems(), st.data())
    def test_candidate_certificates_hold(self, case, data):
        # whatever multipliers are offered, drawn or a stalled sweep's own,
        # every certificate returned is checked densely; with no positive
        # finite entry the candidate proves nothing and the LP search decides
        problem, w = case[:2]
        offers = [data.draw(candidate_multipliers(problem.L))]
        try:
            offers.append(admm_module.cyclic_projection(problem, w)[3])
        except ProjectionError:
            pass
        for multipliers in offers:
            certificate = (multiplier_certificate(problem.certificate_record, multipliers)
                           or certify_infeasible(problem))
            if certificate is not None:
                assert certificate_holds(problem, certificate.multipliers)
            if not any(0.0 < x < np.inf for x in multipliers):
                search = certify_infeasible(problem)
                assert (certificate is None) == (search is None)
                if search is not None:
                    assert np.array_equal(certificate.multipliers, search.multipliers)

    @settings(max_examples=60, deadline=None)
    @given(feasible_toy_problems(), st.data())
    def test_candidate_never_certifies_a_feasible_family(self, case, data):
        # multipliers, drawn or each stage-3 sweep's own, prove nothing about
        # a family with a known feasible point
        problem = case[0]
        record = problem.certificate_record
        multipliers = data.draw(candidate_multipliers(problem.L))
        assert multiplier_certificate(record, multipliers) is None
        w = stage_3_start(problem)
        for _ in range(50):
            try:
                w, _, ok, multipliers = admm_module.cyclic_projection(problem, w, 1)[:4]
            except ProjectionError:
                break
            assert multiplier_certificate(record, multipliers) is None
            if ok:
                break

    @pytest.mark.parametrize("K, budget", [(4, 0), (6, 120)])
    def test_refit_certifies_from_the_sweeps_multipliers(
        self, paper_problem, paper_scenario, monkeypatch, K, budget
    ):
        # a timing-free guard on the fast path: stage 3's own sweep
        # multipliers prove all 210 K=4 and 199 of the 210 K=6 paper subarrays
        # infeasible; the LP search runs 0 and 64 times, against 449 and 1,001
        # times when every refit starts it cold
        runs = count_lp_runs(monkeypatch)
        for support in itertools.combinations(range(paper_problem.N), K):
            with pytest.raises(InfeasibleProblemError) as err:
                refit(paper_problem, support, paper_scenario.admm)
            certificate = err.value.certificate
            assert certificate is not None, support
            assert certificate_holds(subarray(paper_problem, support), certificate.multipliers)
        assert len(runs) <= budget

    def test_record_holds_the_per_call_bytes(self, paper_problem):
        # the record built once per problem holds, field by field, the bytes
        # ``certify_infeasible`` built on every call: on the paper problem,
        # all 848 K>=4 subarrays and a family with no floor (w = 0 is
        # feasible), for which the record is built and no certificate found
        floorless = toy_problem(
            [StopbandConstraint(0.0, np.ones(2), 1.0, 1, 2), AntennaPowerConstraint(1, 2.0, 1, 2)], 1, 2
        )
        problems = [paper_problem, floorless] + [
            paper_problem.restrict(support)
            for K in range(4, paper_problem.N + 1)
            for support in itertools.combinations(range(paper_problem.N), K)
        ]
        assert len(problems) == 2 + 848
        for problem in problems:
            record = problem.certificate_record
            assert problem.certificate_record is record
            *want, bound = certificate_record_reference(problem)
            for got, ref in zip(record[:-1], want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
            assert record.norm_bound == bound and type(record.norm_bound) is type(bound)
        assert certify_infeasible(floorless) is None
        assert multiplier_certificate(floorless.certificate_record, [1.0, 1.0]) is None

    @pytest.mark.parametrize("K", [4, 5, 6, 7])
    def test_gate_drops_no_certificate(self, paper_problem, K):
        # each refit's stage 3 run sweep by sweep on to its stall, as if no
        # certificate stopped it: wherever the ungated multiplier test passes,
        # s = sum of mu_l f_l over the moves with mu_l > 0 is negative, so
        # the sweep's gate lets the test run, and the gated stage 3 stops at
        # the first such sweep
        for support in itertools.combinations(range(paper_problem.N), K):
            problem = paper_problem.restrict(support)
            record, tol = problem.certificate_record, handoff_tol(problem)
            f = record.f.tolist()
            w, previous, first = stage_3_start(problem), np.inf, None
            for n in range(1, 501):
                w, violation, ok, multipliers = admm_module.cyclic_projection(problem, w, 1, tol)[:4]
                if ok:
                    break
                if multiplier_certificate(record, multipliers) is not None:
                    assert sum(m * x for m, x in zip(multipliers, f) if m > 0.0) < 0.0, (support, n)
                    first = w if first is None else first
                if not violation < previous * (1.0 - 1e-3):
                    break
                previous = violation
            got = admm_module.cyclic_projection(problem, stage_3_start(problem), tol=tol, certify=True)
            assert (got[4] is None) == (first is None), support
            if first is not None:
                assert got[0].tobytes() == first.tobytes(), support

    def test_contradictory_thresholds_as_the_cold_lp(self):
        problem = contradictory_problem()
        assert certify_infeasible_cold(problem) is not None
        assert certificate_holds(problem, certify_infeasible(problem).multipliers)

    def test_rounding_level_sum_is_no_proof(self):
        # a feasible draw with no antenna-power limit on which the cutting
        # planes reach sum lambda*f < 0 only at rounding level (multipliers
        # near 1e16 once the sum is scaled to -1)
        problem, w0 = beam_problem(
            1, 2,
            passbands=[(-57.961088522139455, 0.44766850688501175),
                       (-51.07071061611053, 0.5346683361847152),
                       (73.41291023545796, 0.3516280088818093)],
            stopbands=[(-52.10244142831337, 0.525191130243456),
                       (64.18140785566496, 0.3290121696941595)],
            w0=[0.27613448693948495 + 0.6888010160971537j, 0.1626850403199335 + 0.08900791565352355j],
        )
        assert problem.max_violation(w0) <= 0.0
        assert certify_infeasible(problem) is None


def count_plans(monkeypatch):
    """The problems whose sweep plan is built from now on, in order."""
    built = []
    original = projections_module.sweep_plan

    def counted(problem):
        built.append(problem)
        return original(problem)

    monkeypatch.setattr(projections_module, "sweep_plan", counted)
    return built


class TestSweepPlan:
    """The sweep plan is built lazily, once per problem instance."""

    def test_assemble_builds_no_plan(self, paper_scenario, monkeypatch):
        built = count_plans(monkeypatch)
        problem = assemble(paper_scenario)
        assert built == [] and "sweep_plan" not in vars(problem)
        problem.families
        assert built == []

    @pytest.mark.parametrize("support", [(0, 2, 3, 4, 5, 6, 7, 9), tuple(range(8))])
    def test_one_plan_per_refit(self, paper_problem, paper_scenario, monkeypatch, support):
        # the paper support hands off to the SQP run, whose polish sweeps
        # again; 01234567 stalls, so stage 4's polish and the refit's own
        # sweep the same reduced problem too
        built = count_plans(monkeypatch)
        sweeps = []
        original = admm_module.cyclic_projection

        def counted(problem, *args, **kwargs):
            sweeps.append(problem)
            return original(problem, *args, **kwargs)

        monkeypatch.setattr(admm_module, "cyclic_projection", counted)
        refit(paper_problem, support, paper_scenario.admm)
        assert len(built) == 1 and built[0].support == support
        assert len(sweeps) >= 2 and all(problem is built[0] for problem in sweeps)


@st.composite
def subarray_cases(draw):
    """A hand-built problem, a support and a support of that subarray: a
    ``feasible_toy_problems`` or ``mixed_problems`` draw (a stopband subclass;
    antenna-power rows on every antenna, on some or on none, so that the norm
    bound may be None), its beam and SINR generators zero on some antennas
    or not."""
    problem = draw(st.one_of(feasible_toy_problems(), mixed_problems()))[0]
    M, N = problem.M, problem.N
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

        def sparse(g):
            g = g.copy()
            g[rng.permutation(N)[: rng.integers(0, N)]] = 0.0  # at least one entry stays
            return g

        problem = toy_problem([
            replace(c, steering=sparse(c.steering)) if isinstance(c, BeamConstraint)
            else replace(c, h=sparse(c.h)) if isinstance(c, SinrConstraint) else c
            for c in problem.constraints
        ], M, N)

    def support(n):
        return tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                          unique=True))))

    outer = support(N)
    return problem, outer, support(len(outer))


def names_of(constraints):
    """The reference (kind, description) of every object, in order."""
    return tuple((c.kind, describe(c)) for c in constraints)


class TestSlicedSubarrays:
    """A subarray's ``families`` are sliced from its parent's arrays, its
    ``certificate_record``, ``sweep_plan`` and ``row_names`` are derived from
    those sliced ``families``, and all of them equal the ones rebuilt from
    ``restrict_constraints``' objects."""

    @settings(max_examples=200, deadline=None)
    @given(subarray_cases())
    def test_sliced_arrays_equal_the_rebuilt_ones(self, case):
        problem, outer, inner = case
        cols = [m * problem.N + n for m in range(problem.M) for n in outer]
        zeroed = [l for l, c in enumerate(problem.constraints)
                  if not dense_constraint(c)[0][np.ix_(cols, cols)].any()]
        try:
            reduced = problem.restrict(outer)
        except InfeasibleProblemError:
            assert any(problem.constraints[l].f < 0.0 for l in zeroed)
            return
        # the dropped rows are exactly the zeroed ones, each with f > 0, and
        # the reference keeps the others
        assert reduced.constraints is None
        assert all(problem.constraints[l].f > 0.0 for l in zeroed)
        kept = [c for l, c in enumerate(problem.constraints) if l not in zeroed]
        objects = restrict_constraints(problem.constraints, outer)
        assert [(type(c), c.f) for c in objects] == [(type(c), c.f) for c in kept]
        rebuilt = ProblemInstance(objects, problem.M, len(outer))
        for name in ("families", "certificate_record", "sweep_plan", "row_names"):
            assert_same_data(getattr(reduced, name), getattr(rebuilt, name), name)
        assert reduced.L == rebuilt.L == len(objects)
        # a subarray's own support indexes the subarray
        try:
            direct = problem.restrict(tuple(outer[i] for i in inner))
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError):
                reduced.restrict(inner)
            return
        nested = reduced.restrict(inner)
        assert nested.support == inner and direct.support == tuple(outer[i] for i in inner)
        for name in ("families", "certificate_record", "sweep_plan", "row_names"):
            assert_same_data(getattr(nested, name), getattr(direct, name), name)

    @settings(max_examples=200, deadline=None)
    @given(subarray_cases())
    def test_rows_are_named_as_the_reference_names_them(self, case):
        # on the subarray and on its own subarray: every row's name, and the
        # name and kind a failing move reports (a NaN point fails the KKT
        # guard of every kind), equal those of the reference objects
        problem, outer, inner = case
        try:
            reduced = problem.restrict(outer)
            nested = reduced.restrict(inner)
        except InfeasibleProblemError:
            return
        objects = restrict_constraints(problem.constraints, outer)
        for sub, cs in ((reduced, objects), (nested, restrict_constraints(objects, inner))):
            assert sub.row_names == names_of(cs)
            nan = np.full((sub.M, sub.N), np.nan, dtype=complex)
            for l, c in enumerate(cs):
                with np.errstate(invalid="ignore"), pytest.raises(ProjectionError) as err:
                    projections_module.move(sub, l, nan)
                assert str(err.value) == f"constraint l={l} ({describe(c)}): {err.value.__cause__}"
                assert err.value.diagnostics["kind"] == c.kind
                assert err.value.diagnostics["constraint_index"] == l


class TestRefitHandOff:
    @settings(max_examples=60, deadline=None)
    @given(feasible_toy_problems())
    def test_refit_passes_the_gate_wherever_the_search_succeeds(self, case):
        problem, _ = case
        try:
            start = find_feasible_point(problem)
        except InfeasibleProblemError:
            return  # the search gave up: no start to compare with
        stack = refit(problem, range(problem.N), AdmmConfig(eta=0.0, rho=5.0))
        assert feasibility_report(stack.w, problem, tol=1e-6).passed
        # a hand-off point within 1e-8 is the start itself, which the refit
        # returns should the SQP design cost more; from a looser hand-off
        # point SLSQP may settle in another local minimum, dearer or cheaper
        handoff = find_feasible_point(problem, tol=handoff_tol(problem))
        if problem.max_violation(handoff) <= 1e-8:
            assert np.array_equal(handoff, start)
            assert tx_power(stack.w) <= tx_power(start)


class TestInitialize:
    def test_duals_zero_and_copies_equal(self, paper_problem, paper_scenario):
        state = initialize(paper_problem)
        assert np.all(state.u == 0)
        assert all(np.array_equal(state.v[l], state.w) for l in range(paper_problem.L))

    def test_infeasible_scenario_raises(self, paper_scenario):
        sc = replace(
            paper_scenario,
            mainlobe_threshold=1e6,
            antenna_power_limit_w=tuple([1e-3] * 10),
        )
        from sparsebeam import assemble

        with pytest.raises(InfeasibleProblemError):
            initialize(assemble(sc))


class TestPenaltyRatioWarning:
    def test_warns_when_weak(self):
        cfg = AdmmConfig(eta=1.0, rho=0.1, k_max=1)
        with pytest.warns(WeakPenaltyWarning):
            check_penalty_ratio(cfg, L=10)  # 0.05 < 10*0.1

    def test_paper_values_do_not_warn(self):
        import warnings as w

        cfg = AdmmConfig(eta=0.1, rho=50.0, k_max=100)
        with w.catch_warnings():
            w.simplefilter("error", WeakPenaltyWarning)
            check_penalty_ratio(cfg, L=38)  # 25 >> 0.0263


class TestSolve:
    def test_zero_iterations_returns_initial_state(self, paper_problem, paper_scenario):
        cfg = replace(paper_scenario.admm, k_max=0)
        state = solve(paper_problem, cfg)
        assert state.k == 0 and state.history == []
        # the start is the feasibility search's hand-off point, bit for bit
        tol = handoff_tol(paper_problem)
        assert np.array_equal(state.w, find_feasible_point(paper_problem, tol=tol))
        assert paper_problem.max_violation(state.w) <= tol

    def test_inactive_constraint_gives_geometric_decay(self):
        # one never-active power cap: v = c every iteration, duals vanish,
        # and w contracts by exactly rho/(2 + rho) per step
        M, N = 1, 2
        problem = toy_problem([AntennaPowerConstraint(0, 1e12, M, N)], M, N)
        cfg = AdmmConfig(eta=0.0, rho=2.0, k_max=12)
        state = solve(problem, cfg)
        # w0 = 0 for this problem (no channels, no passband), so drive it by hand
        w = np.array([1.0, 1.0j], dtype=complex)
        state.v[0] = w
        state.u[0] = 0
        norms = []
        v, u = state.v, state.u
        for _ in range(10):
            w_new = update_w(v, u, 2.0)
            v = update_v(problem, w_new, u, 0.0, 2.0)
            u = update_u(u, v, w_new)
            norms.append(np.linalg.norm(w_new))
        ratios = [norms[i + 1] / norms[i] for i in range(3, 9)]
        assert all(r == pytest.approx(0.5, rel=1e-12) for r in ratios)

    def test_paper_scenario_residual_trend(self, paper_problem, paper_scenario):
        cfg = replace(paper_scenario.admm, k_max=1000)
        state = solve(paper_problem, cfg)
        h = state.history
        # the consensus-initialized run starts AT consensus, so the primal
        # residual first grows from near zero before decaying; the tenfold
        # drop demanded of the trajectory shows up over the full horizon
        assert h[-1].primal_residual <= 0.1 * h[4].primal_residual
        assert h[-1].dual_residual <= 0.1 * h[0].dual_residual
        assert h[-1].objective < h[0].objective

    def test_parallel_determinism(self, paper_problem, paper_scenario):
        cfg1 = replace(paper_scenario.admm, k_max=12, parallel=1)
        cfg8 = replace(paper_scenario.admm, k_max=12, parallel=8)
        s1 = solve(paper_problem, cfg1)
        s8 = solve(paper_problem, cfg8)
        assert np.array_equal(s1.w, s8.w)
        assert s1.history == s8.history

    def test_early_stopping_requires_both_tolerances(self, paper_problem, paper_scenario):
        cfg = replace(paper_scenario.admm, k_max=50, primal_tol=1e3, dual_tol=1e3)
        state = solve(paper_problem, cfg)
        assert state.k == 1  # both residuals trivially below huge tolerances

    def test_projection_failure_aborts_with_context(self, paper_problem, paper_scenario, monkeypatch):
        # half the feasible point puts every passband copy below its floor, so
        # each iteration projects beam rows 0-5; from w0 itself no beam row moves
        w0 = find_feasible_point(paper_problem)
        monkeypatch.setattr(
            admm_module, "find_feasible_point", lambda problem, tol=None: 0.5 * w0
        )
        calls = {"n": 0}
        original = projections_module._beam_row

        def flaky(W, row):
            if row.rows == 0:  # the first beam row: once per iteration
                calls["n"] += 1
            moved = original(W, row)
            if calls["n"] == 2 and row.rows == 1:  # second iteration, second constraint
                return moved and (moved[0], moved[1], np.nan)
            return moved

        monkeypatch.setattr(projections_module, "_beam_row", flaky)
        problem = toy_problem(paper_problem.constraints, paper_problem.M, paper_problem.N)
        cfg = replace(paper_scenario.admm, k_max=5)
        with pytest.raises(ProjectionError) as err:
            solve(problem, cfg)
        assert "iteration 2" in str(err.value)
        assert "l=1" in str(err.value)
        assert err.value.diagnostics.get("iteration") == 2


def solve_cases(paper):
    """(scenario, config) pairs of ``TestSolveMatchesReference``."""
    rayleigh = scenario_with_users(replace(paper, channel_model="rayleigh", seed=1), 2)
    return {
        "paper": (paper, paper.admm),
        "LoS M=4": (scenario_with_users(paper, 4), paper.admm),
        "Rayleigh seed=1 M=2": (rayleigh, rayleigh.admm),
        # both residuals first fall below these near iteration 56 of 100
        "tolerances": (paper, replace(paper.admm, primal_tol=5e-4, dual_tol=0.13)),
    }


class TestSolveMatchesReference:
    """``solve`` returns the bytes of ``oracles.solve_reference``, the loop
    built on ``np.linalg.norm`` and the per-constraint ``update_v_loop``:
    w, v, u, k, the stop reason and every ``IterationRecord``, on the paper
    scenario, at M=4 and on Rayleigh channels, where many beam copies move,
    and on a run stopped early by its tolerances."""

    @pytest.mark.parametrize("case", ["paper", "LoS M=4", "Rayleigh seed=1 M=2", "tolerances"])
    def test_same_state(self, case, paper_scenario):
        scenario, config = solve_cases(paper_scenario)[case]
        problem = assemble(scenario)
        got, want = solve(problem, config), solve_reference(problem, config)
        for name in ("w", "v", "u"):
            x, y = getattr(got, name), getattr(want, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        assert (got.k, got.stop_reason) == (want.k, want.stop_reason)
        assert (got.stop_reason == "tolerances met") == (case == "tolerances")
        assert len(got.history) == got.k and 0 < got.k <= config.k_max
        for x, y in zip(got.history, want.history):
            fields = [getattr(x, f) for f in ("k", "objective", "primal_residual", "dual_residual")]
            refs = [getattr(y, f) for f in ("k", "objective", "primal_residual", "dual_residual")]
            assert [type(f) for f in fields] == [type(f) for f in refs]
            assert np.array(fields).tobytes() == np.array(refs).tobytes()


class TestAdmmConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmmConfig(eta=-1.0, rho=1.0)
        with pytest.raises(ConfigurationError):
            AdmmConfig(eta=0.0, rho=0.0)
        with pytest.raises(ConfigurationError):
            AdmmConfig(eta=0.0, rho=1.0, k_max=-1)
        with pytest.raises(ConfigurationError):
            AdmmConfig(eta=0.0, rho=1.0, primal_tol=0.0)
        with pytest.raises(ConfigurationError):
            AdmmConfig(eta=0.0, rho=1.0, parallel=0)

    def test_integral_float_k_max_runs_as_int(self, paper_problem, paper_scenario):
        cfg = AdmmConfig(eta=0.1, rho=50.0, k_max=3.0)
        assert type(cfg.k_max) is int
        state = solve(paper_problem, cfg)
        assert state.k == 3 and len(state.history) == 3
