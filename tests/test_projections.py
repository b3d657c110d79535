import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsebeam import (
    AntennaPowerConstraint,
    ArrayGeometry,
    PassbandConstraint,
    ProblemInstance,
    ProjectionError,
    SinrConstraint,
    StopbandConstraint,
    steering_vector,
)
from sparsebeam.problem import beam_rows
import sparsebeam.projections as projections_module
from sparsebeam.projections import EPS, _beam_point

from helpers import dense_constraint, project, quad_form, random_stack, slack
import oracles
from oracles import (
    penalty_oracle, project_generic, project_powers, project_sinr_reference, quad, response,
)


def steering(N, theta=17.0):
    return steering_vector(ArrayGeometry(N, 0.5), theta)


def random_constraint(kind, rng, M, N):
    if kind == "antenna_power":
        return AntennaPowerConstraint(
            int(rng.integers(0, N)), float(rng.uniform(0.1, 1.0)), M, N
        )
    if kind == "stopband":
        return StopbandConstraint(
            25.0, steering(N, 25.0), float(rng.uniform(0.1, 1.0)), M, N
        )
    if kind == "passband":
        return PassbandConstraint(
            3.0, steering(N, 3.0), float(rng.uniform(2.0, 12.0)), M, N
        )
    h = random_stack(rng, 1, N)
    return SinrConstraint(
        int(rng.integers(0, M)), h, float(rng.uniform(0.5, 8.0)),
        float(rng.uniform(0.3, 2.0)), M, N,
    )


def assert_kkt(constraint, vbar, result, tol=1e-8):
    F = dense_constraint(constraint)[0]
    v, mu = result.v, result.multiplier
    stationarity = np.linalg.norm((v - vbar) + mu * (F @ v))
    assert stationarity <= tol * (1.0 + np.linalg.norm(vbar))
    quad = quad_form(F, v)
    assert quad <= constraint.f + tol
    assert mu * abs(quad - constraint.f) <= tol
    assert result.active == (mu > 0)


class TestDispatchFeasible:
    @pytest.mark.parametrize("kind", ["antenna_power", "stopband", "passband", "sinr"])
    def test_feasible_input_returned_unchanged(self, kind, rng=None):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        M, N = 2, 3
        for _ in range(50):
            c = random_constraint(kind, rng, M, N)
            vbar = random_stack(rng, M, N)
            if quad(c, vbar) > c.f:
                continue
            res = project(c, vbar)
            assert np.array_equal(res.v, vbar)
            assert res.multiplier == 0.0 and not res.active


class TestAntennaPower:
    def test_radial_projection_example(self):
        c = AntennaPowerConstraint(0, 1.0, M=2, N=2)
        vbar = np.array([3.0, 9.0, 4.0, -2.0], dtype=complex)  # group 0 = (3, 4)
        res = project(c, vbar)
        assert np.allclose(res.v[0::2], [0.6, 0.8])
        # entries outside the constrained group are bit-identical
        assert res.v[1] == vbar[1] and res.v[3] == vbar[3]

    def test_zero_group(self):
        g, mu = project(AntennaPowerConstraint(0, 0.5, 3, 1), np.zeros(3, dtype=complex))[:2]
        assert np.all(g == 0) and mu == 0.0

    def test_boundary_group_unchanged(self):
        g = np.array([1.0, 1.0], dtype=complex)
        out, mu = project(AntennaPowerConstraint(0, 2.0, 2, 1), g)[:2]
        assert np.array_equal(out, g) and mu == 0.0

    def test_kkt_residual_tiny(self):
        rng = np.random.default_rng(1)
        M, N = 3, 4
        for _ in range(100):
            c = AntennaPowerConstraint(
                int(rng.integers(0, N)), float(rng.uniform(0.05, 0.8)), M, N
            )
            vbar = random_stack(rng, M, N)
            res = project(c, vbar)
            assert res.kkt_residual <= 1e-12 * (1.0 + np.linalg.norm(vbar))
            assert_kkt(c, vbar, res, tol=1e-10)


class TestStopband:
    def test_single_user_scalar_case(self):
        N = 4
        a = steering(N, 40.0)
        norm_a = np.linalg.norm(a)
        eps = 0.3
        vbar = (2.0 * a / norm_a**2 * norm_a).astype(complex)  # aligned, response 4
        v, mu = project(StopbandConstraint(0.0, a, eps, 1, N), vbar)[:2]
        # response after projection is exactly eps
        assert abs(np.vdot(a, v)) ** 2 == pytest.approx(eps, rel=1e-10)
        # coefficient magnitude sqrt(eps)/||a||
        assert abs(np.vdot(a / norm_a, v)) == pytest.approx(
            np.sqrt(eps) / norm_a, rel=1e-10
        )
        assert mu > 0
        # extreme response-to-ceiling ratios: below 1 the input is kept; above,
        # a^H v cancels entries sqrt(ratio) times larger than itself, so
        # rounding alone reaches about eps*sqrt(ratio)
        c = StopbandConstraint(40.0, a, eps, 1, N)
        for ratio in (1e8, 1e-8):
            scaled = vbar * np.sqrt(ratio * eps / response(c, vbar))
            res = project(c, scaled)
            if ratio < 1.0:
                assert np.array_equal(res.v, scaled) and not res.active
                continue
            rel_tol = 64.0 * np.finfo(float).eps * np.sqrt(ratio)
            assert response(c, res.v) == pytest.approx(eps, rel=rel_tol)
            assert res.kkt_residual <= 1e-6 * (1.0 + np.linalg.norm(scaled))
            assert_kkt(c, scaled, res)

    def test_orthogonal_residual_preserved(self):
        rng = np.random.default_rng(2)
        M, N = 2, 4
        a = steering(N, -61.0)
        ahat = a / np.linalg.norm(a)
        c = StopbandConstraint(-61.0, a, 0.2, M, N)
        vbar = random_stack(rng, M, N)
        res = project(c, vbar)
        for m in range(M):
            before = vbar[m * N : (m + 1) * N]
            after = res.v[m * N : (m + 1) * N]
            r_before = before - np.vdot(ahat, before) * ahat
            r_after = after - np.vdot(ahat, after) * ahat
            assert np.allclose(r_after, r_before, atol=5e-15 * (1 + np.linalg.norm(vbar)))

    def test_against_penalty_oracle(self):
        rng = np.random.default_rng(3)
        M, N = 2, 3
        for i in range(25):
            c = random_constraint("stopband", rng, M, N)
            vbar = random_stack(rng, M, N)
            if quad(c, vbar) <= c.f:
                vbar *= 4.0 / np.sqrt(c.f)
            if quad(c, vbar) <= c.f:
                continue
            res = project(c, vbar)
            ref = penalty_oracle(dense_constraint(c)[0], c.f, vbar, seed=i)
            own = np.linalg.norm(res.v - vbar) ** 2
            assert own <= np.linalg.norm(ref - vbar) ** 2 + 1e-6
            assert_kkt(c, vbar, res)


class TestPassband:
    def test_degenerate_injection_example(self):
        # ||a|| = 2, eps_p = 4: block 0 gains a * 0.5, cost 1
        a = np.array([2.0], dtype=complex)
        M, N = 2, 1
        vbar = np.zeros(2, dtype=complex)
        v, mu = project(PassbandConstraint(0.0, a, 4.0, M, N), vbar)[:2]
        assert np.allclose(v, [1.0, 0.0])  # a*0.5 = 1.0 in block 0
        assert np.linalg.norm(v - vbar) ** 2 == pytest.approx(1.0)
        assert mu == pytest.approx(0.25)  # 1/||a||^2

    def test_amplification_reaches_floor_exactly(self):
        rng = np.random.default_rng(4)
        M, N = 2, 4
        c = random_constraint("passband", rng, M, N)
        vbar = 0.1 * random_stack(rng, M, N)
        res = project(c, vbar)
        assert response(c, res.v) == pytest.approx(c.threshold, rel=1e-9)
        # extreme response-to-floor ratios: above 1 the input is kept
        for ratio in (1e-8, 1e8):
            scaled = vbar * np.sqrt(ratio * c.threshold / response(c, vbar))
            res = project(c, scaled)
            if ratio > 1.0:
                assert np.array_equal(res.v, scaled) and not res.active
                continue
            assert response(c, res.v) == pytest.approx(c.threshold, rel=1e-12)
            assert res.kkt_residual <= 1e-6 * (1.0 + np.linalg.norm(scaled))
            assert_kkt(c, scaled, res)

    def test_against_penalty_oracle(self):
        rng = np.random.default_rng(5)
        M, N = 2, 3
        for i in range(25):
            c = random_constraint("passband", rng, M, N)
            vbar = 0.3 * random_stack(rng, M, N)
            if quad(c, vbar) <= c.f:
                continue
            res = project(c, vbar)
            ref = penalty_oracle(dense_constraint(c)[0], c.f, vbar, seed=i)
            own = np.linalg.norm(res.v - vbar) ** 2
            assert own <= np.linalg.norm(ref - vbar) ** 2 + 1e-6
            assert_kkt(c, vbar, res)


class TestSinr:
    def test_single_user_pure_amplification(self):
        # ||h|| = 1, zbar = 1, gamma*sigma^2 = 4 -> zhat = 2
        h = np.array([1.0], dtype=complex)
        vbar = np.array([1.0], dtype=complex)
        v, mu = project(SinrConstraint(0, h, 4.0, 1.0, 1, 1), vbar)[:2]
        assert np.allclose(v, [2.0])
        assert 0 < mu < 1

    def test_interference_shrinks_and_signal_grows(self):
        rng = np.random.default_rng(6)
        M, N = 3, 4
        h = random_stack(rng, 1, N)
        c = SinrConstraint(1, h, 5.0, 1.0, M, N)
        vbar = 0.2 * random_stack(rng, M, N)
        res = project(c, vbar)
        assert abs(slack(c, res.v)) <= 1e-8
        hhat = h / np.linalg.norm(h)
        for j in range(M):
            zb = np.vdot(hhat, vbar[j * N : (j + 1) * N])
            za = np.vdot(hhat, res.v[j * N : (j + 1) * N])
            if j == 1:
                assert abs(za) >= abs(zb)
            else:
                assert abs(za) <= abs(zb) + 1e-12

    def test_degenerate_served_block(self):
        # served block orthogonal to the channel: mass must be injected
        h = np.array([1.0, 0.0], dtype=complex)
        M, N = 2, 2
        vbar = np.zeros(4, dtype=complex)
        vbar[1] = 3.0  # served block 0 orthogonal to h
        vbar[2] = 1.0  # interfering block along h
        gamma, sigma2 = 2.0, 1.0
        v, mu = project(SinrConstraint(0, h, gamma, sigma2, M, N), vbar)[:2]
        c = SinrConstraint(0, h, gamma, sigma2, M, N)
        assert abs(slack(c, v)) <= 1e-9
        assert mu == pytest.approx(1.0)  # 1/||h||^2
        assert v[1] == vbar[1]  # orthogonal part untouched
        # optimal against the penalty oracle
        ref = penalty_oracle(dense_constraint(c)[0], c.f, vbar, seed=0)
        assert np.linalg.norm(v - vbar) ** 2 <= np.linalg.norm(ref - vbar) ** 2 + 1e-6

    def test_against_penalty_oracle(self):
        rng = np.random.default_rng(7)
        M, N = 2, 3
        for i in range(25):
            c = random_constraint("sinr", rng, M, N)
            vbar = 0.3 * random_stack(rng, M, N)
            if quad(c, vbar) <= c.f:
                continue
            res = project(c, vbar)
            ref = penalty_oracle(dense_constraint(c)[0], c.f, vbar, seed=i)
            own = np.linalg.norm(res.v - vbar) ** 2
            assert own <= np.linalg.norm(ref - vbar) ** 2 + 1e-6
            assert_kkt(c, vbar, res)


@st.composite
def sinr_cases(draw):
    """A SINR floor and a point: random, with the served block zero (the hard
    case), or with the served response |h^H w_m|^2 at 1e-8, 1 or 1e8 times
    the target gamma*sigma^2."""
    M, N = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    user = draw(st.integers(0, M - 1))
    h = random_stack(rng, 1, N)
    gamma, sigma2 = 10.0 ** rng.uniform(-1.0, 1.5), 10.0 ** rng.uniform(-1.0, 1.0)
    W = random_stack(rng, M, N, scale=10.0 ** rng.uniform(-2.0, 1.0)).reshape(M, N)
    mode = draw(st.sampled_from(["random", "hard", 1e-8, 1.0, 1e8]))
    if mode == "hard":
        W[user] = 0.0
    elif mode != "random":
        W[user] *= np.sqrt(mode * gamma * sigma2) / abs(np.vdot(h, W[user]))
    return W.reshape(-1), h, gamma, sigma2, user, M, N


@st.composite
def extreme_sinr_cases(draw):
    """A SINR floor and a point at extreme scales: ||h|| from 1e-100 to
    1e100, sigma^2 from 1e-15 to 1e3, gamma from 1e-3 to 1e6, and the
    interference A*pI (A = ||h||^2) from 1e-8 to 1e8 times the target
    gamma*sigma^2, or none.  The served response A*pm is a factor from 1e-3
    to 1e3 off the hard-case threshold EPS*(target + gamma*A*pI), within a
    relative 1e-15 to 1e-1 of it, or from 1e-14 to 10 times the target."""
    M, N = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    user = draw(st.integers(0, M - 1))
    norm = 10.0 ** draw(st.floats(-100.0, 100.0))
    sigma2, gamma = 10.0 ** draw(st.floats(-15.0, 3.0)), 10.0 ** draw(st.floats(-3.0, 6.0))
    h = random_stack(rng, 1, N)
    h *= norm / np.linalg.norm(h)
    A, target = norm**2, gamma * sigma2
    W = random_stack(rng, M, N).reshape(M, N)
    z = W @ np.conj(h) / norm
    others = np.arange(M) != user
    interference = 0.0
    if others.any() and draw(st.booleans()):
        interference = target * 10.0 ** draw(st.floats(-8.0, 8.0))  # A*pI
        W[others] *= np.sqrt(interference / (A * np.sum(np.abs(z[others]) ** 2)))
    else:
        W[others] = 0.0
    threshold = EPS * (target + gamma * interference)
    mode = draw(st.sampled_from(["factor", "near", "secular"]))
    if mode == "factor":
        served = threshold * 10.0 ** draw(st.floats(-3.0, 3.0))
    elif mode == "near":
        served = threshold * (1.0 + draw(st.sampled_from([-1.0, 1.0]))
                              * 10.0 ** draw(st.floats(-15.0, -1.0)))
    else:
        served = target * 10.0 ** draw(st.floats(-14.0, 1.0))
    W[user] *= np.sqrt(served / A) / abs(z[user])
    return W, h, gamma, sigma2, user, M, N


def kernel_outcome(kernel, W, row):
    """What ``kernel`` returns at W, or the exception it raises."""
    try:
        return kernel(W, row)
    except Exception as err:  # compared with the other kernel's, type and all
        return err


class TestSinrKernel:
    """The plain-float SINR kernel against the closure-based reference."""

    @settings(max_examples=300, deadline=None)
    @given(sinr_cases())
    def test_matches_reference_and_passes_guard(self, case):
        vbar, h, gamma, sigma2, user, M, N = case
        c = SinrConstraint(user, h, gamma, sigma2, M, N)
        v, mu = project(c, vbar)[:2]  # raises if the guard fails
        v_ref, mu_ref = project_sinr_reference(*case)
        assert v.tobytes() == v_ref.tobytes() and mu == mu_ref
        residual = np.linalg.norm((v - vbar) + mu * (dense_constraint(c)[0] @ v))
        assert residual <= 1e-6 * (1.0 + np.linalg.norm(vbar))

    @settings(max_examples=300, deadline=None)
    @given(sinr_cases(), st.sampled_from([None, 1, 2, 3]))
    def test_written_out_loop_matches_secular_root(self, case, max_iter):
        # the kernel's own Newton/bisection loop against the root-finder it
        # replaced, also when an iteration budget cut short makes both fail
        vbar, h, gamma, sigma2, user, M, N = case
        c = SinrConstraint(user, h, gamma, sigma2, M, N)
        row = ProblemInstance((c,), M, N).sweep_plan[0][1]
        W = vbar.reshape(M, N)
        with pytest.MonkeyPatch.context() as patch:
            if max_iter is not None:
                patch.setattr(projections_module, "SECULAR_MAX_ITER", max_iter)
                patch.setattr(oracles, "SECULAR_MAX_ITER", max_iter)
            try:
                want = oracles.sinr_row_reference(W, row)
            except ProjectionError as err:
                with pytest.raises(ProjectionError) as got:
                    projections_module._sinr_row(W, row)
                assert str(got.value) == str(err)
                assert repr(got.value.diagnostics) == repr(err.diagnostics)
                return
            got = projections_module._sinr_row(W, row)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0].tobytes() == want[0].tobytes()
            assert (type(got[1]), got[1], got[2]) == (type(want[1]), want[1], want[2])

    @settings(max_examples=400, deadline=None)
    @given(extreme_sinr_cases())
    def test_extreme_scales_match_secular_root(self, case):
        # on either side of the hard-case threshold and far into the secular
        # branch, the kernel's loop returns the root-finder's bytes or raises
        # its error, and the root-finder's bracket always changes sign
        W, h, gamma, sigma2, user, M, N = case
        c = SinrConstraint(user, h, gamma, sigma2, M, N)
        row = ProblemInstance((c,), M, N).sweep_plan[0][1]
        want = kernel_outcome(oracles.sinr_row_reference, W, row)
        got = kernel_outcome(projections_module._sinr_row, W, row)
        if isinstance(want, Exception):
            assert "does not change sign" not in str(want)
            assert type(got) is type(want) and str(got) == str(want)
            assert repr(vars(got)) == repr(vars(want))  # a ProjectionError's diagnostics
            return
        assert not isinstance(got, Exception) and (got is None) == (want is None)
        if want is not None:
            assert got[0].tobytes() == want[0].tobytes()
            assert [type(x) for x in got[1:]] == [type(x) for x in want[1:]]
            assert np.float64(got[1:]).tobytes() == np.float64(want[1:]).tobytes()

    def test_tiny_served_coefficient_reaches_the_pole(self):
        # a served coefficient with |h^H w_m|^2 from 1e-16 down to 1e-40
        # (target 2) puts the root nu closer to the pole at 1 than double
        # precision resolves: the point must be finite, pass the guard and
        # reach the floor, which the hard-case injection does
        h, gamma, sigma2 = np.array([1.0, 0.5j]), 2.0, 1.0
        c = SinrConstraint(0, h, gamma, sigma2, 2, 2)
        for served in [1e-8, 1e-16, 1e-20]:
            vbar = np.array([served, 0.0, 0.3, 0.2], dtype=complex)
            res = project(c, vbar)  # runs the guard
            assert np.all(np.isfinite(res.v)) and 0.0 < res.multiplier < np.inf
            assert slack(c, res.v) >= -1e-12 * gamma * sigma2
        # a weak channel routes a served coefficient of 1e-4 there too, with
        # a served component far above the guard's scale: it must stay
        # stationary, not just the interference
        weak = SinrConstraint(0, 1e-4 * h, gamma, sigma2, 2, 2)
        res = project(weak, np.array([1e-4, 0.0, 0.3, 0.2], dtype=complex))
        assert slack(weak, res.v) >= -1e-12 * gamma * sigma2
        # at a high target the hard case must shrink the interference with
        # the nu it returns, not as at nu = 1, or the guard fails
        strict = SinrConstraint(0, h, 1e3, sigma2, 2, 2)
        res = project(strict, np.array([1e-4, 0.0, 300.0, 200.0], dtype=complex))
        assert slack(strict, res.v) >= -1e-12 * 1e3 * sigma2


class TestOnePointKernels:
    """The one-point closed forms return the bytes of the batched closed
    forms on a batch of one: ``_beam_point`` those of the independent
    ``oracles.project_beams`` and ``_power_row`` those of
    ``oracles.project_powers``, which without the batch axis returns those
    of the same call with it."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_project_beams(self, sign):
        rng = np.random.default_rng(zlib.crc32(b"project_beams"))
        M, N = 3, 4
        a = steering(N, 11.0)
        for scale in [1e-3, 0.1, 1.0, 10.0, 0.0]:
            for threshold in [0.05, 1.0, 20.0]:
                rows = beam_rows([0], a, [sign], [threshold], N, [11.0])
                W = scale * random_stack(rng, M, N).reshape(1, M, N)
                V, mu, residual = oracles.project_beams(W, rows)
                V1, mu1, residual1 = _beam_point(W[0], next(rows.each()))
                assert V1.tobytes() == V[0].tobytes()
                assert (mu1, residual1) == (mu[0], residual[0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.sampled_from([1.0, -1.0]),
        st.floats(-3.0, 3.0), st.one_of(st.floats(-3.0, 2.0), st.none()),
        st.booleans(),
    )
    def test_project_beams_on_one_row(self, seed, sign, log_threshold, log_scale, boundary):
        # scale None is the zero point (a degenerate passband); on the boundary
        # the threshold is the point's own S0, so the row passes through
        rng = np.random.default_rng(seed)
        M, N = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        scale = 0.0 if log_scale is None else 10.0**log_scale
        W = scale * random_stack(rng, M, N).reshape(1, M, N)
        a = random_stack(rng, 1, N)
        threshold = 10.0**log_threshold
        if boundary and scale > 0.0:
            row = next(beam_rows([0], a, [sign], [1.0], N, [0.0]).each())
            alpha = W @ row.unit_probe
            threshold = row.norm2 * float(np.vdot(alpha, alpha).real)
        rows = beam_rows([0], a, [sign], [threshold], N, [0.0])
        V, mu, residual = oracles.project_beams(W, rows)
        V1, mu1, residual1 = _beam_point(W[0], next(rows.each()))
        assert V1.tobytes() == V[0].tobytes()
        assert type(mu1) is float and type(residual1) is float
        assert np.float64(mu1).tobytes() == mu[0].tobytes()
        assert np.float64(residual1).tobytes() == residual[0].tobytes()
        if boundary and scale > 0.0:
            assert V1.tobytes() == W[0].tobytes() and mu1 == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(-150.0, 150.0),
        st.sampled_from(["below", "at", "above", "ratio"]), st.floats(-3.0, 3.0),
    )
    def test_power_row_matches_the_batch_form(self, seed, M, log_scale, limit_at, log_ratio):
        # a limit one ulp either side of the group's power, at it, or a
        # decade-scale ratio away from it
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 4))
        n = int(rng.integers(0, N))
        W = 10.0**log_scale * random_stack(rng, M, N).reshape(M, N)
        G = W[:, n]
        power = float(np.vdot(G, G).real)
        limit = {
            "below": np.nextafter(power, 0.0), "at": power,
            "above": np.nextafter(power, np.inf), "ratio": power * 10.0**log_ratio,
        }[limit_at]
        row = ProblemInstance((AntennaPowerConstraint(n, limit, M, N),), M, N).sweep_plan[0][1]
        P, mu, residual = project_powers(G[np.newaxis], np.array([limit]))
        got = projections_module._power_row(W, row)
        if got is None:
            assert mu[0] == 0.0 and P[0].tobytes() == G.tobytes()
            return
        V, mu1, residual1 = got
        assert V[:, n].tobytes() == P[0].tobytes()
        assert np.delete(V, n, axis=1).tobytes() == np.delete(W, n, axis=1).tobytes()
        assert type(mu1) is float and type(residual1) is float
        assert np.float64(mu1).tobytes() == mu[0].tobytes()
        assert np.float64(residual1).tobytes() == residual[0].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(155.0, 300.0), st.floats(-3.0, 3.0))
    def test_overflowing_power_fails_the_guard_by_name(self, seed, log_scale, log_limit):
        # the group's power overflows to inf (or NaN, as BLAS sums it): mu is
        # inf or NaN and the residual NaN, which the guard rejects, naming the row
        rng = np.random.default_rng(seed)
        M, N = int(rng.integers(1, 4)), 3
        W = 10.0**log_scale * random_stack(rng, M, N).reshape(M, N)
        problem = ProblemInstance(
            (StopbandConstraint(0.0, steering(N), 1e300, M, N),
             AntennaPowerConstraint(1, 10.0**log_limit, M, N)),
            M, N,
        )
        with np.errstate(all="ignore"), pytest.raises(ProjectionError) as err:
            projections_module.move(problem, 1, W)
        assert "constraint l=1 (antenna_power(n=1)): projection violates stationarity" in str(
            err.value
        )
        assert err.value.diagnostics["constraint_index"] == 1
        assert err.value.diagnostics["kind"] == "antenna_power"
        assert not np.isfinite(err.value.diagnostics["multiplier"])

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.one_of(st.floats(-300.0, 300.0), st.none()),
        st.sampled_from(["zero", "below_guard", "guard", "above_guard", "between", "bound",
                         "above_bound", "far", "inf", "nan"]),
        st.floats(0.0, 1.0),
    )
    def test_guard_passes_exactly_finite_residuals_within_the_bound(
        self, seed, log_scale, where, fraction
    ):
        # a stub kernel returns a chosen residual: at, one ulp either side of,
        # or between 1e-6 and the bound 1e-6*(1 + ||W||), beyond it, or not
        # finite; ||W|| itself overflows at the largest scales
        rng = np.random.default_rng(seed)
        M, N = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        scale = 0.0 if log_scale is None else 10.0**log_scale
        W = scale * random_stack(rng, M, N).reshape(M, N)
        guard = projections_module.KKT_GUARD
        with np.errstate(all="ignore"):  # 0 * inf, where ||W|| overflows
            bound = guard * (1.0 + np.sqrt(np.vdot(W, W).real))
            residual = float({
                "zero": 0.0, "below_guard": np.nextafter(guard, 0.0), "guard": guard,
                "above_guard": np.nextafter(guard, np.inf),
                "between": min(guard + fraction * (bound - guard), bound), "bound": bound,
                "above_bound": np.nextafter(bound, np.inf), "far": bound * (2.0 + fraction),
                "inf": np.inf, "nan": np.nan,
            }[where])
        moved = (W.copy(), 0.5, residual)
        problem = ProblemInstance((StopbandConstraint(0.0, steering(N), 1.0, M, N),), M, N)
        vars(problem)["sweep_plan"] = ((lambda point, row: moved, None),)
        if np.isfinite(residual) and not residual > bound:
            assert projections_module.move(problem, 0, W) is moved
            return
        with pytest.raises(ProjectionError) as err:
            projections_module.move(problem, 0, W)
        assert "constraint l=0 (stopband(theta=0 deg)): projection violates stationarity" in str(
            err.value
        )
        assert err.value.diagnostics["constraint_index"] == 0
        assert np.float64(err.value.diagnostics["residual"]).tobytes() == np.float64(
            residual).tobytes()

    def test_project_powers(self):
        rng = np.random.default_rng(zlib.crc32(b"project_powers"))
        for limit in [0.01, 1.0, 100.0]:
            G = random_stack(rng, 1, 5).reshape(1, 5)
            P, mu, residual = project_powers(G, np.array([limit]))
            P1, mu1, residual1 = project_powers(G[0], limit)
            assert P1.tobytes() == P[0].tobytes()
            assert (mu1, residual1) == (mu[0], residual[0])


class TestMatvec:
    """The kernels' products with a column take ``W.dot(x)`` for ``W @ x``
    wherever W has more than one column.  On every operand shape they use,
    M = 1..4 users, N = 1..10 antennas and a (N, 1) or (N,) complex column,
    both give the same bytes there, and ``_matvec`` gives those of ``@``
    everywhere: a numpy or BLAS build that rounds them apart fails here,
    naming the shape, before any sweep comparison does."""

    @pytest.mark.parametrize("N", range(1, 11))
    @pytest.mark.parametrize("M", range(1, 5))
    def test_dot_gives_the_bytes_of_matmul(self, M, N):
        rng = np.random.default_rng([M, N])
        for column in [(N, 1), (N,)]:
            for _ in range(50):
                W = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
                x = rng.standard_normal(column) + 1j * rng.standard_normal(column)
                want = W @ x
                got = projections_module._matvec(W, x)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
                if N > 1:
                    assert W.dot(x).tobytes() == want.tobytes()


def grid_oracle_2d_real(F, f, vbar, span=4.0, width=1201):
    """Plain 2-D grid search over real (x, y); coarse but unbiased."""
    xs = np.linspace(-span, span, width)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    quad = F[0, 0] * X**2 + F[1, 1] * Y**2
    cost = (X - vbar[0]) ** 2 + (Y - vbar[1]) ** 2
    cost = np.where(quad <= f + 1e-12, cost, np.inf)
    idx = np.unravel_index(np.argmin(cost), cost.shape)
    return cost[idx], (X[idx], Y[idx])


def boundary_oracle_hard_case(f, vbar_y, span=4.0, width=2_000_001):
    """Exhaustive search for min x^2 + (y - vbar_y)^2 s.t. x^2 - y^2 >= -f.

    The target point (0, vbar_y) is infeasible, moving |x| above the boundary
    only adds cost, so the optimum sits on x^2 = -f + y^2; scan y finely.
    """
    y = np.linspace(-span, span, width)
    cost = (-f + y**2) + (y - vbar_y) ** 2
    i = int(np.argmin(cost))
    return float(cost[i]), float(y[i])


class TestGeneric:
    def test_unit_ball(self):
        F = np.eye(3, dtype=complex)
        vbar = np.array([1.2, -0.8, 1.2j])
        norm = np.linalg.norm(vbar)
        v, mu = project_generic(F, 1.0, vbar * (2.0 / norm))
        assert np.allclose(v, vbar * (2.0 / norm) / 2.0, atol=1e-10)
        assert mu == pytest.approx(1.0, rel=1e-9)

    def test_hard_case_matches_grid_oracle(self):
        F = np.diag([-1.0, 1.0]).astype(complex)
        f = -4.0
        vbar = np.array([0.0, 1.0], dtype=complex)
        v, mu = project_generic(F, f, vbar)
        cost = np.linalg.norm(v - vbar) ** 2
        coarse_cost, _ = grid_oracle_2d_real(np.diag([-1.0, 1.0]), f, [0.0, 1.0])
        fine_cost, y_opt = boundary_oracle_hard_case(f, 1.0)
        assert cost <= coarse_cost + 1e-12  # grid point is feasible, so an upper bound
        assert cost == pytest.approx(fine_cost, abs=1e-9)
        assert y_opt == pytest.approx(0.5, abs=1e-5)
        assert cost == pytest.approx(4.5, abs=1e-9)  # 4.25 + 0.25
        assert abs(v[0]) == pytest.approx(np.sqrt(4.25), rel=1e-9)
        assert v[1] == pytest.approx(0.5)
        assert mu == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["antenna_power", "stopband", "passband", "sinr"])
    def test_agrees_with_structured_paths(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        M, N = 2, 3
        found = 0
        while found < 20:
            c = random_constraint(kind, rng, M, N)
            vbar = random_stack(rng, M, N) * (0.3 if kind in ("passband", "sinr") else 2.0)
            if quad(c, vbar) <= c.f:
                continue
            found += 1
            res = project(c, vbar)
            v_gen, mu_gen = project_generic(dense_constraint(c)[0], c.f, vbar)
            assert np.max(np.abs(res.v - v_gen)) <= 1e-8 * (1 + np.linalg.norm(vbar))
            assert res.multiplier == pytest.approx(mu_gen, rel=1e-6, abs=1e-10)

    def test_psd_with_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            project_generic(np.eye(2, dtype=complex), -1.0, np.ones(2, dtype=complex))

    def test_non_hermitian_rejected(self):
        F = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            project_generic(F, 1.0, np.ones(2, dtype=complex))

    def test_psd_zero_bound_projects_onto_null_space(self):
        F = np.diag([1.0, 0.0]).astype(complex)
        vbar = np.array([1.0, 2.0], dtype=complex)
        v, mu = project_generic(F, 0.0, vbar)
        assert np.allclose(v, [0.0, 2.0])
        assert mu == np.inf


class TestPenaltyOracle:
    def test_feasible_point_returned(self):
        F = np.eye(2, dtype=complex)
        vbar = np.array([0.1, 0.2], dtype=complex)
        out = penalty_oracle(F, 1.0, vbar, seed=0)
        assert np.linalg.norm(out - vbar) <= 1e-8

    def test_reproduces_radial_projection(self):
        rng = np.random.default_rng(8)
        M, N = 2, 3
        for i in range(10):
            c = AntennaPowerConstraint(1, float(rng.uniform(0.2, 1.0)), M, N)
            vbar = random_stack(rng, M, N)
            if quad(c, vbar) <= c.f:
                continue
            ref = project(c, vbar).v
            out = penalty_oracle(dense_constraint(c)[0], c.f, vbar, seed=i)
            gap = abs(
                np.linalg.norm(out - vbar) ** 2 - np.linalg.norm(ref - vbar) ** 2
            )
            assert gap <= 1e-6

    def test_matches_generic_on_random_psd(self):
        rng = np.random.default_rng(9)
        for i in range(30):
            n = int(rng.integers(2, 7))
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            F = G @ G.conj().T / n
            f = float(rng.uniform(0.2, 2.0))
            vbar = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            v_gen, _ = project_generic(F, f, vbar)
            out = penalty_oracle(F, f, vbar, seed=i)
            gap = abs(
                np.linalg.norm(out - vbar) ** 2 - np.linalg.norm(v_gen - vbar) ** 2
            )
            assert gap <= 1e-6

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            penalty_oracle(np.eye(9, dtype=complex), 1.0, np.ones(9, dtype=complex))
