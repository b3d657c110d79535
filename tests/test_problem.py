import itertools
import re

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from sparsebeam import (
    AntennaPowerConstraint,
    ArrayGeometry,
    BeamformerStack,
    ConfigurationError,
    PassbandConstraint,
    ProblemInstance,
    SinrConstraint,
    StopbandConstraint,
    assemble,
    cyclic_projection,
    feasibility_report,
    find_feasible_point,
    group_norms,
    objective,
    rayleigh_channel,
    steering_vector,
    user_blocks,
)
from sparsebeam.problem import beam_rows

from helpers import (
    assert_same_data,
    dense_response_matrix,
    dense_selector_matrix,
    dense_sinr_matrix,
    describe,
    of_kind,
    quad_form,
    random_stack,
    restrict_constraints,
    slack,
    subarray,
)
from oracles import quad


def steering(M, N, theta=17.0):
    return steering_vector(ArrayGeometry(N, 0.5), theta)


class TestStack:
    def test_length_validated(self):
        with pytest.raises(ValueError):
            BeamformerStack(np.zeros(5), 2, 3)


class TestPassband:
    def test_orthogonal_weights_violate(self):
        a = np.array([1.0, 1j])
        c = PassbandConstraint(0.0, a, threshold=0.5, M=2, N=2)
        w = np.concatenate([np.array([1.0, 1j]) * 0, np.array([1j, 1.0])])
        # second block orthogonal to a: a^H w_2 = -1j*1j... build truly orthogonal
        w = np.concatenate([np.array([1j, 1.0]), np.array([1j, 1.0])])
        assert abs(np.vdot(a, w[:2])) < 1e-15
        assert -slack(c, w) == pytest.approx(0.5)

    def test_tight_construction(self):
        rng = np.random.default_rng(2)
        M, N = 2, 4
        a = steering(M, N)
        eps = 3.7
        w = np.zeros(M * N, dtype=complex)
        w[:N] = np.sqrt(eps) * a / np.vdot(a, a).real
        c = PassbandConstraint(17.0, a, eps, M, N)
        assert slack(c, w) - c.f == pytest.approx(eps, rel=1e-12)
        assert abs(slack(c, w)) <= 1e-10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for M, N in [(1, 3), (2, 4), (3, 5)]:
            a = steering(M, N, theta=-33.0)
            c = PassbandConstraint(-33.0, a, 1.0, M, N)
            F = -dense_response_matrix(a, M, N)
            for _ in range(10):
                w = random_stack(rng, M, N)
                assert c.f - slack(c, w) == pytest.approx(quad_form(F, w), rel=1e-10)
                assert np.allclose(ProblemInstance((c,), M, N).f_actions(w)[0], F @ w, atol=1e-12)


class TestStopband:
    def test_zero_weights_satisfy(self):
        a = steering(2, 3)
        c = StopbandConstraint(17.0, a, 0.25, 2, 3)
        assert slack(c, np.zeros(6, dtype=complex)) == pytest.approx(0.25)

    def test_tight_construction(self):
        M, N = 2, 4
        a = steering(M, N)
        eps = 0.6
        w = np.zeros(M * N, dtype=complex)
        w[:N] = np.sqrt(eps) * a / np.vdot(a, a).real
        c = StopbandConstraint(17.0, a, eps, M, N)
        assert abs(slack(c, w)) <= 1e-10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        M, N = 2, 4
        a = steering(M, N, theta=62.0)
        c = StopbandConstraint(62.0, a, 1.0, M, N)
        F = dense_response_matrix(a, M, N)
        for _ in range(10):
            w = random_stack(rng, M, N)
            assert c.f - slack(c, w) == pytest.approx(quad_form(F, w), rel=1e-10)


class TestAntennaPower:
    def test_tight_group(self):
        c = AntennaPowerConstraint(0, 2.0, M=2, N=1)
        w = np.array([1.0, 1.0], dtype=complex)
        assert abs(slack(c, w)) <= 1e-15

    def test_violated_group(self):
        c = AntennaPowerConstraint(0, 10.0, M=2, N=1)
        w = np.array([3.0, 4.0], dtype=complex)
        assert -slack(c, w) == pytest.approx(15.0)  # 25 > 10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        M, N = 3, 4
        for n in range(N):
            c = AntennaPowerConstraint(n, 1.0, M, N)
            F = dense_selector_matrix(n, M, N)
            w = random_stack(rng, M, N)
            assert c.f - slack(c, w) == pytest.approx(quad_form(F, w), rel=1e-10)
        # trace of the selector is the number of users
        assert np.trace(dense_selector_matrix(1, M, N)).real == pytest.approx(M)


class TestSinr:
    def test_single_user_no_interference(self):
        h = np.array([1.0, 0.5j])
        c = SinrConstraint(0, h, gamma=2.0, noise_variance=0.5, M=1, N=2)
        w = np.array([2.0, 0.0], dtype=complex)
        # |h^H w|^2 = 4 >= gamma*sigma^2 = 1
        assert c.f - slack(c, w) == pytest.approx(-4.0)
        assert slack(c, w) == pytest.approx(3.0)

    def test_tight_example(self):
        h = np.array([1.0, 0.0])
        gamma, sigma2 = 4.0, 0.25
        c = SinrConstraint(0, h, gamma, sigma2, M=2, N=2)
        w = np.zeros(4, dtype=complex)
        w[0] = np.sqrt(gamma * sigma2)
        assert abs(slack(c, w)) <= 1e-12

    def test_quadratic_form_matches_sinr_definition(self):
        rng = np.random.default_rng(6)
        M, N = 3, 4
        h = random_stack(rng, 1, N)
        gamma, sigma2 = 3.0, 0.7
        c = SinrConstraint(1, h, gamma, sigma2, M, N)
        for _ in range(10):
            w = random_stack(rng, M, N)
            W = user_blocks(w, M, N)
            coef = np.array([np.vdot(h, W[j]) for j in range(M)])
            signal = abs(coef[1]) ** 2
            interference = sum(abs(coef[j]) ** 2 for j in range(M) if j != 1)
            sinr = signal / (interference + sigma2)
            # the rearranged quadratic form agrees with the ratio form
            assert (sinr >= gamma) == (slack(c, w) >= 0) or abs(slack(c, w)) < 1e-9
            assert slack(c, w) - c.f == pytest.approx(
                signal - gamma * interference, rel=1e-10, abs=1e-10
            )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        M, N = 3, 3
        h = random_stack(rng, 1, N)
        gamma = 2.5
        c = SinrConstraint(2, h, gamma, 1.0, M, N)
        F = -dense_sinr_matrix(h, gamma, 2, M, N)
        for _ in range(10):
            w = random_stack(rng, M, N)
            assert c.f - slack(c, w) == pytest.approx(quad_form(F, w), rel=1e-10, abs=1e-12)
            assert np.allclose(ProblemInstance((c,), M, N).f_actions(w)[0], F @ w, atol=1e-12)


class TestMatrixStructure:
    def test_hermitian_and_definiteness(self):
        rng = np.random.default_rng(8)
        M, N = 2, 5
        a = steering(M, N, theta=25.0)
        h = random_stack(rng, 1, N)
        A = dense_response_matrix(a, M, N)
        B = dense_selector_matrix(2, M, N)
        D = dense_sinr_matrix(h, 3.0, 0, M, N)
        for F in (A, B, D):
            assert np.allclose(F, F.conj().T)
        assert np.linalg.eigvalsh(A).min() >= -1e-12
        assert np.linalg.eigvalsh(B).min() >= -1e-12
        eig = np.linalg.eigvalsh(D)
        assert eig.min() < 0 < eig.max()  # indefinite for M >= 2


class TestObjective:
    def test_zero(self):
        assert objective(np.zeros(4, dtype=complex), 1.0, 2, 2) == 0.0

    def test_single_group(self):
        # M=2, N=1, one group of norm 5
        w = np.array([3.0, 4.0], dtype=complex)
        assert objective(w, 1.0, 2, 1) == pytest.approx(30.0)

    def test_stacking_identity(self):
        rng = np.random.default_rng(9)
        M, N = 3, 4
        w = random_stack(rng, M, N)
        by_blocks = sum(
            np.vdot(w[m * N : (m + 1) * N], w[m * N : (m + 1) * N]).real
            for m in range(M)
        )
        assert objective(w, 0.0, M, N) == pytest.approx(by_blocks, rel=1e-12)

    def test_l21_equals_l1_of_group_norm_vector(self):
        rng = np.random.default_rng(10)
        M, N = 2, 6
        w = random_stack(rng, M, N)
        wtilde = np.array(
            [np.linalg.norm(w[[n + m * N for m in range(M)]]) for n in range(N)]
        )
        assert group_norms(w, M, N).sum() == pytest.approx(
            np.abs(wtilde).sum(), rel=1e-12
        )


class TestAssemble:
    def test_paper_scenario_has_38_constraints(self, paper_problem):
        assert paper_problem.L == 38
        kinds = [c.kind for c in paper_problem.constraints]
        assert kinds == ["passband"] * 6 + ["stopband"] * 20 + [
            "antenna_power"
        ] * 10 + ["sinr"] * 2

    def test_minimal_scenario_count(self, paper_scenario):
        sc = replace(
            paper_scenario,
            geometry=ArrayGeometry(2, 0.5),
            num_selected=1,
            user_angles_deg=(0.0,),
            noise_variance=(1.0,),
            sinr_target=(10.0,),
            antenna_power_limit_w=(10.0, 10.0),
            mainlobe_region=(-5.0, -5.0),
            mainlobe_step_deg=2.0,
            stopband_regions=((20.0, 20.0),),
        )
        problem = assemble(sc)
        assert problem.L == 1 + 1 + 2 + 1

    def test_empty_stopband_rejected(self, paper_scenario):
        sc = replace(paper_scenario, stopband_regions=())
        with pytest.raises(ConfigurationError):
            assemble(sc)

    def test_rayleigh_channels(self, paper_scenario):
        sc = replace(paper_scenario, channel_model="rayleigh")
        sinrs = of_kind(assemble(sc).constraints, "sinr")
        assert [c.user for c in sinrs] == list(range(sc.M))
        for m, c in enumerate(sinrs):
            assert c.h.tobytes() == rayleigh_channel(sc.geometry, [sc.seed, 101, m]).tobytes()
        reseeded = of_kind(assemble(replace(sc, seed=sc.seed + 1)).constraints, "sinr")
        for c, other in zip(sinrs, reseeded):
            assert not np.array_equal(c.h, other.h)


class TestMissizedObjects:
    """An object sized for other M or N than its problem's is a
    ``ConfigurationError`` naming the row, its kind and both sizes, raised
    when the problem builds its ``families``, before any array is indexed."""

    @pytest.mark.parametrize("c, M, N, sizes", [
        (AntennaPowerConstraint(5, 1.0, 1, 10), 1, 3, "M=1, N=10, but its problem has M=1, N=3"),
        (StopbandConstraint(0.0, np.ones(3), 1.0, 1, 3), 1, 4,
         "M=1, N=3, but its problem has M=1, N=4"),
        (SinrConstraint(2, np.ones(3), 1.0, 1.0, 3, 3), 2, 3,
         "M=3, N=3, but its problem has M=2, N=3"),
    ], ids=["antenna_power", "stopband", "sinr"])
    def test_rejected_naming_row_kind_and_sizes(self, c, M, N, sizes):
        problem = ProblemInstance((AntennaPowerConstraint(0, 1.0, M, N), c), M, N)
        message = re.escape(f"constraint l=1 ({c.kind}) is sized {sizes}")
        w = np.ones(M * N, dtype=complex)
        for run in (lambda: problem.slacks(w), lambda: problem.L,
                    lambda: find_feasible_point(problem)):
            with pytest.raises(ConfigurationError, match=message):
                run()


class TestGeneratorLength:
    """A steering vector or channel whose length is not the object's own N
    is a ``ConfigurationError`` at construction, naming the kind and both
    lengths, not a numpy reshape error when a problem first reads it."""

    @pytest.mark.parametrize("build, message", [
        (lambda: StopbandConstraint(0.0, np.ones(3), 1.0, 1, 4),
         "stopband steering vector has shape (3,), but N=4 needs (4,)"),
        (lambda: SinrConstraint(0, np.ones(3), 1.0, 1.0, 1, 4),
         "sinr channel vector of user 0 has shape (3,), but N=4 needs (4,)"),
    ], ids=["stopband", "sinr"])
    def test_rejected_naming_kind_and_lengths(self, build, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            build()


class TestZeroGenerators:
    """A zero steering vector or channel is a ``ConfigurationError``: its
    passband or SINR floor can never hold and its stopband is vacuous."""

    @pytest.mark.parametrize("build", [
        lambda g: PassbandConstraint(0.0, g, 1.0, 1, 3),
        lambda g: StopbandConstraint(0.0, g, 1.0, 1, 3),
        lambda g: SinrConstraint(0, g, 1.0, 1.0, 1, 3),
    ], ids=["passband", "stopband", "sinr"])
    def test_rejected(self, build):
        with pytest.raises(ConfigurationError, match="is zero"):
            build(np.zeros(3))
        build(np.array([0.0, 1e-300j, 0.0]))  # one nonzero entry will do


class TestRestrict:
    def test_reduced_quad_matches_embedded_full(self, paper_problem):
        rng = np.random.default_rng(11)
        support = (0, 2, 3, 5, 7, 8, 9)
        reduced = subarray(paper_problem, support)
        K = len(support)
        w_red = random_stack(rng, paper_problem.M, K)
        w_full = np.zeros(paper_problem.M * paper_problem.N, dtype=complex)
        for m in range(paper_problem.M):
            w_full[np.asarray(support) + m * paper_problem.N] = w_red[
                m * K : (m + 1) * K
            ]
        dropped = {
            c.antenna for c in of_kind(paper_problem.constraints, "antenna_power")
        } - set(support)
        kept_full = [
            c
            for c in paper_problem.constraints
            if not (c.kind == "antenna_power" and c.antenna in dropped)
        ]
        assert len(kept_full) == reduced.L
        for c_full, c_red in zip(kept_full, reduced.constraints):
            assert quad(c_red, w_red) == pytest.approx(
                quad(c_full, w_full), rel=1e-12, abs=1e-12
            )


    def test_fractional_index_is_rejected(self, paper_problem):
        # 1.5 and 2.7 once truncated silently to antennas 1 and 2
        with pytest.raises(ConfigurationError, match="antenna index 1.5 is not an integer"):
            paper_problem.restrict((1.5, 2.7, 3, 4, 5, 6, 7, 8))
        with pytest.raises(ConfigurationError, match="antenna index 2.5 "):
            paper_problem.restrict((1, 3, np.float64(2.5)))

    def test_integral_floats_and_numpy_integers_are_indices(self, paper_problem):
        want = paper_problem.restrict((1, 2, 3, 4))
        for support in [(1.0, 2.0, 3, 4), np.arange(1, 5), (np.int64(4), 3, 2, 1, 1)]:
            got = paper_problem.restrict(support)
            assert got.support == (1, 2, 3, 4)
            assert all(type(n) is int for n in got.support)
            assert got.row_names == want.row_names
            assert_same_data(got.families, want.families)


    @pytest.mark.parametrize("outer, inner", [
        ((0, 2, 3, 5, 7, 8, 9), (0, 1, 4, 6)),
        ((1, 2, 3, 4, 5, 6, 7, 8), (0, 2, 4, 5, 6, 7)),
        (tuple(range(10)), (3,)),
    ])
    def test_nested_restriction_composes(self, paper_problem, outer, inner):
        nested = paper_problem.restrict(outer).restrict(inner)
        direct = paper_problem.restrict(tuple(outer[i] for i in inner))
        assert nested.support == inner  # indices into its parent, the subarray
        for name in ("families", "certificate_record", "sweep_plan", "row_names"):
            assert_same_data(getattr(nested, name), getattr(direct, name), name)
        objects = restrict_constraints(paper_problem.constraints, direct.support)
        assert [name for _, name in nested.row_names] == [describe(c) for c in objects]


class TestBeamRowData:
    """One-point callers (a one-constraint problem's row, ``BeamRows.each``)
    and the batched v-update (``families.beams``) must read the same row data."""

    @pytest.mark.parametrize("support", [None, (0, 2, 3, 4, 5, 6, 8, 9)])
    def test_rows_match_families(self, paper_problem, support):
        problem = paper_problem if support is None else subarray(paper_problem, support)
        beams = problem.families.beams
        assert len(beams.rows) == sum(c.kind.endswith("band") for c in problem.constraints)
        for i, (l, row) in enumerate(zip(beams.rows, beams.each())):
            assert row.rows == l  # a constraint's own row is 0
            c = problem.constraints[l]
            for one in (next(ProblemInstance((c,), c.M, c.N).families.beams.each()), row):
                for name, got, want in zip(beams._fields[1:], one[1:], beams[1:]):
                    want = want[i]
                    if name in ("norm2", "sign", "threshold"):
                        assert type(got) is float, name
                        got = np.float64(got)
                    else:
                        assert got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("support", [tuple(range(8)), tuple(range(10)), (0, 2, 4, 5, 6, 7, 8, 9)])
    def test_strided_steering_gives_the_rows_of_a_copy(self, paper_problem, support):
        # a column-strided view once rounded ||a||^2 differently in the
        # per-row dot
        beams = paper_problem.families.beams
        strided = beams.steering[:, 0, list(support)]
        assert not strided.flags.c_contiguous
        args = (beams.sign.ravel(), beams.threshold.ravel(), len(support), beams.angle)
        got = beam_rows(beams.rows, strided, *args)
        want = beam_rows(beams.rows, strided.copy(), *args)
        for name, x, y in zip(got._fields, got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 6),
        st.floats(-160.0, 150.0), st.booleans(),
    )
    def test_norm2_has_the_bytes_of_the_per_row_dot(self, seed, N, k, log_scale, unit_modulus):
        # steering-like rows (unit modulus, one scale) or entries spread over
        # six decades, from subnormal squares to squares near overflow
        rng = np.random.default_rng(seed)
        if unit_modulus:
            a = 10.0**log_scale * np.exp(2j * np.pi * rng.random((k, N)))
        else:
            exponents = np.clip(log_scale + rng.uniform(-3.0, 3.0, (k, N)), -160.0, 150.0)
            a = 10.0**exponents * (rng.standard_normal((k, N)) + 1j * rng.standard_normal((k, N)))
        rows = beam_rows(list(range(k)), a, [1.0] * k, [1.0] * k, N, [0.0] * k)
        want = np.array([np.vdot(x, x).real for x in a], dtype=float).reshape(-1, 1, 1)
        assert (rows.norm2.dtype, rows.norm2.shape) == (want.dtype, want.shape)
        assert rows.norm2.tobytes() == want.tobytes()


class TestNonFiniteViolations:
    """A NaN slack is an infinite violation: no non-finite point passes a
    tolerance, where ``np.fmax`` alone would report it as feasible."""

    def test_nan_point(self, paper_problem):
        w = np.full(paper_problem.size, np.nan, dtype=complex)
        assert paper_problem.max_violation(w) == np.inf
        assert [v for _, v in paper_problem.worst_violations(w)] == [np.inf] * 5
        assert not feasibility_report(w, paper_problem, 1e-6).passed
        point, violation, converged = cyclic_projection(paper_problem, w, max_sweeps=0)[:3]
        assert violation == np.inf and not converged

    def test_nan_antenna_violates_only_its_rows(self):
        M, N = 1, 2
        problem = ProblemInstance(
            tuple(AntennaPowerConstraint(n, 1.0, M, N) for n in range(N)), M, N
        )
        w = np.array([0.5, np.nan], dtype=complex)
        assert problem.max_violation(w) == np.inf
        assert problem.worst_violations(w) == [
            ("antenna_power(n=1)", np.inf), ("antenna_power(n=0)", 0.0)
        ]


class TestVectorizedSlacks:
    """``slacks``, ``max_violation`` and ``worst_violations`` work per kind on
    arrays; they must equal the per-constraint values bit for bit."""

    @staticmethod
    def check(problem, w):
        want = np.array([c.f - quad(c, w) for c in problem.constraints])
        assert np.array_equal(problem.slacks(w), want)
        violations = [max(0.0, -s) for s in want]
        assert problem.max_violation(w) == max(violations)
        pairs = sorted(
            ((describe(c), v) for c, v in zip(problem.constraints, violations)),
            key=lambda p: -p[1],
        )
        assert problem.worst_violations(w) == pairs[:5]

    def test_paper_problem(self, paper_problem, paper_scenario):
        rng = np.random.default_rng(21)
        self.check(paper_problem, find_feasible_point(paper_problem))
        for scale in (0.1, 1.0, 10.0):
            self.check(paper_problem, random_stack(rng, paper_problem.M, paper_problem.N, scale))

    def test_all_eight_antenna_supports(self, paper_problem):
        rng = np.random.default_rng(22)
        supports = list(itertools.combinations(range(paper_problem.N), 8))
        assert len(supports) == 45
        for support in supports:
            reduced = subarray(paper_problem, support)
            for scale in (0.3, 3.0):
                self.check(reduced, random_stack(rng, reduced.M, reduced.N, scale))
