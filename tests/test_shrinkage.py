import numpy as np
import pytest

from sparsebeam import group_norms, group_shrink, objective

from helpers import random_stack
from oracles import group_shrink_reference, prox_oracle


def shrink_objective(v, c, eta, rho, L, M, N):
    """Direct evaluation of the penalized shrinkage objective."""
    return (eta / L) * group_norms(v, M, N).sum() + 0.5 * rho * np.linalg.norm(
        v - c
    ) ** 2


class TestGroupShrink:
    def test_eta_zero_is_identity(self):
        rng = np.random.default_rng(0)
        c = random_stack(rng, 3, 4)
        out = group_shrink(c, 0.0, 50.0, 38, 3, 4)
        assert np.array_equal(out, c)

    def test_worked_example(self):
        # M=2, N=1: one group of norm 0.5, scale 1 - 0.1/(50*38*0.5)
        c = np.array([0.3, 0.4], dtype=complex)
        out = group_shrink(c, 0.1, 50.0, 38, 2, 1)
        scale = 1.0 - 0.1 / (1900.0 * 0.5)
        assert scale == pytest.approx(0.99989474, abs=1e-8)
        assert np.allclose(out, [0.3 * scale, 0.4 * scale], atol=1e-12)
        assert np.allclose(out, [0.2999684, 0.3999579], atol=1e-6)

    def test_dead_zone_maps_to_exact_zero(self):
        rng = np.random.default_rng(1)
        M, N, eta, rho, L = 3, 4, 2.0, 1.0, 2
        lam = eta / (rho * L)
        c = random_stack(rng, M, N)
        c = c / group_norms(c, M, N).max() * lam * 0.999  # every group below lam
        out = group_shrink(c, eta, rho, L, M, N)
        assert np.all(out == 0)

    def test_zero_group_stays_zero(self):
        c = np.zeros(6, dtype=complex)
        c[1::3] = 1.0  # only group 1 nonzero
        out = group_shrink(c, 0.5, 1.0, 1, 2, 3)
        assert np.all(out[0::3] == 0) and np.all(out[2::3] == 0)

    def test_output_group_norms_are_clamped_shrinks(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            M, N = rng.integers(1, 5), rng.integers(1, 5)
            eta, rho, L = rng.uniform(0, 2), rng.uniform(0.5, 80), rng.integers(1, 50)
            c = random_stack(rng, M, N)
            out = group_shrink(c, eta, rho, L, M, N)
            g = group_norms(c, M, N)
            expected = np.maximum(0.0, g - eta / (rho * L))
            assert np.allclose(group_norms(out, M, N), expected, atol=1e-12)

    def test_phase_preservation(self):
        rng = np.random.default_rng(3)
        c = random_stack(rng, 3, 3)
        out = group_shrink(c, 0.3, 2.0, 5, 3, 3)
        mask = np.abs(out) > 0
        assert np.allclose(
            np.angle(out[mask]), np.angle(c[mask]), atol=1e-12
        )

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            M, N = rng.integers(1, 4), rng.integers(1, 5)
            eta, rho, L = rng.uniform(0, 3), rng.uniform(0.5, 50), rng.integers(1, 40)
            c1 = random_stack(rng, M, N)
            c2 = random_stack(rng, M, N)
            d_out = np.linalg.norm(
                group_shrink(c1, eta, rho, L, M, N)
                - group_shrink(c2, eta, rho, L, M, N)
            )
            assert d_out <= np.linalg.norm(c1 - c2) + 1e-12

    def test_minimizes_objective_against_perturbations(self):
        rng = np.random.default_rng(5)
        M, N, eta, rho, L = 2, 3, 0.7, 3.0, 7
        c = random_stack(rng, M, N)
        out = group_shrink(c, eta, rho, L, M, N)
        base = shrink_objective(out, c, eta, rho, L, M, N)
        deltas = rng.standard_normal((10_000, M * N)) + 1j * rng.standard_normal(
            (10_000, M * N)
        )
        scales = 10.0 ** rng.uniform(-6, 0, size=10_000)
        for delta, s in zip(deltas, scales):
            trial = out + s * delta / np.linalg.norm(delta)
            assert shrink_objective(trial, c, eta, rho, L, M, N) >= base - 1e-12

    def test_invalid_parameters(self):
        c = np.zeros(2, dtype=complex)
        with pytest.raises(ValueError):
            group_shrink(c, -0.1, 1.0, 1, 2, 1)
        with pytest.raises(ValueError):
            group_shrink(c, 0.1, 0.0, 1, 2, 1)
        with pytest.raises(ValueError):
            group_shrink(c, 0.1, 1.0, 0, 2, 1)


class TestNumpyNormForms:
    """``group_shrink``, ``group_norms`` and ``objective`` return the bytes of
    their forms on ``np.linalg.norm``, on batches of stacks with zero, tiny
    and NaN groups among ordinary ones, where the shrinkage keeps its
    guards, and with eta = 0."""

    def test_same_bytes(self):
        rng = np.random.default_rng(31)
        for i in range(300):
            M, N, L, k = (int(rng.integers(1, n)) for n in (5, 11, 40, 5))
            c = random_stack(rng, k, M * N, scale=10.0 ** rng.uniform(-3.0, 3.0)).reshape(k, -1)
            C = c.reshape(k, M, N)
            n = int(rng.integers(0, N))
            if i % 3 == 0:
                C[:, :, n] = 0.0
            if i % 5 == 0:
                C[0, :, n] = 1e-301
            if i % 7 == 0:
                C[-1, 0, n] = np.nan
            eta = 0.0 if i % 11 == 0 else rng.uniform(0.0, 2.0)
            rho = rng.uniform(0.5, 100.0)
            got = group_shrink(c, eta, rho, L, M, N)
            want = group_shrink_reference(c, eta, rho, L, M, N)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
            for w in c:
                g = np.linalg.norm(w.reshape(M, N), axis=0)
                assert group_norms(w, M, N).tobytes() == g.tobytes()
                value = np.vdot(w, w).real + eta * g.sum()
                assert np.float64(objective(w, eta, M, N)).tobytes() == value.tobytes()


class TestProxOracle:
    def test_zero_input(self):
        assert np.all(prox_oracle(np.zeros(4, dtype=complex), 1.0, 1.0, 1, 2, 2) == 0)

    def test_huge_eta_kills_everything(self):
        rng = np.random.default_rng(6)
        c = random_stack(rng, 2, 2)
        out = prox_oracle(c, 1e9, 1.0, 1, 2, 2)
        assert np.linalg.norm(out) <= 1e-9

    def test_matches_group_shrink_on_random_instances(self):
        rng = np.random.default_rng(7)
        for i in range(300):
            M, N = rng.integers(1, 5), rng.integers(1, 5)
            eta = rng.uniform(0.0, 2.0)
            rho = rng.uniform(0.5, 100.0)
            L = int(rng.integers(1, 50))
            c = random_stack(rng, M, N)
            if i % 4 == 0:
                # push group norms near the dead-zone boundary
                lam = eta / (rho * L)
                top = group_norms(c, M, N).max()
                if top > 0:
                    c = c * (lam / top) * rng.uniform(0.5, 1.5)
            got = group_shrink(c, eta, rho, L, M, N)
            want = prox_oracle(c, eta, rho, L, M, N)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_size_guard(self):
        with pytest.raises(ValueError):
            prox_oracle(np.zeros(18, dtype=complex), 1.0, 1.0, 1, 3, 6)
