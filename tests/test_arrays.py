from types import SimpleNamespace

import numpy as np
import pytest

from sparsebeam import (
    AngleGrids,
    ArrayGeometry,
    ConfigurationError,
    SinrConstraint,
    build_grids,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    los_channel,
    rayleigh_channel,
    steering_vector,
)

GEOM2 = ArrayGeometry(2, 0.5)


class TestSteeringVector:
    def test_broadside_two_elements(self):
        assert np.allclose(steering_vector(GEOM2, 0.0), [1.0, 1.0])

    def test_endfire_two_elements(self):
        # phase increment 2*pi*0.5*sin(90) = pi
        assert np.allclose(steering_vector(GEOM2, 90.0), [1.0, -1.0])

    def test_thirty_degrees_four_elements(self):
        # hand evaluation of 2*pi*0.5*n*sin(30 deg) = n*pi/2
        a = steering_vector(ArrayGeometry(4, 0.5), 30.0)
        expected = np.exp(1j * np.pi / 2 * np.arange(4))
        assert np.allclose(a, expected, atol=1e-12)

    def test_unit_modulus_and_reference(self):
        rng = np.random.default_rng(0)
        geom = ArrayGeometry(7, 0.5)
        for theta in rng.uniform(-90, 90, size=25):
            a = steering_vector(geom, theta)
            assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12
            assert a[0] == 1.0

    def test_conjugate_symmetry(self):
        geom = ArrayGeometry(6, 0.5)
        for theta in (3.0, 41.5, 88.0):
            assert np.allclose(
                steering_vector(geom, -theta), np.conj(steering_vector(geom, theta))
            )

    @pytest.mark.parametrize("theta", [-90.001, 90.001, 180.0])
    def test_out_of_range_rejected(self, theta):
        with pytest.raises(ConfigurationError):
            steering_vector(GEOM2, theta)
        with pytest.raises(ConfigurationError):
            steering_vector(GEOM2, np.array([0.0, theta]))

    def test_angle_array_gives_the_per_angle_vectors_bit_for_bit(self):
        # beampattern builds its display matrix in one call over the 0.5 deg
        # grid; a vectorized sin that rounds differently from the per-angle
        # one would change beampattern.csv, so it must fail here
        angles = np.arange(-90.0, 90.0 + 0.25, 0.5)
        for N in range(1, 17):
            for spacing in (0.25, 0.4, 0.5, 0.75, 1.0):
                # a namespace: ArrayGeometry needs N >= 2
                geometry = SimpleNamespace(num_antennas=N, element_spacing=spacing)
                A = steering_vector(geometry, angles)
                assert A.shape == (N, angles.size) and A.flags.c_contiguous
                for k, theta in enumerate(angles):
                    assert A[:, k].tobytes() == steering_vector(geometry, theta).tobytes()


class TestChannels:
    def test_los_broadside_is_ones(self):
        h = los_channel(ArrayGeometry(3, 0.5), 0.0)
        assert np.allclose(h, [1, 1, 1])

    def test_los_equals_steering(self):
        geom = ArrayGeometry(10, 0.5)
        assert np.allclose(los_channel(geom, 45.0), steering_vector(geom, 45.0))

    def test_los_gain_scaling(self):
        geom = ArrayGeometry(5, 0.5)
        gain = 2.0 * np.exp(1j * np.pi / 3)
        assert np.allclose(
            los_channel(geom, 45.0, gain), gain * steering_vector(geom, 45.0)
        )

    def test_los_zero_gain_rejected(self):
        with pytest.raises(ConfigurationError):
            los_channel(GEOM2, 0.0, gain=0.0)

    def test_rayleigh_deterministic_per_seed(self):
        geom = ArrayGeometry(8, 0.5)
        assert np.array_equal(rayleigh_channel(geom, 42), rayleigh_channel(geom, 42))
        assert np.any(rayleigh_channel(geom, 42) != rayleigh_channel(geom, 43))

    def test_rayleigh_unit_entry_variance(self):
        geom = ArrayGeometry(10, 0.5)
        draws = np.concatenate(
            [rayleigh_channel(geom, seed) for seed in range(10_000)]
        )
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) <= 0.02

    def test_user_channel_invariants(self):
        with pytest.raises(ConfigurationError):
            SinrConstraint(0, np.ones(3), gamma=1.0, noise_variance=0.0, M=1, N=3)
        with pytest.raises(ConfigurationError):
            SinrConstraint(0, np.ones(3), gamma=-1.0, noise_variance=1.0, M=1, N=3)
        with pytest.raises(ConfigurationError):
            SinrConstraint(0, np.zeros(3), gamma=1.0, noise_variance=1.0, M=1, N=3)


class TestConversions:
    def test_db(self):
        assert db_to_linear(10.0) == 10.0
        assert db_to_linear(0.0) == 1.0

    def test_dbm(self):
        assert dbm_to_watts(40.0) == 10.0
        assert dbm_to_watts(30.0) == 1.0
        assert dbm_to_watts(0.0) == 0.001

    def test_roundtrip(self):
        assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3, abs=1e-12)


class TestGrids:
    def test_mainlobe_step_two(self):
        grids = build_grids((-5, 5), [(20, 30)], 2.0, 5.0)
        assert grids.mainlobe == (-5, -3, -1, 1, 3, 5)

    def test_paper_stopband_counts(self):
        regions = [(-90, -60), (-30, -20), (20, 30), (60, 90)]
        grids = build_grids((-5, 5), regions, 2.0, 5.0)
        assert len(grids.stopband) == 7 + 3 + 3 + 7
        assert len(grids.mainlobe) == 6

    def test_paper_constraint_count_identity(self):
        regions = [(-90, -60), (-30, -20), (20, 30), (60, 90)]
        grids = build_grids((-5, 5), regions, 2.0, 5.0)
        assert len(grids.mainlobe) + len(grids.stopband) + 10 + 2 == 38

    def test_point_region(self):
        grids = build_grids((0, 0), [(20, 30)], 2.0, 5.0)
        assert grids.mainlobe == (0.0,)

    def test_endpoint_always_included(self):
        grids = build_grids((0, 5), [(20, 30)], 2.0, 5.0)
        assert grids.mainlobe == (0, 2, 4, 5)

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grids((-5, 5), [(4, 30)], 2.0, 5.0)

    def test_empty_stopband_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grids((-5, 5), [], 2.0, 5.0)

    def test_shared_point_rejected(self):
        with pytest.raises(ConfigurationError):
            AngleGrids(mainlobe=(0.0, 5.0), stopband=(5.0, 10.0))

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grids((-5, 5), [(20, 30)], 0.0, 5.0)

    @pytest.mark.parametrize("step", [1e-320, 1e-300, 9.99e-6])
    def test_step_too_fine_rejected_before_sampling(self, step):
        # (hi - lo)/step is inf at 1e-320 and 1e301 at 1e-300, and just over
        # the 10**6 ceiling at 9.99e-6 on either 10-degree interval
        with pytest.raises(ConfigurationError, match=r"over 10\*\*6 steps"):
            build_grids((-5, 5), [(20, 30)], step, 5.0)
        with pytest.raises(ConfigurationError, match=r"\[20, 30\] at step"):
            build_grids((-5, 5), [(20, 30)], 2.0, step)
