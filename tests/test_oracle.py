"""Quadrature oracle: reference geometry and internal consistency."""

import numpy as np
import pytest

from stablepairs.errors import PreconditionError
from stablepairs.oracle import curve_geometry_oracle, wedge_square_matrix
from stablepairs.verify import random_sl


class TestReferenceGeometry:
    def test_volume_equals_degree(self, conic_curve, cubic_curve):
        for curve, d in ((conic_curve, 2), (cubic_curve, 3)):
            rep = curve_geometry_oracle(np.eye(d + 1), curve, n_r=48, n_th=48)
            assert abs(rep.volume - d) <= 1e-3

    def test_mu_is_two_over_d(self, conic_curve, cubic_curve):
        for curve, d in ((conic_curve, 2), (cubic_curve, 3)):
            rep = curve_geometry_oracle(np.eye(d + 1), curve, n_r=48, n_th=48)
            assert abs(rep.mu - 2.0 / d) <= 1e-2

    def test_zero_potential(self, conic_curve):
        rep = curve_geometry_oracle(np.eye(3), conic_curve, n_r=48, n_th=48)
        assert abs(rep.k_energy) < 1e-9
        assert abs(rep.aubin_j) < 1e-9
        assert abs(rep.aubin_f0) < 1e-9

    def test_unitary_potential_vanishes(self, conic_curve, rng):
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        rep = curve_geometry_oracle(u, conic_curve, n_r=48, n_th=48)
        assert abs(rep.k_energy) < 1e-6 and abs(rep.aubin_j) < 1e-9

    def test_wrong_sigma_shape(self, conic_curve):
        with pytest.raises(PreconditionError):
            curve_geometry_oracle(np.eye(2), conic_curve)


class TestInternalIdentities:
    def test_f0_equals_path_integral(self, conic_curve, rng):
        # F0 = J - phi-mass must agree with its own variational definition
        # -int_0^1 (1/V) int phidot omega_t dt; both sit inside the oracle,
        # so run the oracle twice with different grids and compare stability
        sig = random_sl(rng, 3, spread=0.4)
        a = curve_geometry_oracle(sig, conic_curve, n_r=48, n_th=48)
        b = curve_geometry_oracle(sig, conic_curve, n_r=72, n_th=72)
        for key in ("volume", "mu", "k_energy", "aubin_j", "aubin_f0"):
            assert abs(getattr(a, key) - getattr(b, key)) < 1e-6

    def test_j_nonnegative(self, conic_curve, rng):
        for _ in range(3):
            sig = random_sl(rng, 3, spread=0.5)
            rep = curve_geometry_oracle(sig, conic_curve, n_r=48, n_th=48)
            assert rep.aubin_j >= 0.0

    def test_polar_unitary_factor_ignored(self, conic_curve, rng):
        sig = random_sl(rng, 3, spread=0.4)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        a = curve_geometry_oracle(sig, conic_curve, n_r=48, n_th=48)
        b = curve_geometry_oracle(u @ sig, conic_curve, n_r=48, n_th=48)
        assert a.k_energy == pytest.approx(b.k_energy, abs=1e-8)
        assert a.aubin_f0 == pytest.approx(b.aubin_f0, abs=1e-8)


class TestWedgeMatrix:
    def test_multiplicative(self, rng):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(
            wedge_square_matrix(A @ B), wedge_square_matrix(A) @ wedge_square_matrix(B)
        )

    def test_identity(self):
        assert np.allclose(wedge_square_matrix(np.eye(3)), np.eye(3))
