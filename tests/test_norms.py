"""Mahler and L^p norms, the inequality suite, the conformal factor."""

import math
import tracemalloc

import numpy as np
import pytest

from stablepairs import norms
from stablepairs.energy import log_tan_dist_p, xpair_functional
from stablepairs.errors import PreconditionError
from stablepairs.forms import chow_form_curve, hurwitz_form_curve
from stablepairs.norms import (
    DRAW_ROWS,
    MIN_SAMPLES,
    MahlerSampleFunctional,
    arestov_check,
    conformal_theta,
    fs_pointwise,
    harmonic,
    jensen_check,
    l2_norm_log_exact,
    log_ratio_sq,
    lp_norm,
    sample_points,
    sup_norm,
)
from stablepairs.poly import HomogeneousPolynomial, VariableShape
from stablepairs.verify import random_dense_poly, random_sl, rational_normal_curve

V3 = VariableShape.vector(3)


def mono(nvars, exp):
    return HomogeneousPolynomial.monomial(VariableShape.vector(nvars), exp, 1, "exact")


class TestPointwise:
    def test_monomial_at_vertex(self):
        assert fs_pointwise(mono(3, (2, 0, 0)), [1, 0, 0]) == pytest.approx(1.0)

    def test_bounded_by_one(self, rng):
        P = mono(3, (2, 0, 0))
        for _ in range(10):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert fs_pointwise(P, z) <= 1.0 + 1e-12

    def test_scale_invariance(self, rng):
        P = random_dense_poly(rng, 3, 3)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert fs_pointwise(P, z) == pytest.approx(fs_pointwise(P, 2.0 * z), rel=1e-10)

    def test_zero_point_rejected(self):
        with pytest.raises(PreconditionError):
            fs_pointwise(mono(3, (1, 1, 0)), [0, 0, 0])


class TestOneSampleSet:
    @pytest.mark.parametrize("p", [0.0, 2.0])
    def test_estimators_agree_with_the_functional(self, p):
        # lp_norm, log_ratio_sq and the descent objective read one seeded
        # sample set, so they agree to rounding on the same (P, samples, seed)
        rng = np.random.default_rng(4)
        P = random_dense_poly(rng, 3, 3)
        sigma = random_sl(rng, 3, spread=0.4)
        f = MahlerSampleFunctional(P, p, 4000, 9)
        identity = f.log_norm2(np.eye(3, dtype=complex))
        ratio, _ = log_ratio_sq(P, sigma, p, 4000, 9)
        assert ratio == pytest.approx(f.log_norm2(sigma) - identity, abs=1e-9)
        assert 2 * lp_norm(P, p, 4000, 9).log_value == identity

    @pytest.mark.parametrize("p", [0.0, 2.0])
    def test_descent_objective_is_the_point_estimate(self, conic_xpair, p):
        # the X-pair descent and log_tan_dist_p both sample R on seed and
        # Delta on seed + 1, so the in-sample difference is the distance
        sigma = random_sl(np.random.default_rng(3), 3, 0.3)
        func = xpair_functional(conic_xpair, p, 5000, 7)
        moved = func.value(sigma) - func.value(np.eye(3, dtype=complex))
        rep = log_tan_dist_p(sigma, conic_xpair, p, 5000, 7)
        assert moved == pytest.approx(rep["log_tan_sq_dist"], abs=1e-9)

    def test_jensen_draws_once(self, monkeypatch):
        # both sides reduce one draw, to the bits of two lp_norm calls
        P = random_dense_poly(np.random.default_rng(6), 3, 4)
        ref0, refp = lp_norm(P, 0, 4000, 5), lp_norm(P, 3.0, 4000, 5)
        calls = []
        draw = norms.sample_points
        monkeypatch.setattr(norms, "sample_points", lambda *a: calls.append(a) or draw(*a))
        rep = jensen_check(P, 3.0, 4000, 5)
        assert len(calls) == 1
        assert rep["log_l0"] == ref0.to_json() and rep["log_lp"] == refp.to_json()
        assert rep["margin"] == refp.log_value - ref0.log_value
        assert rep["slack"] == 3.0 * (ref0.stderr + refp.stderr)


class TestSampleStream:
    @pytest.mark.parametrize("nvars", [3, 8])
    @pytest.mark.parametrize("samples", [MIN_SAMPLES, 2 * DRAW_ROWS + 5])
    def test_stream_is_the_one_shot_draw(self, nvars, samples):
        # the blocked draw keeps every seed's samples: the bits of the
        # one-shot draw, for a vector (nvars 3) and a 2 x 4 matrix (nvars 8)
        rng = np.random.default_rng(41)
        want = (rng.standard_normal((samples, nvars))
                + 1j * rng.standard_normal((samples, nvars))) / math.sqrt(2.0)
        got = sample_points(nvars, samples, 41)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_log_ratio_holds_one_point_array(self, cubic_xpair):
        # the samples are the one full-size array: the kernel moves them
        # chunk by chunk, and the rest is one value per sample
        sigma = random_sl(np.random.default_rng(4), 4, spread=0.3)
        tracemalloc.start()
        try:
            f = MahlerSampleFunctional(cubic_xpair.resultant, 0.0, 100_000, 7)
            f.log_ratio_sq(sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * f.Z.nbytes


class TestLpNorm:
    def test_dirichlet_identity(self):
        # log ||z0^2||_0 = -(d/2) H_N = -1.5 for N = 2
        est = lp_norm(mono(3, (2, 0, 0)), 0, samples=200_000, seed=7)
        assert abs(est.log_value + 1.5) <= 3 * est.stderr

    def test_constant_polynomial(self):
        est = lp_norm(HomogeneousPolynomial.constant(V3, 1), 0, samples=1000, seed=0)
        assert est.log_value == 0.0 and est.stderr == 0.0

    def test_every_monomial_same_mahler(self):
        # Dirichlet symmetry: the Mahler measure depends only on the degree
        a = lp_norm(mono(3, (1, 1, 1)), 0, samples=150_000, seed=3)
        b = lp_norm(mono(3, (3, 0, 0)), 0, samples=150_000, seed=4)
        assert abs(a.log_value - b.log_value) <= 3 * (a.stderr + b.stderr)

    def test_l2_against_exact_gram(self, rng):
        P = random_dense_poly(rng, 3, 2)
        est = lp_norm(P, 2.0, samples=200_000, seed=5)
        assert abs(est.log_value - l2_norm_log_exact(P)) <= 4 * est.stderr

    def test_min_samples_enforced(self):
        with pytest.raises(PreconditionError):
            lp_norm(mono(3, (1, 0, 0)), 0, samples=10, seed=0)

    def test_seeded_reproducible(self):
        a = lp_norm(mono(3, (2, 0, 0)), 0, samples=2000, seed=11)
        b = lp_norm(mono(3, (2, 0, 0)), 0, samples=2000, seed=11)
        assert a.log_value == b.log_value and a.stderr == b.stderr


class TestSupNorm:
    def test_monomial_equality(self):
        assert sup_norm(mono(3, (4, 0, 0)), samples=4000, seed=1) == pytest.approx(1.0, abs=1e-8)

    def test_lower_bound_of_true_sup(self, rng):
        # the certified bound never exceeds a dense sample maximum by more
        # than the ascent could truly gain; check it dominates plain sampling
        P = random_dense_poly(rng, 3, 3)
        crude = -math.inf
        pts = rng.standard_normal((4000, 3)) + 1j * rng.standard_normal((4000, 3))
        for z in pts:
            crude = max(crude, fs_pointwise(P, z))
        assert sup_norm(P, samples=4000, seed=2) ** 2 >= crude - 1e-12

    @pytest.mark.parametrize("form, d, value", [
        (chow_form_curve, 2, 1 / 4),
        (chow_form_curve, 3, 1 / 8),
        (hurwitz_form_curve, 3, 27 / 4),
    ])
    def test_chow_and_hurwitz_maxima(self, form, d, value):
        # the ascent reaches the known maxima of the conic's and the twisted
        # cubic's Chow forms and of the cubic's Hurwitz form
        P = form(rational_normal_curve(d))
        assert sup_norm(P, samples=5000, seed=7) == pytest.approx(value, rel=1e-9)


class TestArestovJensen:
    def test_monomial_lower_equality(self):
        # the sandwich collapses for z0^d: log ||P||_0 = -(d/2) H_N + log sup
        rep = arestov_check(mono(3, (3, 0, 0)), samples=150_000, seed=2)
        assert rep["lower_holds"] and rep["upper_holds"]
        assert abs(rep["lower_margin"]) <= rep["slack"] + 1e-9

    def test_random_suite(self, rng):
        for _ in range(8):
            P = random_dense_poly(rng, int(rng.integers(2, 4)), int(rng.integers(1, 6)))
            rep = arestov_check(P, samples=60_000, seed=int(rng.integers(1e6)))
            assert rep["lower_holds"] and rep["upper_holds"]
            jen = jensen_check(P, 2.0, samples=60_000, seed=int(rng.integers(1e6)))
            assert jen["holds"]


class TestUnitaryInvariance:
    def test_mahler_under_unitary(self, rng):
        P = random_dense_poly(rng, 3, 3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        sig = random_sl(rng, 3)
        a, ea = log_ratio_sq(P, sig, 0.0, samples=150_000, seed=8)
        b, eb = log_ratio_sq(P, u @ sig, 0.0, samples=150_000, seed=9)
        assert abs(a - b) <= 3 * (ea + eb) + 1e-6


class TestConformalTheta:
    def test_monomial_against_exact_pieces(self):
        # theta = 2(-(d/2) H_N) - 2 log ||z0^d||_L2, both sides independent
        d, N = 2, 2
        S = mono(3, (2, 0, 0))
        rep = conformal_theta(S, samples=200_000, seed=12)
        expected = 2 * (-(d / 2) * harmonic(N)) - 2 * l2_norm_log_exact(S)
        assert abs(rep["theta"] - expected) <= 3 * rep["stderr"]

    def test_scaling_invariance(self, rng):
        P = random_dense_poly(rng, 3, 2)
        a = conformal_theta(P, samples=50_000, seed=1)
        b = conformal_theta(P * (3.0 + 0j), samples=50_000, seed=1)
        assert a["theta"] == pytest.approx(b["theta"], abs=1e-9)
