"""Quadrature oracle: reference geometry and internal consistency."""

import tracemalloc

import numpy as np
import pytest

from stablepairs.errors import NonConvergenceError, PreconditionError
from stablepairs import oracle
from stablepairs.oracle import (
    GRID_POINT_BUDGET,
    REFINE_TOL,
    _CurveCharts,
    _run_grid,
    curve_geometry_oracle,
    wedge_square_matrix,
)
from stablepairs.verify import random_sl

ORACLE_KEYS = ("V", "mu", "J", "F0", "nu", "gauss_bonnet_drift")


def _direct_grid(curve, sigma, n, t_nodes):
    """`_run_grid` from explicit matrices, plus the F0 path integral.

    Each t-node forms exp(tH) and /\\^2 exp(tH), maps gamma and w through
    them, and takes g_w as the Gram-determinant pullback
    (|w|^2 |w'|^2 - |<w', w>|^2) / |w|^4; phi_sigma, J and F0 use sigma
    itself.  Returns (the `_run_grid` dict, -(1/V) int_0^1 int phidot_t
    omega_t dt on the same Gauss-Legendre nodes).
    """
    charts = _CurveCharts(curve)
    pts, wq = charts.grids(n, n)
    wq = np.tile(wq, 2)
    Z, Zp, Wz, Wzp = charts.chart_values(pts, np.eye(curve.N + 1))
    vals, vecs = np.linalg.eigh(sigma.conj().T @ sigma)
    lam = 0.5 * np.log(vals)
    H = (vecs * lam) @ vecs.conj().T

    def sq(x):
        return np.sum(np.abs(x) ** 2, axis=0)

    def geometry(A):
        A2 = wedge_square_matrix(A)
        v, vp, w, wp = A @ Z, A @ Zp, A2 @ Wz, A2 @ Wzp
        gram = sq(w) * sq(wp) - np.abs(np.sum(wp * w.conj(), axis=0)) ** 2
        dlog = np.sum(vp * v.conj(), axis=0) / sq(v)
        return v, dlog, sq(w) / sq(v) ** 2, gram / sq(w) ** 2

    v_ref, dlog_ref, g_ref, gw_ref = geometry(np.eye(curve.N + 1))
    V = g_ref @ wq
    mu = (2.0 * g_ref - gw_ref) @ wq / V
    v_s, dlog_s, _, _ = geometry(sigma)
    J = np.abs(dlog_s - dlog_ref) ** 2 @ wq / (2.0 * V)
    F0 = J - (np.log(sq(v_s)) - np.log(sq(v_ref))) * g_ref @ wq / V
    tn, tw = np.polynomial.legendre.leggauss(t_nodes)
    nu = path = drift = 0.0
    for t, wt in zip(0.5 * (tn + 1.0), 0.5 * tw):
        v, _, g, gw = geometry((vecs * np.exp(t * lam)) @ vecs.conj().T)
        phidot = 2.0 * np.real(np.sum((H @ v) * v.conj(), axis=0)) / sq(v)
        nu += wt * (phidot * (2.0 - gw / g - mu) * g) @ wq
        path += wt * (phidot * g) @ wq
        drift = max(drift, abs(gw @ wq - (2 * curve.d - 2)))
    out = {"V": V, "mu": mu, "J": J, "F0": F0, "nu": -nu / V, "gauss_bonnet_drift": drift}
    return out, -path / V


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
    def test_f0_equals_path_integral(self, conic_curve, cubic_curve, rng):
        # F0(phi_sigma) = J - (1/V) int phi omega_0 against its variational
        # definition -(1/V) int_0^1 int phidot_t omega_t dt along exp(tH)
        for curve in (conic_curve, cubic_curve):
            sig = random_sl(rng, curve.N + 1, spread=0.3)
            res = _run_grid(_CurveCharts(curve), sig, 48, 48, 33)
            _, path = _direct_grid(curve, sig, 48, 33)
            assert abs(res["F0"] - path) < 1e-8

    def test_refined_grid_agrees(self, conic_curve, rng):
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


class TestSpectralGrid:
    def test_matches_direct_evaluation(self, conic_curve, cubic_curve, rng):
        for curve in (conic_curve, cubic_curve):
            sig = random_sl(rng, curve.N + 1, spread=0.3)
            res = _run_grid(_CurveCharts(curve), sig, 24, 24, 9)
            ref, _ = _direct_grid(curve, sig, 24, 9)
            for key in ORACLE_KEYS:
                assert abs(res[key] - ref[key]) < 1e-12, key

    def test_gauss_bonnet_drift_healthy(self, conic_curve, cubic_curve, rng):
        # the sentinel is at rounding level on resolved grids, whatever
        # grids the oracle's schedule runs, and the oracle reports values
        # as good as a resolved grid's
        for curve in (conic_curve, cubic_curve):
            sig = random_sl(rng, curve.N + 1, spread=0.3)
            charts = _CurveCharts(curve)
            coarse, fine = (_run_grid(charts, sig, n, n, 33) for n in (96, 144))
            assert coarse["gauss_bonnet_drift"] < 1e-10
            assert fine["gauss_bonnet_drift"] < 1e-10
            reported = curve_geometry_oracle(sig, curve).diagnostics["grids"][-1]
            for key in ("V", "mu", "J", "F0", "nu"):
                assert abs(reported[key] - fine[key]) < REFINE_TOL, key

    def test_gauss_bonnet_drift_flags_unresolved_curvature(self, cubic_curve):
        # spread 1.0 on the twisted cubic: nu is not resolved on 96/144
        # grids, while V = 3 is; the sentinel sees it and falls as the grid
        # refines
        sig = random_sl(np.random.default_rng(1), 4, spread=1.0)
        charts = _CurveCharts(cubic_curve)
        coarse, fine = (_run_grid(charts, sig, n, n, 33) for n in (96, 144))
        assert abs(coarse["V"] - 3.0) < 1e-10
        assert coarse["gauss_bonnet_drift"] > 0.05
        assert 1e-3 < fine["gauss_bonnet_drift"] < coarse["gauss_bonnet_drift"]
        # refining until the sentinel also settles, within the budget, the
        # oracle reaches the nu of a 324^2 grid
        rep = curve_geometry_oracle(sig, cubic_curve)
        grids = rep.diagnostics["grids"]
        assert sum(g["n_r"] * g["n_th"] for g in grids) <= GRID_POINT_BUDGET
        assert grids[-1]["gauss_bonnet_drift"] <= REFINE_TOL
        assert abs(rep.k_energy - _run_grid(charts, sig, 324, 324, 33)["nu"]) < REFINE_TOL
        assert rep.diagnostics["t_nodes"] == 33

    def test_grid_memory_is_bounded(self, cubic_curve):
        # a grid is reduced over chunks of points with no table per pair of
        # wedge coordinates, so nine times the points of the pinned hard
        # sigma's 96^2 grid cost little more memory than it
        charts = _CurveCharts(cubic_curve)
        sig = random_sl(np.random.default_rng(1), 4, spread=1.0)
        peaks = []
        for n in (96, 288):
            tracemalloc.start()
            try:
                _run_grid(charts, sig, n, n, 33)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_budget_exhausted(self, cubic_curve, monkeypatch):
        # the sigma above needs 132 192 grid points from 24^2; with fewer
        # the error carries every grid's results, not only their sizes
        run = []
        monkeypatch.setattr(oracle, "GRID_POINT_BUDGET", 50_000)
        monkeypatch.setattr(oracle, "_run_grid", lambda *a: run.append(a[2:4]) or _run_grid(*a))
        sig = random_sl(np.random.default_rng(1), 4, spread=1.0)
        with pytest.raises(NonConvergenceError) as exc:
            curve_geometry_oracle(sig, cubic_curve)
        grids = exc.value.diagnostics["grids"]
        assert len(run) > 1
        assert [(g["n_r"], g["n_th"]) for g in grids] == run
        assert all(all(k in g for k in ORACLE_KEYS) for g in grids)
        assert sum(g["n_r"] * g["n_th"] for g in grids) <= 50_000
        assert exc.value.diagnostics["t_nodes"] == 33

    def test_non_finite_grid_stops_at_once(self, conic_curve):
        # exp(2t lam) overflows: no later grid can mend the first
        with pytest.raises(NonConvergenceError) as exc:
            curve_geometry_oracle(np.diag([1e200, 1e-200, 1.0]), conic_curve)
        grids = exc.value.diagnostics["grids"]
        assert [(g["n_r"], g["n_th"]) for g in grids] == [(24, 24)]
        assert not all(np.isfinite(grids[0][k]) for k in ORACLE_KEYS)


class TestWedgeMatrix:
    def test_multiplicative(self, rng):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(
            wedge_square_matrix(A @ B), wedge_square_matrix(A) @ wedge_square_matrix(B)
        )

    def test_identity(self):
        assert np.allclose(wedge_square_matrix(np.eye(3)), np.eye(3))
