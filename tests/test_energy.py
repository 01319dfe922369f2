"""Energy formulas against the oracle and exact weights."""

import json
import math

import numpy as np
import pytest

from stablepairs import energy
from stablepairs.energy import (
    MahlerSampleFunctional,
    asymptotic_report,
    aubin_f0_algebraic,
    coercivity_value,
    k_energy_algebraic,
    log_tan_dist_p,
    orbit_distance,
    xpair_functional,
)
from stablepairs.norms import harmonic
from stablepairs.oracle import curve_geometry_oracle
from stablepairs.pairs import DescentOptions, StabilityCertificate, _expm_hermitian
from stablepairs.poly import HomogeneousPolynomial, OnePSG, VariableShape
from stablepairs.serialize import dump_json
from stablepairs.verify import _traceless_hermitian, random_sl
from stablepairs.weights import psg_weight


class TestLogTanDist:
    def test_zero_at_identity(self, conic_xpair):
        rep = log_tan_dist_p(np.eye(3), conic_xpair, 0.0, samples=50_000, seed=0)
        assert rep["log_tan_sq_dist"] == pytest.approx(0.0, abs=1e-12)

    def test_weight_slope(self, conic_xpair):
        # slope along lambda(t) in log t^2 equals the exact weight combination
        lam = OnePSG([2, -1, -1])
        vals = []
        for t in (1e-1, 1e-2):
            sig = np.diag([float(t) ** a for a in lam.exponents])
            vals.append(
                log_tan_dist_p(sig, conic_xpair, 0.0, samples=150_000, seed=5)[
                    "log_tan_sq_dist"
                ]
            )
        slope = (vals[1] - vals[0]) / (math.log(1e-4) - math.log(1e-2))
        expected = conic_xpair.deg_r * psg_weight(
            lam, conic_xpair.hyperdiscriminant
        ) - conic_xpair.deg_delta * psg_weight(lam, conic_xpair.resultant)
        assert abs(slope - expected) < 0.05

    def test_p_zero_vs_p_two_arestov_bound(self, conic_xpair, rng):
        # per component the p = 0 and p = 2 logs differ by at most the
        # Arestov constant (d/2) H_N, propagated through the exponents
        sig = random_sl(rng, 3, spread=0.3)
        r0 = log_tan_dist_p(sig, conic_xpair, 0.0, samples=100_000, seed=3)
        r2 = log_tan_dist_p(sig, conic_xpair, 2.0, samples=100_000, seed=3)
        m5 = 2.0 * harmonic(5)  # log-squared Arestov span on P^5, per unit degree
        bound = (
            conic_xpair.deg_r * conic_xpair.deg_delta * m5
            + conic_xpair.deg_delta * conic_xpair.deg_r * m5
        )
        assert abs(r0["log_tan_sq_dist"] - r2["log_tan_sq_dist"]) <= bound

    def test_missing_delta_rejected(self):
        from stablepairs.forms import build_x_pair
        from stablepairs.verify import binary_form
        from stablepairs.forms import RationalCurve
        from stablepairs.errors import PreconditionError

        line = RationalCurve(1, 1, [binary_form(1, [1, 0]), binary_form(1, [0, 1])])
        xp = build_x_pair(line)
        with pytest.raises(PreconditionError):
            log_tan_dist_p(np.eye(2), xp, 0.0)


class TestKEnergy:
    def test_zero_at_identity(self, conic_xpair):
        rep = k_energy_algebraic(np.eye(3), conic_xpair, samples=50_000, seed=0)
        assert rep["k_energy"] == pytest.approx(0.0, abs=1e-12)

    def test_unitary_within_error(self, conic_xpair, rng):
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        rep = k_energy_algebraic(u, conic_xpair, samples=100_000, seed=1)
        assert abs(rep["k_energy"]) <= 3 * rep["stderr"] + 1e-6

    def test_oracle_equivalence_conic(self, conic_xpair, conic_curve, rng):
        for i in range(2):
            sig = random_sl(rng, 3, spread=0.35)
            orc = curve_geometry_oracle(sig, conic_curve, grid=48)
            alg = k_energy_algebraic(sig, conic_xpair, samples=200_000, seed=20 + i)
            tol = max(0.02 * abs(orc.k_energy), 1e-2)
            assert abs(orc.k_energy - alg["k_energy"]) <= tol

    def test_psg_slope_matches_weights(self, conic_xpair):
        lam = OnePSG([1, 0, -1])
        vals = []
        for t in (1e-1, 1e-2):
            sig = np.diag([float(t) ** a for a in lam.exponents])
            vals.append(
                k_energy_algebraic(sig, conic_xpair, samples=100_000, seed=9)["k_energy"]
            )
        slope = (vals[1] - vals[0]) / (math.log(1e-4) - math.log(1e-2))
        expected = (
            conic_xpair.deg_r * psg_weight(lam, conic_xpair.hyperdiscriminant)
            - conic_xpair.deg_delta * psg_weight(lam, conic_xpair.resultant)
        ) / (conic_xpair.d ** 2 * 2)
        assert abs(slope - expected) < 0.05


class TestAubin:
    def test_zero_at_identity(self, conic_xpair):
        rep = aubin_f0_algebraic(np.eye(3), conic_xpair, samples=50_000, seed=0)
        assert rep["aubin_f0"] == pytest.approx(0.0, abs=1e-12)

    def test_slope_is_resultant_weight(self, conic_xpair):
        lam = OnePSG([2, -1, -1])
        vals = []
        for t in (1e-1, 1e-2):
            sig = np.diag([float(t) ** a for a in lam.exponents])
            vals.append(
                aubin_f0_algebraic(sig, conic_xpair, samples=100_000, seed=4)["aubin_f0"]
            )
        slope = (vals[1] - vals[0]) / (math.log(1e-4) - math.log(1e-2))
        # F0 = -log||sig R||_0^2 / deg R and the squared log has slope w
        # in log t^2, so F0 has slope -w/degR
        expected = -psg_weight(lam, conic_xpair.resultant) / conic_xpair.deg_r
        assert abs(slope - expected) < 0.05

    def test_oracle_equivalence(self, conic_xpair, conic_curve, rng):
        sig = random_sl(rng, 3, spread=0.35)
        orc = curve_geometry_oracle(sig, conic_curve, grid=48)
        alg = aubin_f0_algebraic(sig, conic_xpair, samples=200_000, seed=7)
        assert abs(orc.aubin_f0 - alg["aubin_f0"]) <= 3 * (alg["stderr"] + 1e-3)


class TestCoercivity:
    def test_identity_value(self, conic_xpair):
        rep = coercivity_value(np.eye(3), conic_xpair, m=2, k=1, samples=50_000, seed=0)
        q = conic_xpair.deg_r * conic_xpair.deg_delta
        # at sigma = I only the Hilbert-Schmidt term survives: -pref*q*log(N+1)
        expected = -rep["prefactor"] * q * math.log(3)
        assert rep["coercivity"] == pytest.approx(expected, abs=1e-9)
        assert rep["q"] == q and rep["hilbert_schmidt_sq"] == pytest.approx(3.0)

    def test_k_scaling(self, conic_xpair):
        a = coercivity_value(np.eye(3), conic_xpair, m=1, k=1, samples=50_000, seed=0)
        b = coercivity_value(np.eye(3), conic_xpair, m=1, k=2, samples=50_000, seed=0)
        assert b["prefactor"] == pytest.approx(a["prefactor"] / 8)


class TestMahlerSampleFunctional:
    def test_gradient_vs_fd(self, conic_xpair, rng):
        func = xpair_functional(conic_xpair, p=0.0, samples=4000, seed=3)
        sig = random_sl(rng, 3, spread=0.4)
        G = func.gradient(sig)
        worst = 0.0
        for _ in range(4):
            H = _traceless_hermitian(rng, 3)
            eps = 1e-5
            fd = (
                func.value(_expm_hermitian(eps * H) @ sig)
                - func.value(_expm_hermitian(-eps * H) @ sig)
            ) / (2 * eps)
            an = float(np.vdot(H, G).real)
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-9))
        assert worst < 1e-5

    def test_gradient_vs_fd_at_p2(self, conic_xpair):
        # at p > 0 the moment weights each sample by its softmax share of
        # exp(p lv / 2); criterion 9's stencil and bound on one sample set
        rng = np.random.default_rng(11)
        func = xpair_functional(conic_xpair, p=2.0, samples=4000, seed=3)
        sig = random_sl(rng, 3, spread=0.4)
        G = func.gradient(sig)
        worst = 0.0
        for _ in range(4):
            H = _traceless_hermitian(rng, 3)
            eps = 1e-4
            f = {k: func.value(_expm_hermitian(k * eps * H) @ sig) for k in (-2, -1, 1, 2)}
            fd = (-f[2] + 8 * f[1] - 8 * f[-1] + f[-2]) / (12 * eps)
            an = float(np.vdot(H, G).real)
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-9))
        assert worst < 1e-5

    def test_polynomial_missing_variables(self):
        # x0^2 on P^2: the partial derivatives in x1 and x2 have no terms
        P = HomogeneousPolynomial.monomial(VariableShape.vector(3), (2, 0, 0), 1, "exact")
        f = MahlerSampleFunctional(P, samples=2000, seed=1)
        sig = random_sl(np.random.default_rng(5), 3)
        assert math.isfinite(f.log_norm2(sig))
        assert np.all(np.isfinite(f.moment(sig)))
        # at the identity, column j of the moment is the x_j-derivative part
        mom = f.moment(np.eye(3, dtype=complex))
        assert np.all(np.isfinite(mom))
        assert np.all(mom[:, 1:] == 0)

    def test_p2_matches_exact_gram_value(self, conic_xpair, rng):
        from stablepairs.norms import l2_norm_log_exact

        f = MahlerSampleFunctional(conic_xpair.hyperdiscriminant, p=2.0, samples=200_000, seed=6)
        val = f.log_norm2(np.eye(3))
        exact = 2.0 * l2_norm_log_exact(conic_xpair.hyperdiscriminant)
        assert val == pytest.approx(exact, abs=0.02)


class TestOrbitDistance:
    def test_conic_bounded(self, conic_xpair):
        cert = orbit_distance(
            conic_xpair, 0.0, opts=DescentOptions(max_iters=150, restarts=2, seed=0),
            samples=4000,
        )
        assert cert.verdict == "no-divergence-observed"
        assert math.isfinite(cert.inf_estimate)

    def test_identical_components_zero(self, conic_xpair):
        # v = w built from the same form: distance identically zero
        from stablepairs.pairs import PairFunctional

        R = conic_xpair.resultant
        f = MahlerSampleFunctional(R, 0.0, samples=2000, seed=1)
        func = PairFunctional([(1, R), (-1, R)], 3, [f, f])
        assert func.value(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def _planted(norm):
        # an XPair-shaped functional with a torus destabilizer: swap the
        # roles so the v-side strictly dominates; the divergence must carry
        # a verified witness
        from stablepairs.pairs import PairFunctional, descend
        from stablepairs.verify import binary_form

        x, x2 = binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])
        func = PairFunctional([(1, x2), (-1, x)], 2, [norm(x2, 0), norm(x, 1)])
        cert = descend(func, DescentOptions(max_iters=1500, restarts=1, seed=0))
        assert cert.verdict == "divergence-detected"
        assert cert.witness["verification"] in ("exact", "numeric-support+slope")
        assert sorted(cert.witness["lambda"]) == [-1, 1]
        assert cert.witness["weights"]["w"] > cert.witness["weights"]["v"]
        return cert

    def test_planted_destabilizer_diverges(self):
        from stablepairs.pairs import PolyL2Functional

        self._planted(lambda P, seed: PolyL2Functional(P))

    @staticmethod
    def _mahler_norm(P, seed):
        # the X-pair functional's sample Mahler norms
        return MahlerSampleFunctional(P, 0.0, samples=2000, seed=seed)

    def test_planted_destabilizer_diverges_mahler_parts(self):
        self._planted(self._mahler_norm)

    def test_planted_mahler_parts_witness_is_exact(self):
        # the descent ends on a phased permutation frame, which snaps exactly;
        # which unit phases it ends on is set by float rounding over the
        # 1500 steps, so only the shape of the frame is pinned
        cert = self._planted(self._mahler_norm)
        assert cert.witness["verification"] == "exact"
        assert cert.witness["lambda"] == [1, -1]
        conj = cert.witness["conjugator"]
        support = [[x != "0" for x in row] for row in conj]
        assert all(sum(row) == 1 for row in support)
        assert all(sum(col) == 1 for col in zip(*support))
        assert {x for row in conj for x in row} - {"0"} <= {"1", "-1", "0+1i", "0+-1i"}


class TestAsymptoticReport:
    def test_single_row(self, conic_xpair):
        rep = asymptotic_report(
            [(1, conic_xpair)], opts=DescentOptions(max_iters=60, restarts=1, seed=0),
            samples=2000,
        )
        assert len(rep["rows"]) == 1
        row = rep["rows"][0]
        assert row["per_k2n"] == pytest.approx(row["neg_log_tan_sq_dist"])

    def test_row_without_infimum_is_null(self, conic_xpair, monkeypatch):
        monkeypatch.setattr(
            energy, "orbit_distance",
            lambda *a, **k: StabilityCertificate(verdict="no-divergence-observed"),
        )
        rep = asymptotic_report([(1, conic_xpair)])
        row = json.loads(dump_json(rep))["rows"][0]
        for key in ("neg_log_tan_sq_dist", "per_k2n", "per_k2n_plus_1", "per_d2"):
            assert row[key] is None

    def test_two_degrees_trend(self, conic_xpair, cubic_xpair):
        rep = asymptotic_report(
            [(1, conic_xpair), (2, cubic_xpair)],
            opts=DescentOptions(max_iters=60, restarts=1, seed=0),
            samples=2000,
        )
        assert [r["k"] for r in rep["rows"]] == [1, 2]
        for row in rep["rows"]:
            assert math.isfinite(row["per_k2n_plus_1"])
