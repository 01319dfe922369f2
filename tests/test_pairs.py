"""Pair stability: torus tests, probes, Kempf-Ness machinery, tensored pairs."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepairs.norms import l2_norm_log_exact
from stablepairs.pairs import (
    DescentOptions,
    Pair,
    PolyL2Functional,
    TensoredPair,
    build_stable_test_pair,
    descend,
    kempf_ness_gradient,
    kempf_ness_value,
    polytope_sides,
    randomized_torus_probe,
    stable_probe,
    torus_semistable,
    _divisors,
    _expm_hermitian,
    _random_exact_conjugator,
    _rational_roots_binary,
    _snap_to_signed_permutation,
)
from stablepairs.poly import HomogeneousPolynomial, OnePSG, VariableShape, act
from stablepairs.scalars import QQi, parse_fraction, scalar_to_complex
from stablepairs.weights import (
    TensorVector,
    act_tensor,
    contains,
    minkowski_sum,
    psg_weight,
    scale,
    standard_simplex,
    support,
    weight_polytope,
)
from stablepairs import verify, weights
from stablepairs.verify import (
    _traceless_hermitian,
    binary_form,
    blowup_pair,
    random_dense_poly,
    random_sl,
)

V2 = VariableShape.vector(2)


class TestTorusSemistable:
    def test_x_xsq_fails(self):
        ok, lam = torus_semistable(Pair(binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])))
        assert not ok and list(lam.exponents) == [1, -1]

    def test_blowup_passes(self):
        ok, _ = torus_semistable(blowup_pair())
        assert ok

    def test_one_support_per_part(self, monkeypatch):
        # the sides and the witness check read the same per-part polytopes
        calls = []

        def counting(e, *args):
            calls.append(e)
            return support(e, *args)

        monkeypatch.setattr(weights, "support", counting)
        v, w = binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])
        ok, _ = torus_semistable(Pair(v, w))
        assert not ok
        assert calls == [v, w]

    def test_reflexive(self, rng):
        P = random_dense_poly(rng, 3, 2)
        ok, _ = torus_semistable(Pair(P, P))
        assert ok

    def test_scaling_invariance(self):
        f, g = binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])
        base = torus_semistable(Pair(f, g))[0]
        scaled = torus_semistable(Pair(f * 7, g * -3))[0]
        assert base == scaled

    def test_witness_soundness(self, rng):
        for _ in range(8):
            f = random_dense_poly(rng, 2, int(rng.integers(1, 4)))
            g = random_dense_poly(rng, 2, int(rng.integers(1, 4)))
            pair = Pair(f, g)
            ok, lam = torus_semistable(pair)
            if not ok:
                assert psg_weight(lam, pair.w) > psg_weight(lam, pair.v)


class TestRationalRoots:
    def test_form_vanishing_at_infinity(self):
        # w = 24x^2y + 18xy^2 - 27y^3 = 3y(4x - 3y)(2x + 3y): the non-integer
        # roots survive the zero coefficient of x^3
        w = binary_form(3, [0, 24, 18, -27])
        assert sorted(_rational_roots_binary(w)) == [(-3, 2), (1, 0), (3, 4)]

    def test_roots_at_both_poles_and_a_fraction(self):
        # x y (3x - 2y)(x + y) = 3x^3y + x^2y^2 - 2xy^3: roots [1:0], [0:1], [2:3], [-1:1]
        f = binary_form(4, [0, 3, 1, -2, 0])
        assert sorted(_rational_roots_binary(f)) == [(-1, 1), (0, 1), (1, 0), (2, 3)]

    def test_divisors_match_brute_force(self):
        for n in range(1, 2001):
            expected = [d for d in range(1, n + 1) if n % d == 0]
            assert _divisors(n) == expected
            assert _divisors(-n) == expected

    def test_roots_with_large_prime_constant(self):
        # (x - p y)(x + y): the divisor search of the constant -p stops at sqrt(p)
        p = 1_000_000_007
        f = binary_form(2, [1, 1 - p, -p])
        assert _rational_roots_binary(f) == [(-1, 1), (p, 1)]


class TestRandomizedProbe:
    def test_x_xsq_fails_at_trial_one(self):
        res = randomized_torus_probe(
            Pair(binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])), trials=5, seed=0
        )
        assert res.verdict == "torus-fail" and res.witness["trial"] == 1

    def test_blowup_fifty_trials(self):
        res = randomized_torus_probe(blowup_pair(), trials=50, seed=7)
        assert res.verdict == "no-divergence-observed"

    def test_trivial_rep_closed_orbit(self):
        one = HomogeneousPolynomial.constant(V2, 1)
        xy = binary_form(2, [0, 1, 0])
        res = randomized_torus_probe(Pair(one, xy), trials=25, seed=3)
        assert res.verdict == "no-divergence-observed"

    def test_deterministic_given_seed(self):
        pair = blowup_pair()
        a = randomized_torus_probe(pair, trials=10, seed=5)
        b = randomized_torus_probe(pair, trials=10, seed=5)
        assert (a.verdict, a.witness) == (b.verdict, b.witness)

    def test_root_adapted_finds_hidden_destabilizer(self):
        # (x + 2y, (x + 2y)^2): the standard torus passes, the root-adapted
        # conjugator must fail it within a couple of trials
        f = binary_form(1, [1, 2])
        g = f * f
        assert torus_semistable(Pair(f, g))[0]
        res = randomized_torus_probe(Pair(f, g), trials=10, seed=0)
        assert res.verdict == "torus-fail" and res.witness["trial"] <= 3
        assert res.witness is not None


class TestKempfNess:
    def test_value_identity_pair(self, rng):
        P = random_dense_poly(rng, 2, 2)
        assert kempf_ness_value(np.eye(2), Pair(P, P)) == pytest.approx(0.0, abs=1e-12)

    def test_value_at_identity(self):
        one = HomogeneousPolynomial.constant(V2, 1)
        xy = binary_form(2, [0, 1, 0])
        # ||xy||_L2^2 = 1!1!/3! = 1/6 on P^1
        assert kempf_ness_value(np.eye(2), Pair(one, xy)) == pytest.approx(math.log(1 / 6))

    def test_weight_slope(self, rng):
        for _ in range(5):
            v = random_dense_poly(rng, 2, int(rng.integers(1, 4)))
            w = random_dense_poly(rng, 2, int(rng.integers(1, 4)))
            pair = Pair(v, w)
            a = int(rng.integers(1, 4))
            lam = OnePSG([a, -a])
            vals = [
                kempf_ness_value(np.diag([t ** e for e in lam.exponents]), pair)
                for t in (1e-2, 1e-3)
            ]
            slope = (vals[1] - vals[0]) / (math.log(1e-6) - math.log(1e-4))
            expected = psg_weight(lam, pair.w) - psg_weight(lam, pair.v)
            assert abs(slope - expected) < 0.05

    def test_unitary_invariance(self, rng):
        pair = Pair(random_dense_poly(rng, 3, 2), random_dense_poly(rng, 3, 3))
        sig = random_sl(rng, 3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        assert kempf_ness_value(u @ sig, pair) == pytest.approx(
            kempf_ness_value(sig, pair), abs=1e-9
        )

    def test_gradient_zero_for_identity_pair(self, rng):
        P = random_dense_poly(rng, 2, 2)
        G = kempf_ness_gradient(np.eye(2), Pair(P, P))
        assert np.allclose(G, 0, atol=1e-12)

    def test_gradient_monomial_direction(self):
        one = HomogeneousPolynomial.constant(V2, 1)
        x3 = binary_form(3, [1, 0, 0, 0])
        G = kempf_ness_gradient(np.eye(2), Pair(one, x3))
        # proportional to diag(d, 0) minus its trace part
        d = 3
        direction = np.diag([d, 0.0]) - (d / 2) * np.eye(2)
        ratio = G[0, 0] / direction[0, 0]
        assert ratio.real > 0
        assert np.allclose(G, ratio * direction, atol=1e-10)

    def test_gradient_traceless_hermitian(self, rng):
        pair = Pair(random_dense_poly(rng, 3, 2), random_dense_poly(rng, 3, 2))
        G = kempf_ness_gradient(random_sl(rng, 3), pair)
        assert np.allclose(G, G.conj().T) and abs(np.trace(G)) < 1e-12

    def test_gradient_vs_central_differences(self):
        checks, _ = verify.gradient_check(count=20, seed=2024)
        assert all(c["passed"] for c in checks)

    @pytest.mark.parametrize("seed", [30, 124, 140, 151, 242, 265])
    def test_gradient_check_near_zero_derivative(self, seed):
        # the `verify pairs` schedule at seeds where a directional derivative
        # is near 0, so a second-order stencil's step^2 error broke the bound
        checks, _ = verify.gradient_check(count=10, seed=seed)
        assert all(c["passed"] for c in checks)


class TestDescend:
    def test_x_xsq_diverges_with_exact_witness(self):
        cert = descend(
            Pair(binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])).functional(),
            DescentOptions(max_iters=2000, restarts=1, seed=0),
        )
        assert cert.verdict == "divergence-detected"
        assert cert.witness is not None
        assert sorted(cert.witness["lambda"]) == [-1, 1]

    @pytest.mark.parametrize("m", [1, 2])
    def test_tensored_x_xsq_diverges_with_exact_witness(self, m):
        # (I (x) x^m, (x^2)^(m+1)), q = 1: its witness must carry the
        # Hilbert-Schmidt factor's weight min_i lambda_i on the left side
        x, x2 = binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])
        tp = TensoredPair(Pair(x, x2), m)
        cert = descend(tp.functional(), DescentOptions(max_iters=1500, restarts=1, seed=0))
        assert cert.verdict == "divergence-detected"
        wit = cert.witness
        assert wit["verification"] == "exact"
        assert wit["lambda"] in ([1, -1], [-1, 1])
        lam = OnePSG(wit["lambda"])
        sigma = [[QQi(parse_fraction(c)) for c in row] for row in wit["conjugator"]]
        wx, wx2 = psg_weight(lam, act(sigma, x)), psg_weight(lam, act(sigma, x2))
        assert wit["weights"] == {"v": m * wx + tp.q * min(lam.exponents), "w": (m + 1) * wx2}
        assert wit["weights"]["w"] > wit["weights"]["v"]

    def test_snap_rounds_unit_phases(self):
        # the frame of the Mahler-parts (x, x^2) descent: a permutation times
        # phases, snapped exactly to the nearest fourth roots of unity
        phase = np.exp(1j * np.angle(-0.421 - 0.907j))
        snapped = _snap_to_signed_permutation(np.array([[-1, 0], [0, phase]]))
        assert snapped == [[QQi(-1), QQi(0)], [QQi(0), QQi(0, -1)]]
        assert _snap_to_signed_permutation(np.array([[1, 0], [0, 1j + 1e-7]])) == [
            [QQi(1), QQi(0)], [QQi(0), QQi(0, 1)]]

    def test_snap_rejects_off_unit_entries(self):
        c = math.sqrt(0.5)
        assert _snap_to_signed_permutation(np.array([[c, c], [-c, c]])) is None
        assert _snap_to_signed_permutation(np.array([[1, 0], [0, 0.99]])) is None

    def test_closed_orbit_minimum(self):
        # (1, xy): minimum over diag(t, 1/t) grid sits at t = 1 and equals
        # log ||xy||^2; descent must land on it
        one = HomogeneousPolynomial.constant(V2, 1)
        xy = binary_form(2, [0, 1, 0])
        pair = Pair(one, xy)
        grid = [
            kempf_ness_value(np.diag([t, 1 / t]), pair)
            for t in np.linspace(0.25, 4.0, 31)
        ]
        assert min(grid) == pytest.approx(math.log(1 / 6), abs=1e-9)
        cert = descend(pair.functional(), DescentOptions(max_iters=800, restarts=3, seed=1))
        assert cert.verdict == "no-divergence-observed"
        assert cert.inf_estimate == pytest.approx(math.log(1 / 6), abs=1e-6)

    def test_identity_pair_flat(self, rng):
        P = random_dense_poly(rng, 2, 2)
        cert = descend(Pair(P, P).functional(), DescentOptions(max_iters=50, restarts=1))
        assert cert.inf_estimate == pytest.approx(0.0, abs=1e-12)

    def test_probe_failure_implies_descent_divergence(self, rng):
        # whenever the torus probe fails, the value along the witness
        # direction goes to -infinity monotonically
        f = binary_form(1, [1, 0])
        g = binary_form(2, [1, 0, 0])
        pair = Pair(f, g)
        res = randomized_torus_probe(pair, trials=5, seed=0)
        assert res.verdict == "torus-fail"
        lam = OnePSG(res.witness["lambda"])
        vals = [
            kempf_ness_value(np.diag([float(t) ** e for e in lam.exponents]), pair)
            for t in (1e-1, 1e-2, 1e-3)
        ]
        assert vals[0] > vals[1] > vals[2]


class TestTensoredPair:
    def test_fattening_fails_identical_monomials(self):
        # m = 1, v = w = x^d: q Q_N + N(v) cannot sit inside 2 N(v)
        v = binary_form(3, [1, 0, 0, 0])
        tp = build_stable_test_pair(Pair(v, v), m=1)
        ok, lam = torus_semistable(tp)
        assert not ok and lam is not None

    def test_q_zero_degenerate(self):
        one = HomogeneousPolynomial.constant(V2, 1)
        xy = binary_form(2, [0, 1, 0])
        tp = TensoredPair(Pair(one, xy), m=2)
        assert tp.q == 0
        ok, _ = torus_semistable(tp)
        assert ok

    def test_additivity_contract_against_kron(self, rng):
        # log || sigma . (I^q (x) v^m) ||^2 must equal the kron brute force
        v = TensorVector([("vector", 2)], {(0,): 1.0 + 0j, (1,): 0.5 - 0.25j}, "float")
        pair = Pair(v, TensorVector([("vector", 2)], {(0,): 1.0 + 0j}, "float"))
        tp = TensoredPair(pair, m=2, q=2)
        sig = random_sl(rng, 2, spread=0.7)
        func = tp.functional()
        left = -sum(c * f.log_norm2(sig) for (c, _), f in zip(func.parts, func.norms) if c < 0)
        vec = np.array([1.0 + 0j, 0.5 - 0.25j])
        sv = sig @ vec
        brute = np.kron(
            np.kron(sig.ravel(), sig.ravel()), np.kron(sv, sv)
        )
        assert left == pytest.approx(math.log(float(np.vdot(brute, brute).real)), rel=1e-10)

    def test_minkowski_matches_brute_force(self):
        v = binary_form(2, [1, 0, 3])
        tp = TensoredPair(Pair(v, v * v), m=2, q=2)
        left, _ = polytope_sides(tp.parts)
        expected = minkowski_sum(
            scale(standard_simplex(2), 2), scale(weight_polytope(v), 2)
        )
        assert left == expected


class TestProbeSchedule:
    """Both probes walk one conjugator schedule: identity, root-adapted, random."""

    # v = 5xy + 3y^2, w = 24x^2y + 18xy^2 - 27y^3: w's roots are [1:0], [3:4], [-3:2]
    PAIR = Pair(binary_form(2, [0, 5, 3]), binary_form(3, [0, 24, 18, -27]))
    WITNESS = {"lambda": [1, -1], "conjugator": [["1", "0"], ["-3", "2"]], "trial": 3,
               "verification": "exact"}

    def test_torus_probe_fails_at_third_trial(self):
        cert = randomized_torus_probe(self.PAIR, trials=10, seed=0)
        assert cert.verdict == "torus-fail"
        assert cert.witness == self.WITNESS

    @pytest.mark.parametrize("m", [1, 2])
    def test_stable_probe_fails_at_third_trial(self, m):
        cert = stable_probe(self.PAIR, m, trials=10, seed=0)
        assert cert.verdict == "torus-fail"
        assert cert.witness == self.WITNESS
        assert cert.diagnostics["trials"] == 3


class _Draws:
    """A stand-in generator whose ``integers`` returns prepared matrices in turn."""

    def __init__(self, matrices):
        self.matrices = iter(matrices)

    def integers(self, lo, hi, size):
        m = np.array(next(self.matrices))
        assert m.shape == size and lo <= m.min() and m.max() < hi
        return m


class TestRandomExactConjugator:
    """Random exact conjugators are the draws with a nonzero exact determinant."""

    SINGULAR = [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # float det 6.7e-16, exactly 0
        [[9, 9, 9], [-9, -9, -9], [1, 2, 3]],
        [[0, 0, 0], [1, 2, 3], [4, 5, 6]],
        [[2, 4, 6], [1, 2, 3], [7, -8, 9]],
    ]

    def test_skips_every_singular_draw(self):
        accepted = [[9, -9, 0], [1, 1, 1], [0, 2, -7]]
        got = _random_exact_conjugator(_Draws(self.SINGULAR + [accepted, self.SINGULAR[0]]), 3)
        assert got == [[QQi(x) for x in row] for row in accepted]
        assert all(type(c.re) is int for row in got for c in row)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_first_draw_with_nonzero_exact_determinant(self, n):
        # against sympy's exact determinant over the same stream, draw for
        # draw: n = 1 and 2 reject often (a zero entry, a zero 2 x 2 det)
        rejected = 0
        for seed in range(150):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _random_exact_conjugator(rng, n)
            while True:
                m = ref.integers(-9, 10, size=(n, n))
                if sympy.Matrix(m.tolist()).det() != 0:
                    break
                rejected += 1
            assert got == [[QQi(int(x)) for x in row] for row in m]
            assert rng.bit_generator.state == ref.bit_generator.state
        if n < 3:
            assert rejected


class TestStableProbe:
    def test_x_xsq_inherits_destabilizer(self):
        cert = stable_probe(
            Pair(binary_form(1, [1, 0]), binary_form(2, [1, 0, 0])), m=2, trials=5, seed=0
        )
        assert cert.verdict == "torus-fail"

    def test_vv_unstable(self):
        # the simplex summand fattens the left side beyond (m+1) N(v)
        # whenever N(v) is a point, for every m
        v = binary_form(2, [1, 0, 0])
        for m in (1, 3):
            cert = stable_probe(Pair(v, v), m=m, trials=3, seed=0)
            assert cert.verdict == "torus-fail"

    @pytest.mark.parametrize("m", [1, 2])
    def test_hidden_destabilizer_diverges_with_witness(self, m):
        # (x + 2y, (x + 2y)^2) passes the standard torus; the tensored descent
        # stalls off to infinity and must confirm that with a verified witness
        f = binary_form(1, [1, 2])
        cert = stable_probe(Pair(f, f * f), m, trials=1, seed=0)
        assert cert.verdict == "divergence-detected"
        wit = cert.witness
        assert wit["verification"] in ("exact", "numeric-support+slope")
        assert wit["weights"]["w"] > wit["weights"]["v"]
        if wit["verification"] == "numeric-support+slope":
            assert wit["expected_slope"] == wit["weights"]["w"] - wit["weights"]["v"]
            assert abs(wit["measured_slope"] - wit["expected_slope"]) <= 0.1

    def test_blowup_reported_with_diagnostics(self):
        cert = stable_probe(
            blowup_pair(), m=2, trials=5, seed=0, opts=DescentOptions(max_iters=100, restarts=1)
        )
        # no asserted ground truth: just a verdict with q, m recorded
        assert cert.verdict in ("torus-fail", "no-divergence-observed", "divergence-detected")
        assert cert.diagnostics["q"] == 4 and cert.diagnostics["m"] == 2


@st.composite
def binary_pairs(draw):
    """Exact pairs of binary forms with small integer coefficients."""
    forms = []
    for _ in range(2):
        d = draw(st.integers(1, 4))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
                      .filter(any))
        forms.append(binary_form(d, coeffs))
    return Pair(*forms)


def _verdict(result):
    ok, lam = result
    return ok, None if lam is None else lam.exponents


class TestOneTorusTest:
    @settings(max_examples=100, deadline=None)
    @given(binary_pairs(), st.integers(1, 3), st.integers(0, 3))
    def test_matches_per_kind_containment(self, pair, m, q):
        # the parts-based test against the containments it replaced:
        # N(v) in N(w), and q Q_N + m N(v) in (m+1) N(w)
        expected = contains(weight_polytope(pair.v), weight_polytope(pair.w))
        assert _verdict(torus_semistable(pair)) == _verdict(expected)
        left = scale(weight_polytope(pair.v), m)
        if q > 0:
            left = minkowski_sum(scale(standard_simplex(2), q), left)
        expected = contains(left, scale(weight_polytope(pair.w), m + 1))
        assert _verdict(torus_semistable(TensoredPair(pair, m, q))) == _verdict(expected)


def _row_exponents(rng, n: int, d: int) -> list:
    """A random exponent vector of one matrix row: n entries summing to d."""
    return list(np.bincount(rng.integers(0, n, size=d), minlength=n))


@st.composite
def polynomials(draw):
    """Float polynomials of every kind the functional takes: vector and matrix
    shapes, matrices mixing two row-degree profiles, and constants."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["vector", "matrix", "two-profile", "constant"]))
    rows = 1 if kind == "vector" else draw(st.integers(2 if kind == "two-profile" else 1, 3))
    shape = VariableShape.vector(n) if kind == "vector" else VariableShape.matrix(rows, n)
    if kind == "constant":
        return HomogeneousPolynomial.constant(shape, complex(*rng.standard_normal(2)), "float")
    degrees = [int(d) for d in rng.integers(0, 4, size=rows)]
    degrees[0] = max(degrees[0], 1)
    profiles = [degrees]
    if kind == "two-profile":
        # move one unit of degree from the first row: same total, new profile
        profiles.append([degrees[0] - 1, degrees[1] + 1] + degrees[2:])
    terms = {}
    for profile in profiles:
        for _ in range(int(rng.integers(1, 6))):
            exp = sum((_row_exponents(rng, n, d) for d in profile), [])
            terms[tuple(exp)] = complex(*rng.standard_normal(2))
    return HomogeneousPolynomial(shape, sum(degrees), terms, "float")


@st.composite
def tensors(draw):
    """Float tensor vectors with one to three vector or wedge-square slots."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    kinds = draw(st.lists(st.sampled_from(["vector", "wedge2"]), min_size=1, max_size=3))
    coords = {}
    for _ in range(int(rng.integers(1, 6))):
        idx = []
        for kind in kinds:
            if kind == "vector":
                idx.append(int(rng.integers(0, n)))
            else:
                i, j = sorted(rng.choice(n, size=2, replace=False))
                idx.append((int(i), int(j)))
        coords[tuple(idx)] = complex(*rng.standard_normal(2))
    return TensorVector([(k, n) for k in kinds], coords, "float")


@st.composite
def group_elements(draw, n: int):
    """A random SL(n) element, or diag(t^lambda) for an integer lambda summing to 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_sl(rng, n, spread=draw(st.sampled_from([0.3, 1.0])))
    lam = [int(a) for a in rng.integers(-3, 4, size=n - 1)]
    lam.append(-sum(lam))
    t = draw(st.sampled_from([1e-2, 0.3, 2.0]))
    return np.diag([t ** a for a in lam]).astype(np.complex128)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestDenseFunctional:
    """The dense symmetric-power functional against the sparse ``act`` and
    ``act_tensor``, and its moment against central differences.

    ``act`` and ``act_tensor`` run the same ``_sym_powers`` recursion as the
    functional, so the value checks cover its orthonormal scaling, block
    layout and log constants; the recursion itself is checked against the
    term-by-term evaluator in ``test_poly.TestAct``."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_polynomial_value_matches_sparse_act(self, data):
        P = data.draw(polynomials())
        sig = data.draw(group_elements(P.shape.cols))
        value = 0.5 * PolyL2Functional(P).log_norm2(sig)
        assert _close(value, l2_norm_log_exact(act(sig, P)), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tensor_value_matches_sparse_act(self, data):
        x = data.draw(tensors())
        sig = data.draw(group_elements(x.group_size))
        value = PolyL2Functional(x).log_norm2(sig)
        moved = [scalar_to_complex(c) for c in act_tensor(sig, x).coords.values()]
        assert _close(value, math.log(sum(z.real * z.real + z.imag * z.imag for z in moved)),
                      1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_moment_matches_central_differences(self, data):
        e = data.draw(st.one_of(polynomials(), tensors()))
        n = e.shape.cols if isinstance(e, HomogeneousPolynomial) else e.group_size
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sig = random_sl(rng, n, spread=0.5)
        H = _traceless_hermitian(rng, n) + 0.5 * np.eye(n)
        func = PolyL2Functional(e)
        eps = 1e-5
        fd = (func.log_norm2(_expm_hermitian(eps * H) @ sig)
              - func.log_norm2(_expm_hermitian(-eps * H) @ sig)) / (2 * eps)
        an = 2.0 * float(np.trace(H @ func.moment(sig).T).real)
        assert _close(an, fd, 1e-6)
