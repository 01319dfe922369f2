"""Acceptance criteria, one test per criterion, stated tolerances pinned.

Each test registers a PASS/FAIL line that the terminal summary prints.  The
draws and tolerances of every criterion except 8 live in
``stablepairs.verify``, which the CLI `verify` suites run at small sizes;
each test here calls its criterion with the pinned full sizes and seeds, and
keeps only the wall-clock bounds of criteria 1 and 10.
Criterion 13 is asserted in the semistability direction
deg(Delta) w_lam(R) - deg(R) w_lam(Delta) >= 0 (see the decisions ledger:
the literally transcribed order is contradicted on the conic by the
min-weight convention the weight operation itself is specified with).
Criterion 11 uses the squared Mahler convention the whole energy module
declares (log tan^2), which the quadrature oracle pins empirically.
"""

import itertools
import math
import time

import numpy as np

from conftest import record_acceptance
from stablepairs import verify
from stablepairs.pairs import Pair, TensoredPair
from stablepairs.poly import HomogeneousPolynomial, VariableShape
from stablepairs.verify import random_dense_poly, random_sl
from stablepairs.weights import (
    LatticePolytope,
    TensorVector,
    WeightCharacter,
    minkowski_sum,
    scale,
    standard_simplex,
    weight_polytope,
)


def _record_and_assert(number, title, passed, detail="", checks=()):
    """Record the summary line; failed checks replace its detail."""
    failed = [f"{c['name']}: {c['detail']}" for c in checks if not c["passed"]]
    if failed:
        passed, detail = False, "; ".join(failed)
    record_acceptance(number, title, passed, detail)
    assert passed, f"criterion {number}: {title} -- {detail}"


def test_criterion_01_monomial_mahler():
    checks, worst = verify.monomial_mahler(
        cases=list(itertools.product(range(1, 5), range(1, 7))), per_case=None,
        samples=200_000, seed=1000,
    )
    _record_and_assert(
        1, "monomial Mahler identity", worst["case_s"] < 10.0,
        f"{worst['monomials']} monomials ({worst['retests']} retested), "
        f"worst dev {worst['dev_se']:.2f} se, max se {worst['stderr']:.4f}, "
        f"max case {worst['case_s']:.2f}s",
        checks,
    )


# criteria 2 and 3 share the 100 polynomials drawn from seed 42
ARESTOV_POLYS = {"count": 100, "nvars": (2, 5), "degrees": (1, 6), "samples": 60_000, "seed": 42}


def test_criterion_02_arestov():
    checks, worst = verify.arestov(
        **ARESTOV_POLYS, sample_seed=7000,
        witnesses=((1, 3), (2, 4), (3, 5)), witness_samples=100_000,
    )
    _record_and_assert(
        2, "Arestov sandwich on 100 random polynomials + equality witness", True,
        f"min slackened margins {worst['lower']:.4f}/{worst['upper']:.4f}", checks,
    )


def test_criterion_03_jensen():
    checks, worst = verify.jensen(**ARESTOV_POLYS, sample_seed=8000)
    _record_and_assert(
        3, "Jensen ordering L0 <= L2", True, f"min slackened margin {worst['margin']:.4f}",
        checks,
    )


def test_criterion_04_weight_limit_consistency():
    checks, worst = verify.weight_slopes(count=20, nvars=(2, 5), degrees=(1, 6), seed=11)
    _record_and_assert(
        4, "log-norm slopes along 20 random 1-PSGs equal exact weights", True,
        f"max deviation {worst['deviation']:.4f}", checks,
    )


def test_criterion_05_forms_and_degrees():
    checks, worst = verify.forms_and_degrees(trials=20, seed=5)
    _record_and_assert(
        5, "conic Hurwitz form, Chow/Hurwitz degrees, exact cross-construction ratio", True,
        f"ratio set {worst['ratios']}", checks,
    )


def test_criterion_06_binary_forms_no_semistable_pairs():
    checks, worst = verify.binary_destabilisers(
        count=25, degrees=(2, 5), trials=10, seed=77, sample_seed=600
    )
    _record_and_assert(
        6, "verified destabilizer for 25 random e = d-1 pairs within 10 trials", True,
        f"worst trial index {worst['trial']}", checks,
    )


def test_criterion_07_blowup_pair():
    checks, worst = verify.blowup_pair_evidence(trials=50, seed=505)
    _record_and_assert(
        7, "blow-up pair: 50-trial probe passes, no divergence in descent (evidence only)", True,
        f"descent inf {worst['inf_estimate']:.6f} (= log 2 at the unitary locus), "
        f"{worst['iterations']} total iterations",
        checks,
    )


def test_criterion_08_tensored_bookkeeping():
    ok = True
    detail = []
    for N in (1, 2):
        base = [tuple(1 if j == i else 0 for j in range(N + 1)) for i in range(N + 1)]
        rng = np.random.default_rng(30 + N)
        shape = VariableShape.vector(N + 1)
        d = 2
        v = random_dense_poly(rng, N + 1, d)
        v_exact = HomogeneousPolynomial(
            shape, d, {e: int(rng.integers(1, 4)) for e in v.terms}, "exact"
        )
        supp = [c.raw for c in weight_polytope(v_exact).points]
        for q, m in ((1, 1), (2, 2), (2, 1), (1, 2)):
            lhs = minkowski_sum(
                scale(standard_simplex(N + 1), q), scale(weight_polytope(v_exact), m)
            )
            total = [(0,) * (N + 1)]
            for _ in range(q):
                total = [tuple(x + y for x, y in zip(t, b)) for t in total for b in base]
            for _ in range(m):
                total = [tuple(x + y for x, y in zip(t, s)) for t in total for s in supp]
            rhs = LatticePolytope([WeightCharacter(t) for t in set(total)])
            if not lhs == rhs:
                ok = False
                detail.append(f"N={N} q={q} m={m}")
    # log-norm additivity against an explicit Kronecker expansion
    rng = np.random.default_rng(99)
    vec = np.array([1.0 + 0.5j, -0.25 + 0.1j])
    v_t = TensorVector([("vector", 2)], {(0,): vec[0], (1,): vec[1]}, "float")
    w_t = TensorVector([("vector", 2)], {(0,): 1.0 + 0j}, "float")
    for q, m in ((1, 1), (2, 2)):
        tp = TensoredPair(Pair(v_t, w_t), m=m, q=q)
        sig = random_sl(rng, 2, spread=0.6)
        left, _ = tp.log_norm2_sides(sig)
        brute = np.array([1.0])
        for _ in range(q):
            brute = np.kron(brute, sig.ravel())
        sv = sig @ vec
        for _ in range(m):
            brute = np.kron(brute, sv)
        expected = math.log(float(np.vdot(brute, brute).real))
        if abs(left - expected) > 1e-9:
            ok = False
            detail.append(f"kron q={q} m={m}: {left} vs {expected}")
    _record_and_assert(
        8, "tensored-pair Minkowski and log-norm additivity = brute force",
        ok, "; ".join(detail) if detail else "exact agreement",
    )


def test_criterion_09_gradient_check():
    checks, worst = verify.gradient_check(count=50, seed=13)
    _record_and_assert(
        9, "Kempf-Ness gradient vs central differences on 50 instances", True,
        f"max rel err {worst['rel_err']:.2e}", checks,
    )


def test_criterion_10_kenergy_oracle_equivalence():
    t0 = time.perf_counter()
    checks, worst = verify.kenergy_vs_oracle(
        curve_degrees=(2, 3), count=5, samples=200_000, grid=48, seed=21, sample_seed=4000
    )
    elapsed = time.perf_counter() - t0
    _record_and_assert(
        10, "Theorem: algebraic K-energy = quadrature oracle (conic + cubic)", elapsed < 300.0,
        f"worst diff/tol {worst['diff_tol']:.3f}, {elapsed:.1f}s", checks,
    )


def test_criterion_11_phillipon_soule():
    checks, worst = verify.phillipon_soule(
        count=10, samples=200_000, grid=48, seed=23, sample_seed=5000
    )
    _record_and_assert(
        11, "-degR F0(oracle) = log ||sigma R||_0^2 on 10 random sigma", True,
        f"worst diff/tol {worst['diff_tol']:.3f}", checks,
    )


def test_criterion_12_curve_geometry_sanity():
    checks, _ = verify.curve_geometry(curve_degrees=(2, 3), grid=64)
    _record_and_assert(
        12, "oracle V = d (1e-3) and mu = 2/d (1e-2) for d = 2, 3", True,
        "; ".join(c["detail"] for c in checks), checks,
    )


def test_criterion_13_slope_nonnegativity():
    checks, worst = verify.slope_signs(curve_degrees=(2, 3), count=20, seed=31)
    negatives = worst["negatives"]
    _record_and_assert(
        13, "semistability slopes degDelta w(R) - degR w(Delta) >= 0, d = 2, 3", True,
        f"negatives: {negatives}" if negatives else "all nonnegative", checks,
    )
