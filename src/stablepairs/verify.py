"""Named verification suites behind the CLI `verify` subcommand.

Each suite returns a list of {"name", "passed", "detail"} records; a suite
fails when any record does.  These are the same checks as the acceptance
tests, sized to run in seconds; the pytest suite runs them at full size.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List

import numpy as np

from .energy import aubin_f0_algebraic, k_energy_algebraic
from .errors import SchemaError
from .forms import HypersurfaceVariety, RationalCurve, build_x_pair, chow_form_hypersurface
from .norms import arestov_check, harmonic, jensen_check, lp_norm, sup_norm
from .oracle import curve_geometry_oracle
from .pairs import (
    DescentOptions,
    Pair,
    PairFunctional,
    descend,
    kempf_ness_gradient,
    randomized_torus_probe,
    torus_semistable,
)
from .poly import HomogeneousPolynomial, OnePSG, VariableShape, evaluate
from .scalars import EXACT, FLOAT, QQi
from .weights import minkowski_sum, psg_weight, scale, standard_simplex, weight_polytope


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def binary_form(d: int, coeffs, mode: str = EXACT) -> HomogeneousPolynomial:
    """Binary form from coefficients by descending power of the first variable."""
    shape = VariableShape.vector(2)
    return HomogeneousPolynomial(
        shape, d, {(d - i, i): c for i, c in enumerate(coeffs) if c != 0}, mode
    )


def rational_normal_curve(d: int) -> RationalCurve:
    """gamma = (s^d, s^(d-1) t, ..., t^d) in P^d."""
    comps = []
    for i in range(d + 1):
        coeffs = [0] * (d + 1)
        coeffs[i] = 1
        comps.append(binary_form(d, coeffs))
    return RationalCurve(d, d, comps)


def random_dense_poly(rng, nvars: int, d: int) -> HomogeneousPolynomial:
    shape = VariableShape.vector(nvars)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        terms[tuple(exp)] = complex(rng.standard_normal(), rng.standard_normal())
    return HomogeneousPolynomial(shape, d, terms, FLOAT)


def random_linear_factor_form(rng, d: int) -> HomogeneousPolynomial:
    """Product of d random integer linear forms (all roots rational)."""
    form = binary_form(0, [1])
    shape = VariableShape.vector(2)
    for _ in range(d):
        while True:
            a, b = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
            if a or b:
                break
        form = form * HomogeneousPolynomial(shape, 1, {(1, 0): a, (0, 1): b}, EXACT)
    return form


def random_sl(rng, n: int, spread: float = 0.3) -> np.ndarray:
    h = spread * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (h + h.conj().T) / 2
    h -= np.trace(h) / n * np.eye(n)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(vals)) @ vecs.conj().T


# ---------------------------------------------------------------------------


def suite_norms(samples: int = 50_000, seed: int = 0) -> List[dict]:
    out = []
    rng = np.random.default_rng(seed)
    for N, d in ((2, 2), (3, 4)):
        shape = VariableShape.vector(N + 1)
        exp = [0] * (N + 1)
        exp[int(rng.integers(0, N + 1))] = d
        mono = HomogeneousPolynomial.monomial(shape, tuple(exp), 1, EXACT)
        est = lp_norm(mono, 0, samples=samples, seed=seed + N)
        target = -(d / 2.0) * harmonic(N)
        out.append(
            _check(
                f"mahler-monomial N={N} d={d}",
                abs(est.log_value - target) <= 3 * est.stderr,
                f"{est.log_value:.4f} vs {target:.4f} (se {est.stderr:.4f})",
            )
        )
    for i in range(6):
        P = random_dense_poly(rng, int(rng.integers(2, 4)), int(rng.integers(1, 5)))
        rep = arestov_check(P, samples=samples, seed=seed + 10 + i)
        out.append(
            _check(
                f"arestov-random-{i}",
                rep["lower_holds"] and rep["upper_holds"],
                f"margins {rep['lower_margin']:.4f}/{rep['upper_margin']:.4f}",
            )
        )
        jen = jensen_check(P, 2.0, samples=samples, seed=seed + 20 + i)
        out.append(_check(f"jensen-random-{i}", jen["holds"], f"margin {jen['margin']:.4f}"))
    shape = VariableShape.vector(3)
    z0d = HomogeneousPolynomial.monomial(shape, (3, 0, 0), 1, EXACT)
    sup = sup_norm(z0d, samples=4000, seed=seed)
    out.append(_check("sup-equality z0^d", abs(sup - 1.0) <= 1e-6, f"sup={sup:.2e}"))
    return out


def suite_weights(seed: int = 0) -> List[dict]:
    out = []
    rng = np.random.default_rng(seed)
    shape = VariableShape.vector(2)
    x2 = HomogeneousPolynomial(shape, 2, {(2, 0): 1}, EXACT)
    out.append(
        _check("weight x^2 along (1,-1)", psg_weight(OnePSG([1, -1]), x2) == 2)
    )
    # weight additivity and Minkowski identity against brute-force expansion
    for i in range(4):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f = binary_form(d1, [int(rng.integers(1, 5)) for _ in range(d1 + 1)])
        g = binary_form(d2, [int(rng.integers(1, 5)) for _ in range(d2 + 1)])
        lam = OnePSG([1, -1])
        ok = psg_weight(lam, f * g) == psg_weight(lam, f) + psg_weight(lam, g)
        ok = ok and minkowski_sum(weight_polytope(f), weight_polytope(g)) == weight_polytope(f * g)
        out.append(_check(f"additivity-{i}", ok))
    q1 = standard_simplex(2)
    out.append(_check("simplex dilation", minkowski_sum(q1, q1) == scale(q1, 2)))
    # measured log-norm slope along random 1-PSGs equals the exact weight
    for i in range(5):
        d = int(rng.integers(1, 5))
        P = random_dense_poly(rng, 3, d)
        a = int(rng.integers(-3, 4))
        b = int(rng.integers(-3, 4))
        lam = OnePSG([a, b, -a - b])
        if all(v == 0 for v in lam.exponents):
            continue
        from .pairs import PolyL2Functional

        func = PolyL2Functional(P)
        vals = [
            func.log_norm2(np.diag([t ** e for e in lam.exponents]).astype(complex))
            for t in (1e-2, 1e-3)
        ]
        slope = (vals[1] - vals[0]) / (math.log(1e-6) - math.log(1e-4))
        w = psg_weight(lam, P)
        out.append(
            _check(f"slope-vs-weight-{i}", abs(slope - w) <= 0.05, f"{slope:.3f} vs {w}")
        )
    return out


def suite_forms(seed: int = 0) -> List[dict]:
    out = []
    rng = np.random.default_rng(seed)
    conic = rational_normal_curve(2)
    xp = build_x_pair(conic)
    delta = xp.hyperdiscriminant
    ref = {(0, 2, 0): QQi(-1), (1, 0, 1): QQi(4)}
    ratio_ok = delta.terms == ref or delta.terms == {
        k: -v for k, v in ref.items()
    }
    out.append(_check("conic hurwitz = b1^2-4b0b2 up to scalar", ratio_ok, str(delta.terms)))
    for d in (2, 3):
        xpd = build_x_pair(rational_normal_curve(d))
        out.append(
            _check(
                f"degrees d={d}",
                xpd.deg_r == 2 * d
                and xpd.resultant.degree == 2 * d
                and xpd.hyperdiscriminant.degree == 2 * d - 2,
            )
        )
    F = HomogeneousPolynomial(VariableShape.vector(3), 2, {(1, 0, 1): 1, (0, 2, 0): -1}, EXACT)
    Rh = chow_form_hypersurface(HypersurfaceVariety(1, F))
    ratios = set()
    for _ in range(20):
        A = [int(rng.integers(-6, 7)) for _ in range(6)]
        va, vb = evaluate(xp.resultant, A), evaluate(Rh, A)
        if vb:
            r = va / vb
            ratios.add((str(r.re), str(r.im)))
    out.append(_check("parametric vs hypersurface chow ratio", len(ratios) == 1, str(ratios)))
    return out


def suite_pairs(seed: int = 0) -> List[dict]:
    out = []
    rng = np.random.default_rng(seed)
    x = binary_form(1, [1, 0])
    x2 = binary_form(2, [1, 0, 0])
    ok, lam = torus_semistable(Pair(x, x2))
    out.append(_check("(x, x^2) torus-fail witness", (not ok) and list(lam.exponents) == [1, -1]))
    from .weights import TensorVector

    v = TensorVector([("wedge2", 3), ("wedge2", 3)], {((0, 1), (0, 1)): 1})
    w = TensorVector(
        [("vector", 3), ("vector", 3), ("wedge2", 3)],
        {(0, 1, (0, 1)): 1, (1, 0, (0, 1)): 1},
    )
    pr = randomized_torus_probe(Pair(v, w), trials=20, seed=seed)
    out.append(_check("blow-up pair probe", pr.passed, f"{pr.trials_run} trials"))
    # destabilizers for e = d-1 pairs with rational roots
    for i, d in enumerate((2, 3)):
        f = random_linear_factor_form(rng, d - 1)
        g = random_linear_factor_form(rng, d)
        res = randomized_torus_probe(Pair(f, g), trials=10, seed=seed + i)
        ok = (not res.passed) and res.witness is not None
        out.append(_check(f"e=d-1 destabilizer d={d}", ok, f"trial {res.failing_trial}"))
    # gradient against central differences
    from .pairs import _expm_hermitian

    worst = 0.0
    for i in range(10):
        n = int(rng.integers(2, 4))
        P = random_dense_poly(rng, n, int(rng.integers(1, 4)))
        Q = random_dense_poly(rng, n, int(rng.integers(1, 4)))
        pair = Pair(P, Q)
        sig = random_sl(rng, n)
        func = PairFunctional.for_pair(pair)
        G = kempf_ness_gradient(sig, pair)
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (H + H.conj().T) / 2
        H -= np.trace(H) / n * np.eye(n)
        eps = 1e-4
        fd = (
            func.value(_expm_hermitian(eps * H) @ sig)
            - func.value(_expm_hermitian(-eps * H) @ sig)
        ) / (2 * eps)
        an = float(np.vdot(H, G).real)
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-9))
    out.append(_check("gradient vs central differences", worst < 1e-5, f"max rel {worst:.2e}"))
    cert = descend(Pair(x, x2), DescentOptions(max_iters=1500, restarts=1, seed=seed))
    out.append(
        _check(
            "(x, x^2) descent diverges with verified witness",
            cert.verdict == "divergence-detected" and cert.witness is not None,
        )
    )
    return out


def suite_energy(samples: int = 50_000, seed: int = 0) -> List[dict]:
    out = []
    rng = np.random.default_rng(seed)
    conic = rational_normal_curve(2)
    xp = build_x_pair(conic)
    rep = curve_geometry_oracle(np.eye(3), conic, n_r=48, n_th=48)
    out.append(
        _check(
            "oracle V=d, mu=2/d (conic)",
            abs(rep.volume - 2) <= 1e-3 and abs(rep.mu - 1) <= 1e-2,
            f"V={rep.volume:.6f} mu={rep.mu:.6f}",
        )
    )
    out.append(
        _check(
            "oracle zero potential",
            abs(rep.k_energy) <= 1e-9 and abs(rep.aubin_j) <= 1e-9 and abs(rep.aubin_f0) <= 1e-9,
        )
    )
    sig = random_sl(rng, 3)
    orc = curve_geometry_oracle(sig, conic, n_r=48, n_th=48)
    alg = k_energy_algebraic(sig, xp, samples=samples, seed=seed + 5)
    diff = abs(orc.k_energy - alg["k_energy"])
    tol = max(0.02 * abs(orc.k_energy), 1e-2)
    out.append(
        _check(
            "k-energy oracle vs algebraic (conic)",
            diff <= tol,
            f"oracle {orc.k_energy:.5f} alg {alg['k_energy']:.5f}",
        )
    )
    f0 = aubin_f0_algebraic(sig, xp, samples=samples, seed=seed + 6)
    d11 = abs(-xp.deg_r * orc.aubin_f0 - (-xp.deg_r * f0["aubin_f0"]))
    out.append(
        _check(
            "phillipon-soule (squared convention)",
            d11 <= 3 * (xp.deg_r * f0["stderr"] + 1e-3),
            f"oracle {-xp.deg_r * orc.aubin_f0:.5f} alg {-xp.deg_r * f0['aubin_f0']:.5f}",
        )
    )
    # slope nonnegativity: semistability direction for rational normal curves
    bad = 0
    for _ in range(10):
        a = int(rng.integers(-4, 5))
        b = int(rng.integers(-4, 5))
        lam = OnePSG([a, b, -a - b])
        if all(v == 0 for v in lam.exponents):
            continue
        combo = xp.deg_delta * psg_weight(lam, xp.resultant) - xp.deg_r * psg_weight(
            lam, xp.hyperdiscriminant
        )
        if combo < 0:
            bad += 1
    out.append(_check("stability slope sign (conic)", bad == 0, f"{bad} negative"))
    return out


SUITES: Dict[str, Callable[..., List[dict]]] = {
    "norms": suite_norms,
    "weights": suite_weights,
    "forms": suite_forms,
    "pairs": suite_pairs,
    "energy": suite_energy,
}


def run_suites(names=None, seed: int = 0) -> dict:
    names = list(names) if names else list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise SchemaError(f"unknown suite {unknown[0]!r}; choose from {sorted(SUITES)}")
    results = {}
    all_passed = True
    for name in names:
        checks = SUITES[name](seed=seed)
        results[name] = checks
        all_passed = all_passed and all(c["passed"] for c in checks)
    return {"suites": results, "passed": all_passed}
